package core

import (
	"fmt"
	"io"

	"samplednn/internal/binio"
	"samplednn/internal/rng"
)

// This file implements the Resumable interface of every method with
// run-time state beyond the weights. Each state blob starts with a
// one-byte version so formats can evolve independently.

const methodStateV1 = 1

// rngBase is base plus the method's private RNG stream. For Dropout,
// Adaptive-Dropout and MC-approx that stream is the whole run-time state
// beyond the weights, so rngBase is their Resumable implementation; it
// is not on base because Standard has no state to resume.
type rngBase struct {
	base
	g *rng.RNG
}

// SaveState serializes the RNG stream position.
func (b *rngBase) SaveState(w io.Writer) error {
	if err := binio.WriteU8(w, methodStateV1); err != nil {
		return err
	}
	return binio.WriteBytes(w, b.g.Save())
}

// LoadState restores the RNG stream position.
func (b *rngBase) LoadState(r io.Reader) error {
	v, err := binio.ReadU8(r)
	if err != nil {
		return fmt.Errorf("core: %s state header: %w", b.name, err)
	}
	if v != methodStateV1 {
		return fmt.Errorf("core: %s state version %d, this build reads %d", b.name, v, methodStateV1)
	}
	blob, err := binio.ReadBytes(r)
	if err != nil {
		return err
	}
	return b.g.Restore(blob)
}

// SaveState serializes the active-set RNG position and the
// hash-maintenance counters.
func (a *ALSHApprox) SaveState(w io.Writer) error {
	if err := a.rngBase.SaveState(w); err != nil {
		return err
	}
	if err := binio.WriteI64(w, int64(a.samples)); err != nil {
		return err
	}
	return binio.WriteI64(w, int64(a.lastUpd))
}

// LoadState restores the RNG position and maintenance counters, then
// rebuilds every hash index from the current weights. Callers restore
// the network weights before calling LoadState, so the rebuilt indexes
// match the checkpoint's weights; the hash functions themselves were
// fixed at construction and are reproduced by constructing the method
// with the same seed.
func (a *ALSHApprox) LoadState(r io.Reader) error {
	if err := a.rngBase.LoadState(r); err != nil {
		return err
	}
	samples, err := binio.ReadI64(r)
	if err != nil {
		return err
	}
	lastUpd, err := binio.ReadI64(r)
	if err != nil {
		return err
	}
	a.samples = int(samples)
	a.lastUpd = int(lastUpd)
	a.RebuildAll()
	return nil
}

// SaveState serializes the base ALSH state plus every worker's private
// RNG position.
func (p *ParallelALSH) SaveState(w io.Writer) error {
	if err := p.ALSHApprox.SaveState(w); err != nil {
		return err
	}
	if err := binio.WriteU32(w, uint32(len(p.workers))); err != nil {
		return err
	}
	for _, aw := range p.workers {
		if err := binio.WriteBytes(w, aw.g.Save()); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores the base ALSH state and the worker RNG streams. The
// worker count must match the one the state was saved with.
func (p *ParallelALSH) LoadState(r io.Reader) error {
	if err := p.ALSHApprox.LoadState(r); err != nil {
		return err
	}
	n, err := binio.ReadU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(p.workers) {
		return fmt.Errorf("core: checkpoint has %d worker streams, trainer has %d workers", n, len(p.workers))
	}
	for _, aw := range p.workers {
		blob, err := binio.ReadBytes(r)
		if err != nil {
			return err
		}
		if err := aw.g.Restore(blob); err != nil {
			return err
		}
	}
	return nil
}
