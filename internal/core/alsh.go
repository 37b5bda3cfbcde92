package core

import (
	"fmt"

	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// SamplingSnapshot carries a sampling method's per-epoch diagnostics for
// the run journal: the paper's sparsity headline (ActiveFraction, ~5%)
// plus the §10.3 collapse signals — the distribution of active-set sizes
// per hidden layer and the hash-bucket occupancy behind them.
type SamplingSnapshot struct {
	ActiveFraction float64 `json:"active_fraction"`
	// ActiveSets[i] is hidden layer i's distribution of active-set sizes
	// since the last ResetTiming (one observation per processed sample or
	// batch union).
	ActiveSets []obs.DistSnapshot `json:"active_sets,omitempty"`
	// Buckets[i] is hidden layer i's current hash-table occupancy.
	Buckets []lsh.BucketStats `json:"buckets,omitempty"`
}

// SamplingReporter is implemented by methods that expose sampling
// diagnostics. The trainer includes the snapshot in each epoch's journal
// record.
type SamplingReporter interface {
	SamplingSnapshot() SamplingSnapshot
}

// ALSHConfig tunes the hash-based node sampler.
type ALSHConfig struct {
	// Params are the LSH index hyperparameters (paper: K=6, L=5, m=3).
	Params lsh.Params
	// MinActive floors the active-set size per layer; when the hash
	// lookup returns fewer candidates, random nodes pad the set (the
	// fallback of the original implementation). Zero means max(4, n/100).
	MinActive int
	// MaxActiveFrac caps the active set at this fraction of the layer,
	// keeping the cost bounded when buckets are crowded. Zero means no
	// cap.
	MaxActiveFrac float64
	// EarlyRebuildEvery and LateRebuildEvery give the hash-maintenance
	// cadence in samples: the paper re-hashes every 100 samples for the
	// first 10000 samples and every 1000 after (§9.2). Zero selects those
	// defaults.
	EarlyRebuildEvery, LateRebuildEvery, EarlyPhaseSamples int
}

func (c *ALSHConfig) setDefaults() {
	if c.Params == (lsh.Params{}) {
		c.Params = lsh.DefaultParams()
	}
	if c.EarlyRebuildEvery == 0 {
		c.EarlyRebuildEvery = 100
	}
	if c.LateRebuildEvery == 0 {
		c.LateRebuildEvery = 1000
	}
	if c.EarlyPhaseSamples == 0 {
		c.EarlyPhaseSamples = 10000
	}
}

// ALSHApprox is the Spring-Shrivastava hash-based trainer (§5.2,
// ALSH-approx in the paper): every hidden layer owns a MIPS index over
// the columns of its weight matrix; the incoming activation vector
// queries the index; the union of colliding columns across L tables
// becomes the layer's active node set; forward, backward, and the
// optimizer step run only on that set. Updated columns are re-hashed on
// the paper's growing cadence, timed as Timing().Maintain.
//
// Unlike Dropout there is no 1/p rescaling: the method treats the skipped
// inner products as exactly zero, which is the estimation-error source
// the §7 analysis bounds.
type ALSHApprox struct {
	colSampler
	cfg    ALSHConfig
	minAct []int

	indexes []*lsh.MIPSIndex
	touched []colSet // columns updated since last re-hash
	samples int      // training samples processed
	lastUpd int      // samples count at last re-hash
	// actDists[i] records hidden layer i's active-set sizes since the
	// last ResetTiming (nil for the exact output layer).
	actDists []*obs.Distribution
}

// NewALSHApprox builds per-hidden-layer MIPS indexes over net's weights.
func NewALSHApprox(net *nn.Network, optim opt.Optimizer, cfg ALSHConfig, g *rng.RNG) (*ALSHApprox, error) {
	if net == nil || optim == nil || g == nil {
		panic("core: ALSHApprox needs a network, optimizer, and RNG")
	}
	cfg.setDefaults()
	a := &ALSHApprox{
		cfg:      cfg,
		indexes:  make([]*lsh.MIPSIndex, len(net.Layers)),
		touched:  make([]colSet, len(net.Layers)),
		minAct:   make([]int, len(net.Layers)),
		actDists: make([]*obs.Distribution, len(net.Layers)),
	}
	a.colSampler = newColSampler("alsh", net, optim, g, a)
	last := len(net.Layers) - 1
	for i, l := range net.Layers[:last] {
		idx, err := lsh.NewMIPSIndex(l.FanIn(), l.FanOut(), cfg.Params, g.Split())
		if err != nil {
			return nil, fmt.Errorf("core: layer %d index: %w", i, err)
		}
		idx.Rebuild(l.W)
		a.indexes[i] = idx
		a.minAct[i] = cfg.MinActive
		if a.minAct[i] <= 0 {
			a.minAct[i] = max(4, l.FanOut()/100)
		}
		a.actDists[i] = obs.NewDistribution()
	}
	return a, nil
}

// ResetTiming zeroes the timings and the per-layer active-set-size
// distributions, so both align with the trainer's per-epoch window.
func (a *ALSHApprox) ResetTiming() {
	a.timing = Timing{}
	for _, d := range a.actDists {
		if d != nil {
			d.Reset()
		}
	}
}

// SamplingSnapshot exports the current sampling diagnostics: mean active
// fraction, active-set-size distributions since the last ResetTiming,
// and hash-bucket occupancy per hidden layer.
func (a *ALSHApprox) SamplingSnapshot() SamplingSnapshot {
	s := SamplingSnapshot{ActiveFraction: a.ActiveFraction()}
	for i, idx := range a.indexes {
		if idx == nil {
			continue
		}
		s.ActiveSets = append(s.ActiveSets, a.actDists[i].Snapshot())
		s.Buckets = append(s.Buckets, idx.BucketStats())
	}
	return s
}

// ActiveFraction reports the mean fraction of nodes active in the most
// recent step, the paper's sparsity headline (~5%).
func (a *ALSHApprox) ActiveFraction() float64 {
	var frac float64
	n := 0
	for i, st := range a.states {
		if st == nil || a.indexes[i] == nil {
			continue
		}
		frac += float64(len(st.cols)) / float64(a.net.Layers[i].FanOut())
		n++
	}
	if n == 0 {
		return 0
	}
	return frac / float64(n)
}

// IndexMemory returns the summed footprint estimate of all hash indexes,
// the "table setup" cost of the §9.4 memory analysis.
func (a *ALSHApprox) IndexMemory() int {
	total := 0
	for _, idx := range a.indexes {
		if idx != nil {
			total += idx.MemoryFootprint()
		}
	}
	return total
}

// keep queries hidden layer i's index with every row of x, unions the
// candidates in first-occurrence order (at batch size 1, the query's
// own ascending order), pads the union with random nodes up to the
// floor, and truncates it at the cap.
func (a *ALSHApprox) keep(i int, x *tensor.Matrix, g *rng.RNG, ws *keepScratch) []int {
	idx := a.indexes[i]
	for r := 0; r < x.Rows; r++ {
		if ws.lsh != nil {
			ws.cands = idx.QueryWith(ws.lsh[i], x.RowView(r), ws.cands)
		} else {
			ws.cands = idx.Query(x.RowView(r), ws.cands)
		}
		ws.union.add(ws.cands)
	}
	cols := padActive(ws.union.cols, idx.NumItems(), a.minAct[i], a.cfg.MaxActiveFrac, g)
	ws.union.reset()
	return cols
}

// scale is 1: ALSH-approx treats the skipped inner products as zero.
func (a *ALSHApprox) scale() float64 { return 1 }

// afterStep records the step's active-set sizes, marks the updated
// columns for re-hashing, and runs index maintenance.
func (a *ALSHApprox) afterStep(rows int) {
	for i, st := range a.states {
		if st != nil {
			a.actDists[i].Observe(int64(len(st.cols)))
			a.touched[i].add(st.cols)
		}
	}
	a.maintain(rows)
}

// maintain counts rows more training samples and re-hashes the updated
// columns on the paper's growing cadence: every EarlyRebuildEvery
// samples for the first EarlyPhaseSamples, then every LateRebuildEvery.
func (a *ALSHApprox) maintain(rows int) {
	a.samples += rows
	every := a.cfg.EarlyRebuildEvery
	if a.samples > a.cfg.EarlyPhaseSamples {
		every = a.cfg.LateRebuildEvery
	}
	if a.samples-a.lastUpd < every {
		return
	}
	a.lastUpd = a.samples
	for i, idx := range a.indexes {
		if t := &a.touched[i]; idx != nil && len(t.cols) > 0 {
			idx.UpdateColumns(a.net.Layers[i].W, t.cols)
			t.reset()
		}
	}
}

// RebuildAll refits every index's transform scaling and re-hashes all
// columns — the full rebuild typically run between epochs.
func (a *ALSHApprox) RebuildAll() {
	c := startClock()
	for i, idx := range a.indexes {
		if idx != nil {
			idx.Rebuild(a.net.Layers[i].W)
		}
	}
	c.lap(&a.timing.Maintain)
}
