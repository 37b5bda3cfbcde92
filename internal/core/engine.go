package core

import (
	"time"

	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// This file holds what the methods share: the base every method embeds,
// the phase clock behind core.Timing, and the column-sampling engine.
// Dropout and ALSH-approx are both the paper's §4.2 "sampling from the
// current layer"; they differ only in how a hidden layer's kept columns
// are chosen, so each supplies a colSelector and the engine owns the
// training loop, the read-only replay, the trace spans, and the timing.

// base carries what every method has: its identity, the network it
// trains, the optimizer it updates with, and its phase timings.
type base struct {
	name   string
	axis   Axis
	net    *nn.Network
	optim  opt.Optimizer
	timing Timing
}

// Name identifies the method.
func (b *base) Name() string { return b.name }

// Axis reports which weight-matrix dimension the method samples.
func (b *base) Axis() Axis { return b.axis }

// Net returns the wrapped network.
func (b *base) Net() *nn.Network { return b.net }

// Timing returns the cumulative phase timings.
func (b *base) Timing() Timing { return b.timing }

// ResetTiming zeroes the timings.
func (b *base) ResetTiming() { b.timing = Timing{} }

// Optimizer returns the wrapped optimizer.
func (b *base) Optimizer() opt.Optimizer { return b.optim }

// phaseClock laps wall time into the phases of a Timing.
type phaseClock struct{ last time.Time }

func startClock() phaseClock { return phaseClock{last: wallNow()} }

// lap adds the time since the previous lap (or the start) to phase.
func (c *phaseClock) lap(phase *time.Duration) {
	now := wallNow()
	*phase += now.Sub(c.last)
	c.last = now
}

// wallNow is the package's only wall-clock read.
func wallNow() time.Time {
	return time.Now() //lint:ignore wall-clock phase cost accounting (core.Timing); reported, never fed back into training
}

// colSet is a first-occurrence union of column indices: membership
// flags plus the members in the order they were first added, so reading
// it back is deterministic where a map's order is not. The zero value
// is an empty set.
type colSet struct {
	in   []bool
	cols []int
}

// add inserts every column of cols not already in the set.
func (s *colSet) add(cols []int) {
	for _, c := range cols {
		if c >= len(s.in) {
			s.in = append(s.in, make([]bool, c+1-len(s.in))...)
		}
		if !s.in[c] {
			s.in[c] = true
			s.cols = append(s.cols, c)
		}
	}
}

// reset empties the set, clearing only its members' flags.
func (s *colSet) reset() {
	for _, c := range s.cols {
		s.in[c] = false
	}
	s.cols = s.cols[:0]
}

// keepScratch is one caller's reusable workspace for choosing kept
// columns.
type keepScratch struct {
	union colSet
	cands []int
	// lsh, when set, holds per-layer LSH query scratch so the caller can
	// query the indexes concurrently with other callers.
	lsh []*lsh.QueryScratch
}

// colSelector is what a column-sampling method adds to the engine.
type colSelector interface {
	// keep returns hidden layer i's kept columns for the layer input x,
	// in a new slice. All randomness comes from g and all buffers from
	// ws; keep must not change training state, since ApproxForward calls
	// it too. The order of the result fixes the summation order of the
	// backward pass.
	keep(i int, x *tensor.Matrix, g *rng.RNG, ws *keepScratch) []int
	// scale multiplies the kept activations (1/P for inverted dropout).
	scale() float64
}

// stepHook is implemented by selectors with work to do once a step's
// updates are applied (ALSH-approx re-hashes the updated columns). Its
// time counts as Timing.Maintain.
type stepHook interface {
	afterStep(rows int)
}

// colSampler is the column-sampling engine: a training step that runs
// forward, backward and the optimizer over each hidden layer's kept
// columns only, with an exact output layer.
type colSampler struct {
	rngBase
	sel    colSelector
	states []*activeState // per hidden layer; nil for the output layer
	grads  []nn.Grads     // full-width gradient scratch per hidden layer
	ws     keepScratch
}

func newColSampler(name string, net *nn.Network, optim opt.Optimizer, g *rng.RNG, sel colSelector) colSampler {
	e := colSampler{
		rngBase: rngBase{base{name: name, axis: AxisColumns, net: net, optim: optim}, g},
		sel:     sel,
		states:  make([]*activeState, len(net.Layers)),
		grads:   make([]nn.Grads, len(net.Layers)),
	}
	for i := range e.states[:len(e.states)-1] {
		e.states[i] = &activeState{}
	}
	return e
}

// Step performs one column-sampled training pass.
func (e *colSampler) Step(x *tensor.Matrix, y []int) float64 {
	tr := trace.Active()
	layers := e.net.Layers
	last := len(layers) - 1
	scale := e.sel.scale()

	c := startClock()
	a := x
	for i, l := range layers {
		if i == last {
			sp := tr.BeginLayer("forward", "layer", i)
			a = l.Forward(a) // output layer is always exact
			sp.End()
			continue
		}
		st := e.states[i]
		st.cols = e.sel.keep(i, a, e.g, &e.ws)
		sp := tr.BeginLayer("forward", "sampled", i)
		a = forwardActive(l, a, st, scale)
		sp.End()
	}
	loss := e.net.Head.Loss(a, y)
	c.lap(&e.timing.Forward)

	delta := e.net.Head.Delta(a, y)
	spOut := tr.BeginLayer("backward", "layer", last)
	gOut, dA := layers[last].Backward(delta)
	e.optim.Step(last, layers[last].W, layers[last].B, gOut)
	spOut.End()
	for i := last - 1; i >= 0; i-- {
		sp := tr.BeginLayer("backward", "sampled", i)
		l, st := layers[i], e.states[i]
		gw, gb, dPrev := backwardActive(l, dA, st, scale)
		e.grads[i] = scatterGrads(l, gw, gb, st.cols, e.grads[i])
		e.optim.StepCols(i, l.W, l.B, e.grads[i], st.cols)
		clearGradCols(e.grads[i], st.cols)
		dA = dPrev
		sp.End()
	}
	c.lap(&e.timing.Backward)

	if h, ok := e.sel.(stepHook); ok {
		h.afterStep(x.Rows)
		c.lap(&e.timing.Maintain)
	}
	return loss
}

// ApproxForward replays the column-sampled feedforward on x: kept
// columns are chosen afresh with randomness from g (never the training
// stream), every buffer is local, and no span is emitted.
func (e *colSampler) ApproxForward(x *tensor.Matrix, g *rng.RNG) []*tensor.Matrix {
	states := make([]*activeState, len(e.net.Layers))
	for i := range states {
		states[i] = &activeState{}
	}
	return sampledForward(e.net.Layers, x, states, e.sel, g, &keepScratch{})
}

// sampledForward runs x through every layer, each hidden layer i
// evaluating only the columns sel keeps (cached in states[i] for a
// backward pass) and the exact output layer through Layer.Infer. It
// returns every layer's activation and writes no layer cache, so
// concurrent callers with their own states, g and ws may share it.
func sampledForward(layers []*nn.Layer, x *tensor.Matrix, states []*activeState, sel colSelector, g *rng.RNG, ws *keepScratch) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(layers))
	last := len(layers) - 1
	act := x
	for i, l := range layers {
		if i == last {
			act = l.Infer(act)
		} else {
			states[i].cols = sel.keep(i, act, g, ws)
			act = forwardActive(l, act, states[i], sel.scale())
		}
		out[i] = act
	}
	return out
}
