package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// The wrappers in this file time the public interfaces the benchmark
// hands to the program from outside. Each forwards every capability the
// trainer, the probe and the coordinator look for with a type assertion,
// so a wrapped run takes exactly the code path of an unwrapped one; the
// test in wrap_test.go pins that by comparing final weights.

// stepStats accumulates what the method wrapper measures around Step.
type stepStats struct {
	steps      int64
	stepNS     int64
	allocs     uint64
	allocBytes uint64
}

// timedMethod times every Step (and TryStep) of the method it wraps and
// takes runtime.MemStats deltas around each call. It is not safe for
// concurrent Steps, which the trainer never issues.
type timedMethod struct {
	inner core.Method
	stats stepStats
	ms    runtime.MemStats
}

func (t *timedMethod) Name() string        { return t.inner.Name() }
func (t *timedMethod) Axis() core.Axis     { return t.inner.Axis() }
func (t *timedMethod) Net() *nn.Network    { return t.inner.Net() }
func (t *timedMethod) Timing() core.Timing { return t.inner.Timing() }
func (t *timedMethod) ResetTiming()        { t.inner.ResetTiming() }
func (t *timedMethod) take() (s stepStats) { s, t.stats = t.stats, stepStats{}; return s }
func (t *timedMethod) Step(x *tensor.Matrix, y []int) float64 {
	var loss float64
	t.timed(func() { loss = t.inner.Step(x, y) })
	return loss
}

// timed runs f, charging its wall time and its heap allocations to the
// step counters. The MemStats reads sit outside the timed interval.
func (t *timedMethod) timed(f func()) {
	runtime.ReadMemStats(&t.ms)
	mallocs, bytes := t.ms.Mallocs, t.ms.TotalAlloc
	t0 := time.Now()
	f()
	t.stats.stepNS += time.Since(t0).Nanoseconds()
	t.stats.steps++
	runtime.ReadMemStats(&t.ms)
	t.stats.allocs += t.ms.Mallocs - mallocs
	t.stats.allocBytes += t.ms.TotalAlloc - bytes
}

// fallibleTimed forwards core.FallibleStepper through the timer.
type fallibleTimed struct {
	t *timedMethod
	f core.FallibleStepper
}

func (f fallibleTimed) TryStep(x *tensor.Matrix, y []int) (float64, error) {
	var loss float64
	var err error
	f.t.timed(func() { loss, err = f.f.TryStep(x, y) })
	return loss, err
}

// Capability bits: the optional interfaces of core a method may
// implement beyond core.Method.
const (
	capFallible = 1 << iota
	capResumable
	capGrad
	capOptimizer
	capApprox
	capSampling
	capPredictor
)

// capsOf reports which optional core interfaces m implements.
func capsOf(m core.Method) int {
	c := 0
	if _, ok := m.(core.FallibleStepper); ok {
		c |= capFallible
	}
	if _, ok := m.(core.Resumable); ok {
		c |= capResumable
	}
	if _, ok := m.(core.GradComputer); ok {
		c |= capGrad
	}
	if _, ok := m.(core.OptimizerHolder); ok {
		c |= capOptimizer
	}
	if _, ok := m.(core.ApproxForwarder); ok {
		c |= capApprox
	}
	if _, ok := m.(core.SamplingReporter); ok {
		c |= capSampling
	}
	if _, ok := m.(core.BatchPredictor); ok {
		c |= capPredictor
	}
	return c
}

// wrapMethod returns m behind a timedMethod whose dynamic type
// implements exactly the optional interfaces m implements. Go cannot
// build such a type at run time, so each capability set the core
// methods have is spelled out; an unknown set is an error rather than a
// silently narrower wrapper.
func wrapMethod(m core.Method) (core.Method, *timedMethod, error) {
	t := &timedMethod{inner: m}
	res, _ := m.(core.Resumable)
	grad, _ := m.(core.GradComputer)
	oh, _ := m.(core.OptimizerHolder)
	af, _ := m.(core.ApproxForwarder)
	sr, _ := m.(core.SamplingReporter)
	bp, _ := m.(core.BatchPredictor)
	fs, _ := m.(core.FallibleStepper)
	switch capsOf(m) {
	case capGrad | capOptimizer: // standard
		return &struct {
			*timedMethod
			core.GradComputer
			core.OptimizerHolder
		}{t, grad, oh}, t, nil
	case capResumable | capOptimizer | capApprox: // dropout, mc
		return &struct {
			*timedMethod
			core.Resumable
			core.OptimizerHolder
			core.ApproxForwarder
		}{t, res, oh, af}, t, nil
	case capResumable | capOptimizer | capApprox | capPredictor: // adaptive-dropout
		return &struct {
			*timedMethod
			core.Resumable
			core.OptimizerHolder
			core.ApproxForwarder
			core.BatchPredictor
		}{t, res, oh, af, bp}, t, nil
	case capResumable | capOptimizer | capApprox | capSampling: // alsh
		return &struct {
			*timedMethod
			core.Resumable
			core.OptimizerHolder
			core.ApproxForwarder
			core.SamplingReporter
		}{t, res, oh, af, sr}, t, nil
	case capFallible | capResumable | capOptimizer | capApprox | capSampling: // alsh-parallel
		return &struct {
			*timedMethod
			fallibleTimed
			core.Resumable
			core.OptimizerHolder
			core.ApproxForwarder
			core.SamplingReporter
		}{t, fallibleTimed{t, fs}, res, oh, af, sr}, t, nil
	}
	return nil, nil, fmt.Errorf("perfbench: no timing wrapper for method %q with capability set %#x", m.Name(), capsOf(m))
}

// optimizerFull is what the trainer and the dist worker may assert on
// an optimizer: the update paths plus state save and LR adjust.
type optimizerFull interface {
	opt.Optimizer
	opt.StateSaver
	opt.LRAdjuster
}

// timedOptimizer times Step and StepCols of the optimizer it wraps and
// forwards state save/load and learning-rate adjustment.
type timedOptimizer struct {
	inner optimizerFull
	ns    atomic.Int64
}

func newTimedOptimizer(o opt.Optimizer) (*timedOptimizer, error) {
	full, ok := o.(optimizerFull)
	if !ok {
		return nil, fmt.Errorf("perfbench: optimizer %q lacks state save or LR adjust", o.Name())
	}
	return &timedOptimizer{inner: full}, nil
}

func (o *timedOptimizer) Name() string                { return o.inner.Name() }
func (o *timedOptimizer) Reset()                      { o.inner.Reset() }
func (o *timedOptimizer) SaveState(w io.Writer) error { return o.inner.SaveState(w) }
func (o *timedOptimizer) LoadState(r io.Reader) error { return o.inner.LoadState(r) }
func (o *timedOptimizer) LearningRate() float64       { return o.inner.LearningRate() }
func (o *timedOptimizer) SetLearningRate(lr float64)  { o.inner.SetLearningRate(lr) }
func (o *timedOptimizer) take() time.Duration         { return time.Duration(o.ns.Swap(0)) }
func (o *timedOptimizer) Step(id int, w *tensor.Matrix, b []float64, g nn.Grads) {
	t0 := time.Now()
	o.inner.Step(id, w, b, g)
	o.ns.Add(time.Since(t0).Nanoseconds())
}
func (o *timedOptimizer) StepCols(id int, w *tensor.Matrix, b []float64, g nn.Grads, cols []int) {
	t0 := time.Now()
	o.inner.StepCols(id, w, b, g, cols)
	o.ns.Add(time.Since(t0).Nanoseconds())
}

// timedStepper records the wall time of every StepBatch of the
// train.BatchStepper it wraps, in call order, and calls onStep (when
// set) after each with the number of steps so far.
type timedStepper struct {
	inner  train.BatchStepper
	onStep func(steps int)
	steps  []time.Duration
	ends   []time.Time
}

func (s *timedStepper) StepBatch(pos train.StepPos, x *tensor.Matrix, y []int, state train.StateFunc) (float64, error) {
	t0 := time.Now()
	loss, err := s.inner.StepBatch(pos, x, y, state)
	end := time.Now()
	s.steps = append(s.steps, end.Sub(t0))
	s.ends = append(s.ends, end)
	if s.onStep != nil {
		s.onStep(len(s.steps))
	}
	return loss, err
}

// timedHandler records how long the wrapped handler spent on each
// request, keyed by the sequence number the load generator puts in the
// X-Bench-Seq header.
type timedHandler struct {
	inner http.Handler
	mu    sync.Mutex
	ns    map[string]int64
}

func newTimedHandler(h http.Handler) *timedHandler {
	return &timedHandler{inner: h, ns: map[string]int64{}}
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t0).Nanoseconds()
	if seq := r.Header.Get(seqHeader); seq != "" {
		h.mu.Lock()
		h.ns[seq] = d
		h.mu.Unlock()
	}
}

// handlerNS returns the recorded handler time for a sequence number.
func (h *timedHandler) handlerNS(seq string) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.ns[seq]
	return d, ok
}

// Compile-time checks that the wrappers satisfy the interfaces they
// stand in for.
var (
	_ core.Method        = (*timedMethod)(nil)
	_ optimizerFull      = (*timedOptimizer)(nil)
	_ train.BatchStepper = (*timedStepper)(nil)
	_ http.Handler       = (*timedHandler)(nil)
)
