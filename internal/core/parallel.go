package core

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"

	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// ParallelALSH is the multi-worker variant of ALSH-approx the paper
// repeatedly credits for the method's practical speed (§5.2, §9.2,
// §10.4): each sample in a batch is processed independently — its own
// hash lookups, its own sparse forward/backward over its own active sets
// — across Workers goroutines, and the resulting sparse gradients are
// merged and applied once per layer.
//
// The weights are read-only during the parallel phase and updated in a
// single merge step, so the scheme is race-free (a deliberate departure
// from SLIDE's lock-free HOGWILD updates; the gradient merge preserves
// the same sparse-update structure while keeping results reproducible
// for a fixed worker count).
type ParallelALSH struct {
	*ALSHApprox
	// Workers is the goroutine count; on a w-core machine w workers give
	// near-linear speedup because per-sample work is independent.
	Workers int

	workers []*alshWorker
	results []workerResult

	// Merge-phase scratch, reused across Steps so the per-batch merge
	// performs no allocations: merged is one hidden layer's union of the
	// per-sample active sets, outW/outB accumulate the dense output-layer
	// gradient.
	merged  colSet
	outWBuf *tensor.Matrix
	outBBuf []float64

	// Fault containment: worker panics are recovered per sample and
	// recorded here instead of killing the process.
	errMu   sync.Mutex
	stepErr error

	// sampleHook, when set, runs inside the worker just before each
	// sample is processed. Tests use it to inject panics at a chosen
	// sample.
	sampleHook func(sample int)
}

// alshWorker holds one goroutine's private buffers.
type alshWorker struct {
	states []*activeState
	ws     keepScratch // with LSH query scratch per hidden layer
	g      *rng.RNG
}

// workerResult carries one sample's sparse gradients.
type workerResult struct {
	loss float64
	// Per hidden layer: active columns and compact gradients.
	cols  [][]int
	gradW []*tensor.Matrix // fanIn x |cols|
	gradB [][]float64
	outW  *tensor.Matrix // dense output-layer gradient
	outB  []float64
}

// NewParallelALSH builds the multi-worker trainer.
func NewParallelALSH(net *nn.Network, optim opt.Optimizer, cfg ALSHConfig, workers int, g *rng.RNG) (*ParallelALSH, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("core: worker count %d must be positive", workers)
	}
	seq, err := NewALSHApprox(net, optim, cfg, g)
	if err != nil {
		return nil, err
	}
	seq.name = "alsh-parallel"
	p := &ParallelALSH{ALSHApprox: seq, Workers: workers}
	last := len(net.Layers) - 1
	p.outWBuf = tensor.New(net.Layers[last].FanIn(), net.Layers[last].FanOut())
	p.outBBuf = make([]float64, net.Layers[last].FanOut())
	for w := 0; w < workers; w++ {
		aw := &alshWorker{
			states: make([]*activeState, len(net.Layers)),
			ws:     keepScratch{lsh: make([]*lsh.QueryScratch, len(net.Layers))},
			g:      g.Split(),
		}
		for i, idx := range seq.indexes {
			if idx != nil {
				aw.states[i] = &activeState{}
				aw.ws.lsh[i] = idx.NewQueryScratch()
			}
		}
		p.workers = append(p.workers, aw)
	}
	return p, nil
}

// Step processes every row of the batch in parallel, each with its own
// per-sample active sets, then merges and applies the sparse gradients.
//
// A panic in a worker goroutine is contained: Step returns NaN and the
// recovered panic is available from LastErr. Callers that can handle
// errors (the trainer) should use TryStep instead.
func (p *ParallelALSH) Step(x *tensor.Matrix, y []int) float64 {
	loss, err := p.TryStep(x, y)
	if err != nil {
		return math.NaN()
	}
	return loss
}

// LastErr returns the error recorded by the most recent Step/TryStep, or
// nil if it completed cleanly.
func (p *ParallelALSH) LastErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.stepErr
}

func (p *ParallelALSH) recordErr(err error) {
	p.errMu.Lock()
	if p.stepErr == nil {
		p.stepErr = err
	}
	p.errMu.Unlock()
}

// runSample processes one sample inside a worker, converting a panic
// anywhere below (hash lookup, kernel, optimizer shape check) into an
// error so one bad sample cannot take down the process or strand the
// other workers.
func (p *ParallelALSH) runSample(aw *alshWorker, x *tensor.Matrix, y []int, i int, results []workerResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: parallel worker: sample %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	if p.sampleHook != nil {
		p.sampleHook(i)
	}
	results[i] = p.processSample(aw, x.RowView(i), y[i])
	return nil
}

// TryStep is Step with fault containment surfaced as an error: if any
// worker panics, the whole batch is discarded — no gradient is applied,
// the weights are untouched — and the first recovered panic is returned.
func (p *ParallelALSH) TryStep(x *tensor.Matrix, y []int) (float64, error) {
	if x.Rows != len(y) {
		return 0, fmt.Errorf("core: %d rows vs %d labels", x.Rows, len(y))
	}
	layers := p.net.Layers
	last := len(layers) - 1

	c := startClock()
	if cap(p.results) < x.Rows {
		p.results = make([]workerResult, x.Rows)
	}
	results := p.results[:x.Rows]
	p.errMu.Lock()
	p.stepErr = nil
	p.errMu.Unlock()

	var wg sync.WaitGroup
	rows := make(chan int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		rows <- i
	}
	close(rows)
	nw := p.Workers
	if nw > x.Rows {
		nw = x.Rows
	}
	tr := trace.Active()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		tid := trace.TIDALSHWorker + w
		if tr != nil {
			tr.NameThread(tid, fmt.Sprintf("alsh worker %d", w))
		}
		//lint:ignore raw-goroutine per-worker ALSH lanes pin worker-owned scratch and carry their own recover (runSample); pool tasks cannot guarantee worker affinity
		go func(aw *alshWorker) {
			defer wg.Done()
			// Keep draining the row queue even after a failure so the
			// pool always terminates; later samples still run (and may
			// fail independently), but the batch is already doomed.
			for i := range rows {
				sp := tr.BeginTID("alsh", "sample", tid)
				if err := p.runSample(aw, x, y, i, results); err != nil {
					p.recordErr(err)
				}
				sp.End()
			}
		}(p.workers[w])
	}
	wg.Wait()
	if err := p.LastErr(); err != nil {
		return 0, err
	}
	c.lap(&p.timing.Forward) // parallel compute phase

	// Merge: output layer densely, hidden layers by column union. All
	// merge scratch is owned by p and reused across batches.
	var loss float64
	outW, outB := p.outWBuf, p.outBBuf
	outW.Zero()
	for i := range outB {
		outB[i] = 0
	}
	for _, r := range results {
		loss += r.loss
		tensor.AddInPlace(outW, r.outW)
		tensor.Axpy(1, r.outB, outB)
	}
	inv := 1 / float64(x.Rows)
	outW.Scale(inv)
	tensor.ScaleVec(inv, outB)
	p.optim.Step(last, layers[last].W, layers[last].B, nn.Grads{W: outW, B: outB})

	for li := 0; li < last; li++ {
		l := layers[li]
		if p.grads[li].W == nil {
			p.grads[li] = l.ZeroGrads()
		}
		union := &p.merged
		for ri := range results {
			r := &results[ri]
			// Record per-sample active-set sizes here in the merge phase:
			// it is single-threaded, so the observation order is stable.
			p.actDists[li].Observe(int64(len(r.cols[li])))
			union.add(r.cols[li])
			// Accumulate the compact gradient columns into the full-width
			// scratch.
			for ci, col := range r.cols[li] {
				for row := 0; row < l.FanIn(); row++ {
					p.grads[li].W.Data[row*l.FanOut()+col] += inv * r.gradW[li].Data[row*r.gradW[li].Cols+ci]
				}
				p.grads[li].B[col] += inv * r.gradB[li][ci]
			}
		}
		p.optim.StepCols(li, l.W, l.B, p.grads[li], union.cols)
		clearGradCols(p.grads[li], union.cols)
		p.touched[li].add(union.cols)
		union.reset()
	}
	c.lap(&p.timing.Backward)

	p.maintain(x.Rows)
	c.lap(&p.timing.Maintain)
	return loss * inv, nil
}

// processSample runs one sample's sparse forward/backward on read-only
// weights and returns its sparse gradients.
func (p *ParallelALSH) processSample(aw *alshWorker, row []float64, label int) workerResult {
	layers := p.net.Layers
	last := len(layers) - 1
	x := tensor.FromSlice(1, len(row), row)

	res := workerResult{
		cols:  make([][]int, last),
		gradW: make([]*tensor.Matrix, last),
		gradB: make([][]float64, last),
	}

	// Forward through per-sample active sets; the exact output layer
	// must not touch the shared layer caches, which sampledForward
	// guarantees.
	acts := sampledForward(layers, x, aw.states, p, aw.g, &aw.ws)
	for i := 0; i < last; i++ {
		res.cols[i] = aw.states[i].cols
	}
	logits, act := acts[last], x
	if last > 0 {
		act = acts[last-1]
	}
	res.loss = p.net.Head.Loss(logits, []int{label})

	// Backward.
	delta := p.net.Head.Delta(logits, []int{label})
	res.outW = tensor.MatMulTransA(act, delta)
	res.outB = append([]float64(nil), delta.RowView(0)...)
	dA := tensor.MatMulTransB(delta, layers[last].W)
	for i := last - 1; i >= 0; i-- {
		st := aw.states[i]
		gw, gb, dPrev := backwardActive(layers[i], dA, st, 1)
		res.gradW[i] = gw
		res.gradB[i] = gb
		dA = dPrev
	}
	return res
}

// padActive copies cols, pads it with distinct random nodes up to the
// floor, and truncates at the cap — the shared active-set policy of the
// column samplers (Dropout pads to a floor of one node, no cap).
func padActive(cols []int, n, minActive int, maxFrac float64, g *rng.RNG) []int {
	out := append([]int(nil), cols...)
	if maxFrac > 0 {
		limit := int(maxFrac * float64(n))
		if limit < minActive {
			limit = minActive
		}
		if len(out) > limit {
			g.Shuffle(out)
			out = out[:limit]
		}
	}
	for len(out) < minActive {
		j := g.IntN(n)
		dup := false
		for _, c := range out {
			if c == j {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, j)
		}
	}
	return out
}
