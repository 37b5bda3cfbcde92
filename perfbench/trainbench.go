package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/pool"
	"samplednn/internal/rng"
	"samplednn/internal/train"
)

// trainSpec is one training workload: the paper's 784→3×1000→10 MLP on
// the synthetic MNIST-shaped dataset at one batch size.
type trainSpec struct {
	batch   int
	methods []string
	// train is the number of training samples in one epoch; test the
	// test samples behind test_acc; evalCap the trainer's per-epoch
	// evaluation cap, which is part of the measured epoch.
	train, test, evalCap int
	// secondsPerEpoch is the measured cost of one epoch of every method
	// on a 2-CPU host; the epoch count is --seconds divided by it, and
	// at least minEpochs.
	secondsPerEpoch float64
}

const minEpochs = 3

// Paper Table 4: batch 20. Dense packed GEMM and MC's column-norm
// sampling carry this workload; LSH does no work here.
var minibatchSpec = trainSpec{
	batch:   20,
	methods: []string{"standard", "dropout", "adaptive-dropout", "mc"},
	train:   100, test: 1000, evalCap: 50,
	secondsPerEpoch: 2.2,
}

// Paper Table 3: batch 1. GEMV-shaped kernels, per-step allocation,
// sparse optimizer updates and the LSH index carry this workload.
// Dropout is left out: at keep 0.05 and batch 1 it diverges to NaN
// within three epochs at lr 1e-3, so its epoch would be undefined.
var stochasticSpec = trainSpec{
	batch:   1,
	methods: []string{"standard", "adaptive-dropout", "alsh", "mc"},
	train:   25, test: 1000, evalCap: 50,
	secondsPerEpoch: 3.3,
}

func trainMinibatch(p params, r *report) error  { return runTrain(minibatchSpec, p, r) }
func trainStochastic(p params, r *report) error { return runTrain(stochasticSpec, p, r) }

// accMethod is the method whose test accuracy must reach minAccuracy.
// The others stay near chance or reach a few tens of percent in the
// epochs a run affords; their accuracy is printed.
const accMethod = "standard"

// setupRepeats is how many times a run builds its set-up from scratch;
// setup_s is the median.
const setupRepeats = 7

// Hidden width and depth are the paper's (§8.4).
const (
	hiddenUnits  = 1000
	hiddenLayers = 3
)

// newOptimizer returns the optimizer a method trains with. ALSH uses
// Adam at the paper's rate (§8.4); the others plain SGD, each at a rate
// that trains without divergence at the workload's batch size. Dropout
// at keep 0.05 rescales activations by 20 per layer and explodes at any
// larger rate; MC-S uses the paper's lowered rate (§9.3).
func newOptimizer(method string, batch int) opt.Optimizer {
	lr := map[string]float64{
		"standard": 0.05, "dropout": 3e-4, "adaptive-dropout": 0.1, "mc": 5e-3,
	}[method]
	if batch == 1 {
		lr = map[string]float64{"standard": 0.01, "adaptive-dropout": 0.01, "mc": 1e-3}[method]
	}
	if method == "alsh" {
		return opt.NewAdam(1e-3)
	}
	return opt.NewSGD(lr)
}

// buildMethod creates a method over a freshly initialised network. The
// optimizer is wrapped in a timedOptimizer when timed is set; the
// initial weights depend only on the seed.
func buildMethod(name string, spec trainSpec, seed uint64, timed bool) (core.Method, *timedOptimizer, error) {
	net, err := nn.NewNetwork(nn.Uniform(784, hiddenUnits, hiddenLayers, 10), rng.New(seed^0x5eed))
	if err != nil {
		return nil, nil, err
	}
	o := newOptimizer(name, spec.batch)
	var to *timedOptimizer
	if timed {
		if to, err = newTimedOptimizer(o); err != nil {
			return nil, nil, err
		}
		o = to
	}
	opts := core.DefaultOptions(seed)
	opts.ALSH = core.ALSHConfig{Params: lsh.DefaultParams(), MinActive: 10}
	m, err := core.New(name, net, o, opts)
	return m, to, err
}

// trainSetup is everything a training run builds before its first step.
// Every epoch trains on its own spec.train samples of the generated
// training split, as successive parts of one long epoch would, so that
// test_acc reflects every sample seen rather than one small set
// repeated.
type trainSetup struct {
	epochs  []*dataset.Dataset
	test    *dataset.Split
	methods []core.Method
}

func newTrainSetup(spec trainSpec, seed uint64, epochs int) (*trainSetup, error) {
	ds, err := dataset.Generate("mnist", dataset.Options{Seed: seed, MaxTrain: spec.train * epochs, MaxTest: spec.test, MaxVal: 1})
	if err != nil {
		return nil, err
	}
	if ds.Train.Len() != spec.train*epochs {
		return nil, fmt.Errorf("generated %d training samples, want %d", ds.Train.Len(), spec.train*epochs)
	}
	s := &trainSetup{test: ds.Test}
	for e := 0; e < epochs; e++ {
		idx := make([]int, spec.train)
		for i := range idx {
			idx[i] = e*spec.train + i
		}
		part := *ds
		part.Train = ds.Train.Subset(idx)
		s.epochs = append(s.epochs, &part)
	}
	for _, name := range spec.methods {
		m, _, err := buildMethod(name, spec, seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s.methods = append(s.methods, m)
	}
	return s, nil
}

// epochSample is what one measured epoch yields.
type epochSample struct {
	wall   time.Duration
	timing core.Timing
	// Traced pass only. allocs and allocBytes are counted around the
	// wrapped Method.Step, epochAllocs and epochBytes over the epoch.
	step, opt               time.Duration
	steps                   int64
	allocs, allocBytes      uint64
	epochAllocs, epochBytes uint64
	spans                   spanSums
	activeFrac              float64
}

// methodRun is one method's pass over the workload's epochs; tm and to
// are its timing wrappers in the traced pass, nil otherwise.
type methodRun struct {
	name    string
	m       core.Method
	tm      *timedMethod
	to      *timedOptimizer
	epochs  []epochSample
	testAcc float64
	crc     uint32
}

func (m *methodRun) med(f func(e epochSample) float64) float64 {
	xs := make([]float64, len(m.epochs))
	for i, e := range m.epochs {
		xs[i] = f(e)
	}
	return median(xs)
}

// mean is for periodic work such as hash maintenance, which lands in
// some epochs and not others, so its median would hide it.
func (m *methodRun) mean(f func(e epochSample) float64) float64 {
	var sum float64
	for _, e := range m.epochs {
		sum += f(e)
	}
	return sum / float64(max(len(m.epochs), 1))
}

func runTrain(spec trainSpec, p params, r *report) error {
	epochs := max(minEpochs, int(math.Round(p.seconds/spec.secondsPerEpoch)))
	var setup *trainSetup
	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := newTrainSetup(spec, p.seed, epochs)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setup = s
	}
	fmt.Printf("train: batch=%d samples=%d epochs=%d evalCap=%d test=%d\n",
		spec.batch, spec.train, epochs, spec.evalCap, spec.test)

	plain := make([]*methodRun, len(spec.methods))
	for i, m := range setup.methods {
		plain[i] = &methodRun{name: m.Name(), m: m}
	}
	gcs := trainAll(plain, setup, spec, p.seed, r)
	if !p.trace {
		// op_ms is the geometric mean of the methods' median epochs, so
		// a change to any one method moves it by the same share of that
		// method's change, however short its epoch.
		var rows [][]string
		var walls []float64
		for _, mr := range plain {
			wall := mr.med(func(e epochSample) float64 { return e.wall.Seconds() })
			walls = append(walls, wall)
			r.detail("epoch_s."+mr.name, "s", wall)
			rows = append(rows, []string{mr.name, f4(wall), fmt.Sprintf("%.3f", mr.testAcc)})
		}
		r.tables = append(r.tables, table(fmt.Sprintf("median epoch seconds, and test accuracy on %d samples after %d epochs:", spec.test, epochs),
			[]string{"method", "epoch_s", "test_acc"}, rows))
		r.add("op_ms", "ms", 1000*geomean(walls))
		r.add("setup_s", "s", median(setupS))
		return nil
	}

	// Only the untraced results are needed from here on; dropping the
	// networks keeps the traced pass's heap the size of the untraced one.
	setup.methods = nil
	for _, mr := range plain {
		mr.m = nil
	}
	traced := make([]*methodRun, len(spec.methods))
	for i, name := range spec.methods {
		// The tracer is on while the method is built, so the ALSH index
		// build (part of set-up) shows as lsh rebuild spans.
		buildTrace := trace.New(traceRing)
		trace.SetActive(buildTrace)
		m, to, err := buildMethod(name, spec, p.seed, true)
		trace.SetActive(nil)
		if err != nil {
			return err
		}
		if name == "alsh" {
			r.detail("lsh.rebuild_s", "s", sumSpans(buildTrace).lshRebuild.Seconds())
		}
		wm, tm, err := wrapMethod(m)
		if err != nil {
			return err
		}
		traced[i] = &methodRun{name: name, m: wm, tm: tm, to: to}
	}
	submitted0, inline0 := pool.Stats()
	trainAll(traced, setup, spec, p.seed, r)
	submitted1, inline1 := pool.Stats()
	var steps int64
	for i, mr := range traced {
		for _, e := range mr.epochs {
			steps += e.steps
		}
		r.check(mr.crc == plain[i].crc, "%s: traced run weights CRC %08x, untraced %08x", mr.name, mr.crc, plain[i].crc)
	}
	reportTrainLayers(spec, plain, traced, r)
	r.detail("train.gc_cycles", "count", float64(gcs))
	tasks := float64(submitted1 - submitted0 + inline1 - inline0)
	r.detail("pool.tasks_per_step", "count", tasks/float64(max(steps, 1)))
	r.detail("pool.inline_frac", "fraction", float64(inline1-inline0)/math.Max(tasks, 1))
	return nil
}

// traceRing is the span ring of each traced epoch or rung, several
// times the largest count of spans one records, so that none is dropped
// (checked); a larger ring would only add to the collector's work.
const traceRing = trace.DefaultCapacity

// trainAll trains every method for the given epochs, interleaving them
// epoch by epoch so that a slow stretch of the host lands on one epoch
// of each method rather than on every epoch of one; each method's
// median then shrugs it off. It returns the GC cycles the epoch loop
// took.
func trainAll(runs []*methodRun, setup *trainSetup, spec trainSpec, seed uint64, r *report) uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	for e, ds := range setup.epochs {
		for _, mr := range runs {
			mr.epoch(e+1, ds, spec, seed, r)
		}
	}
	runtime.ReadMemStats(&ms)
	for _, mr := range runs {
		mr.testAcc = core.EvalAccuracy(mr.m, setup.test.X, setup.test.Y)
		if mr.name == accMethod {
			r.checkAccuracy(mr.name, mr.testAcc)
		} else {
			r.check(mr.testAcc > 0, "%s: test accuracy is zero", mr.name)
		}
		var blob bytes.Buffer
		if err := mr.m.Net().Save(&blob); err != nil {
			r.check(false, "%s: saving weights: %v", mr.name, err)
		}
		mr.crc = crc32.ChecksumIEEE(blob.Bytes())
	}
	return ms.NumGC - gc0
}

// epoch runs one epoch as its own train.Run, so its wall time (steps
// plus the trainer's capped evaluation) is timed from outside, and
// checks that it ended with a finite loss. A traced method run (tm set)
// also records the tracer's spans and the wrappers' counters.
func (mr *methodRun) epoch(e int, ds *dataset.Dataset, spec trainSpec, seed uint64, r *report) {
	tr, err := train.New(mr.m, ds, train.Config{
		Epochs: 1, BatchSize: spec.batch, Seed: seed*1000 + uint64(e), MaxEvalSamples: spec.evalCap,
	})
	if err != nil {
		r.check(false, "%s: epoch %d: %v", mr.name, e, err)
		return
	}
	var tracer *trace.Tracer
	if mr.tm != nil {
		tracer = trace.New(traceRing)
		trace.SetActive(tracer)
	}
	// Every epoch starts from a collected heap, so the collector's
	// cycles fall at the same points of each epoch instead of wherever
	// the previous epoch left its allocation budget.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	if mr.tm != nil {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	hist, err := tr.Run()
	wall := time.Since(t0)
	trace.SetActive(nil)
	if mr.tm != nil {
		runtime.ReadMemStats(&ms1)
	}
	ok := err == nil && !hist.Diverged && len(hist.Epochs) == 1 &&
		!math.IsNaN(hist.Epochs[0].TrainLoss) && !math.IsInf(hist.Epochs[0].TrainLoss, 0)
	r.check(ok, "%s: epoch %d did not end with a finite loss (err=%v)", mr.name, e, err)
	if !ok {
		return
	}
	s := epochSample{wall: wall, timing: hist.Epochs[0].Timing}
	if mr.tm != nil {
		r.check(tracer.Dropped() == 0, "%s: epoch %d: tracer dropped %d spans", mr.name, e, tracer.Dropped())
		s.spans = sumSpans(tracer)
		st := mr.tm.take()
		s.step, s.steps, s.allocs, s.allocBytes = time.Duration(st.stepNS), st.steps, st.allocs, st.allocBytes
		s.epochAllocs, s.epochBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		s.opt = mr.to.take()
		if sr, ok := mr.m.(core.SamplingReporter); ok {
			s.activeFrac = meanActiveFraction(sr.SamplingSnapshot(), mr.m.Net())
		}
	}
	mr.epochs = append(mr.epochs, s)
}

// meanActiveFraction is the epoch's mean active-set size over the
// hidden layer widths, from the sampling snapshot's distributions.
func meanActiveFraction(s core.SamplingSnapshot, net *nn.Network) float64 {
	if len(s.ActiveSets) == 0 {
		return s.ActiveFraction
	}
	var sum float64
	for i, d := range s.ActiveSets {
		sum += d.Mean / float64(net.Layers[i].FanOut())
	}
	return sum / float64(len(s.ActiveSets))
}

// Tolerances of the parts-sum-to-whole checks. The trainer's own work
// between steps (batch gathering, bookkeeping) and the evaluation of a
// method with its own predictor (adaptive-dropout's expectation network
// has no infer spans) are the overhead; it must be non-negative up to
// clock granularity and stay below overheadMaxFrac of the epoch. The
// standard method's per-layer forward spans must sum to Timing().Forward,
// and its backward spans plus optimizer time to Timing().Backward,
// within layerSumTol (the gap is the loss head and span bookkeeping).
const (
	overheadMaxFrac = 0.30
	overheadSlack   = time.Millisecond
	layerSumTol     = 0.05
)

func reportTrainLayers(spec trainSpec, plain, traced []*methodRun, r *report) {
	var rows [][]string
	var plainWall, tracedWall, inferAll []float64
	// The manifest's per-layer metrics per epoch, one value per method;
	// the reported value is their mean, so the parts add up as the
	// methods' epochs do.
	var compute, overheads, allocs, allocBytes []float64
	for i, mr := range traced {
		name := mr.name
		wall := mr.med(func(e epochSample) float64 { return e.wall.Seconds() })
		step := mr.med(func(e epochSample) float64 { return e.step.Seconds() })
		infer := mr.med(func(e epochSample) float64 { return e.spans.infer.Seconds() })
		fwd := mr.med(func(e epochSample) float64 { return e.timing.Forward.Seconds() })
		bwd := mr.med(func(e epochSample) float64 { return e.timing.Backward.Seconds() })
		mnt := mr.mean(func(e epochSample) float64 { return e.timing.Maintain.Seconds() })
		optS := mr.med(func(e epochSample) float64 { return e.opt.Seconds() })
		overhead := mr.med(func(e epochSample) float64 { return (e.wall - e.step - e.spans.infer).Seconds() })
		for _, e := range mr.epochs {
			inferAll = append(inferAll, e.spans.infer.Seconds())
			over := e.wall - e.step - e.spans.infer
			r.check(over >= -overheadSlack && over.Seconds() <= overheadMaxFrac*e.wall.Seconds(),
				"%s: step %v + infer %v + overhead %v = epoch %v, overhead outside [-%v, %.0f%% of epoch]",
				name, e.step, e.spans.infer, over, e.wall, overheadSlack, 100*overheadMaxFrac)
			if name == "standard" {
				var fs, bs time.Duration
				for l := 0; l < len(e.spans.forward); l++ {
					fs += e.spans.forward[l]
					bs += e.spans.backward[l]
				}
				r.check(within(fs, e.timing.Forward, layerSumTol),
					"standard: per-layer forward spans sum to %v, Timing().Forward %v", fs, e.timing.Forward)
				r.check(within(bs+e.opt, e.timing.Backward, layerSumTol),
					"standard: per-layer backward spans %v + optimizer %v, Timing().Backward %v", bs, e.opt, e.timing.Backward)
			}
		}
		r.detail("core.step_s."+name, "s", step)
		r.detail("core.forward_s."+name, "s", fwd)
		r.detail("core.backward_s."+name, "s", bwd)
		if name == "alsh" {
			r.detail("core.maintain_s.alsh", "s", mnt)
		}
		r.detail("opt.update_s."+name, "s", optS)
		r.detail("train.overhead_s."+name, "s", overhead)
		compute = append(compute, mr.med(func(e epochSample) float64 { return (e.step + e.spans.infer).Seconds() }))
		overheads = append(overheads, overhead)
		allocs = append(allocs, mr.med(func(e epochSample) float64 { return float64(e.epochAllocs) }))
		allocBytes = append(allocBytes, mr.med(func(e epochSample) float64 { return float64(e.epochBytes) }))
		steps := mr.med(func(e epochSample) float64 { return float64(e.steps) })
		r.detail("core.allocs_per_step."+name, "count", mr.med(func(e epochSample) float64 { return float64(e.allocs) })/steps)
		r.detail("core.alloc_bytes_per_step."+name, "B", mr.med(func(e epochSample) float64 { return float64(e.allocBytes) })/steps)
		switch name {
		case "standard":
			for l := 0; l <= hiddenLayers; l++ {
				r.add(fmt.Sprintf("forward_ms.L%d", l), "ms", 1000*mr.med(func(e epochSample) float64 { return e.spans.forward[l].Seconds() }))
			}
			for l := 0; l <= hiddenLayers; l++ {
				r.detail(fmt.Sprintf("nn.backward_s.L%d", l), "s", mr.med(func(e epochSample) float64 { return e.spans.backward[l].Seconds() }))
			}
		case "alsh":
			r.detail("lsh.query_s", "s", mr.med(func(e epochSample) float64 { return e.spans.lshQuery.Seconds() }))
			r.detail("lsh.rehash_s", "s", mr.mean(func(e epochSample) float64 { return e.spans.lshRehash.Seconds() }))
			r.detail("lsh.queries", "count", mr.med(func(e epochSample) float64 { return float64(e.spans.lshQueries) }))
			r.detail("lsh.active_frac", "fraction", mr.med(func(e epochSample) float64 { return e.activeFrac }))
		case "mc":
			r.detail("approxmm.grad_w_s", "s", mr.med(func(e epochSample) float64 { return e.spans.ammGradW.Seconds() }))
			r.detail("approxmm.grad_prev_s", "s", mr.med(func(e epochSample) float64 { return e.spans.ammGradPrev.Seconds() }))
		}
		pw := plain[i].med(func(e epochSample) float64 { return e.wall.Seconds() })
		plainWall = append(plainWall, pw)
		tracedWall = append(tracedWall, wall)
		rows = append(rows, []string{name, f4(pw), f4(fwd), f4(bwd), f4(mnt), f4(optS), f4(step), f4(infer), f4(overhead)})
	}
	r.detail("nn.infer_s", "s", median(inferAll))
	var pw, tw float64
	for i := range plainWall {
		pw += plainWall[i]
		tw += tracedWall[i]
	}
	r.add("trace.overhead_pct", "%", 100*(tw-pw)/pw)
	r.add("compute_ms", "ms", 1000*mean(compute))
	r.add("overhead_ms", "ms", 1000*mean(overheads))
	r.add("allocs_per_op", "count", mean(allocs))
	r.add("alloc_bytes_per_op", "B", mean(allocBytes))
	r.tables = append(r.tables, table(
		fmt.Sprintf("phase split per epoch (paper §9.2/§10.1), batch %d, median seconds; epoch untraced, the rest from the traced pass:", spec.batch),
		[]string{"method", "epoch", "forward", "backward", "maintain", "opt", "step", "infer", "overhead"}, rows))
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// within reports |got-want| <= tol*want.
func within(got, want time.Duration, tol float64) bool {
	return math.Abs(got.Seconds()-want.Seconds()) <= tol*want.Seconds()
}
