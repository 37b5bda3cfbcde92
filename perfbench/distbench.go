package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/dist"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/train"
)

// The dist-step workload: data-parallel Standard+momentum on a
// 784→3×256→10 network at batch 64, two gradient shards, two worker
// processes, with the coordinator as the trainer's Stepper. The
// in-process workers=0 run on the same configuration is the reference
// the distributed weights must match byte for byte. Only this workload
// exercises dist framing, exchange and the all-reduce.

const (
	distHidden        = 256
	distBatch         = 64
	distShards        = 2
	distWorkers       = 2
	distStepsPerEpoch = 35
	// distSecondsPerEpoch is the cost of one epoch of the distributed
	// run plus one of the reference on a 2-CPU host; the epoch count is
	// --seconds divided by it.
	distSecondsPerEpoch = 5.0
)

// distFailureCounters are the coordinator counters that each count a
// failed operation: a retry, timeout, aborted step, respawn or diverged
// replica never happens on a healthy run.
var distFailureCounters = []string{
	"dist.retries", "dist.timeouts", "dist.step_aborts", "dist.respawns", "dist.replica_divergence",
}

func distData(seed uint64) dataset.Options {
	return dataset.Options{Seed: seed, MaxTrain: distBatch * distStepsPerEpoch, MaxTest: 500, MaxVal: 1}
}

// distRun is one training run through a coordinator.
type distRun struct {
	stepper  *timedStepper
	reg      *obs.Registry
	setup    time.Duration // start through the end of the first step
	crc      uint32
	failures map[string]int64
	// relayAfterFirst is the relay byte count when the first step (with
	// spawn and sync) had ended.
	relayAfterFirst int64
	// testAcc is the final network's accuracy on the test split.
	testAcc float64
	// mallocs and allocBytes are the heap allocations of this process
	// from the end of the first step to the end of the last.
	mallocs, allocBytes uint64
}

// samplesPerSecond is the steady-state rate: one batch over the median
// interval between the ends of consecutive steps. The first step, which
// carries spawn and the initial sync, only opens the first interval;
// the median keeps the evaluation at epoch ends and a stretch of host
// contention from setting the rate.
func (d *distRun) samplesPerSecond() float64 {
	ends := d.stepper.ends
	gaps := make([]float64, 0, len(ends))
	for i := 1; i < len(ends); i++ {
		gaps = append(gaps, ends[i].Sub(ends[i-1]).Seconds())
	}
	return distBatch / median(gaps)
}

// runDist sets up and trains with the given worker count. With
// firstStepOnly it stops after the first step, which is how set-up is
// measured repeatedly; with rl set, workers join through the relay.
func runDist(seed uint64, workers, epochs int, rl *relay, firstStepOnly bool) (*distRun, error) {
	t0 := time.Now()
	data := distData(seed)
	ds, err := dataset.Generate("mnist", data)
	if err != nil {
		return nil, err
	}
	net0, err := nn.NewNetwork(nn.Uniform(784, distHidden, 3, 10), rng.New(seed^0xd157))
	if err != nil {
		return nil, err
	}
	m, err := core.New("standard", net0, opt.NewMomentum(0.01, 0.9), core.DefaultOptions(seed))
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	o := dist.Options{Workers: workers, Shards: distShards, Data: data, Registry: reg, Seed: seed}
	if rl != nil {
		// exec keeps the last of duplicate environment keys, so this
		// points spawned workers at the relay instead of the listener.
		o.SpawnEnv = []string{dist.EnvJoin + "=" + rl.addr()}
	}
	coord, err := dist.NewCoordinator(m, ds, distBatch, o)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	if rl != nil {
		rl.setTarget(coord.Addr())
	}
	run := &distRun{reg: reg, failures: map[string]int64{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ms0, ms1 runtime.MemStats
	run.stepper = &timedStepper{inner: coord, onStep: func(n int) {
		if n == epochs*distStepsPerEpoch {
			runtime.ReadMemStats(&ms1)
			run.mallocs, run.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		}
		if n != 1 {
			return
		}
		if firstStepOnly {
			cancel()
		}
		if rl != nil {
			run.relayAfterFirst = rl.bytes.Load()
		}
		runtime.ReadMemStats(&ms0)
	}}
	tr, err := train.New(m, ds, train.Config{
		Epochs: epochs, BatchSize: distBatch, Seed: seed + 7, MaxEvalSamples: 100, Stepper: run.stepper,
	})
	if err != nil {
		return nil, err
	}
	hist, err := tr.RunContext(ctx)
	if firstStepOnly && errors.Is(err, context.Canceled) {
		err = nil
	}
	if err != nil {
		return nil, fmt.Errorf("workers=%d: %w", workers, err)
	}
	if len(run.stepper.ends) == 0 {
		return nil, fmt.Errorf("workers=%d: no step ran", workers)
	}
	run.setup = run.stepper.ends[0].Sub(t0)
	if !firstStepOnly && (hist.Diverged || len(hist.Epochs) != epochs) {
		return nil, fmt.Errorf("workers=%d: run ended after %d of %d epochs (diverged=%v)", workers, len(hist.Epochs), epochs, hist.Diverged)
	}
	for _, name := range distFailureCounters {
		run.failures[name] = reg.Counter(name).Value()
	}
	var blob bytes.Buffer
	if err := m.Net().Save(&blob); err != nil {
		return nil, err
	}
	run.crc = crc32.ChecksumIEEE(blob.Bytes())
	run.testAcc = core.EvalAccuracy(m, ds.Test.X, ds.Test.Y)
	return run, nil
}

// checkDist counts every step as an operation and every failure
// counter increment as a failed one, and checks the final weights
// against the in-process reference.
func checkDist(r *report, label string, run, ref *distRun) {
	r.attempted += len(run.stepper.steps)
	for _, name := range distFailureCounters {
		r.fail(int(run.failures[name]), "%s: %s", label, name)
	}
	r.check(run.crc == ref.crc, "%s: final weights CRC %08x, workers=0 reference %08x", label, run.crc, ref.crc)
}

func distStep(p params, r *report) error {
	epochs := max(2, int(math.Round(p.seconds/distSecondsPerEpoch)))
	var setupS []float64
	if !p.trace {
		for i := 0; i < setupRepeats; i++ {
			run, err := runDist(p.seed, distWorkers, epochs, nil, true)
			if err != nil {
				return err
			}
			setupS = append(setupS, run.setup.Seconds())
		}
	}
	run, err := runDist(p.seed, distWorkers, epochs, nil, false)
	if err != nil {
		return err
	}
	// In the traced pass the reference runs traced too: its steps are
	// the local compute the traced distributed steps are split against,
	// and its forward spans the per-layer forward time.
	var tracer *trace.Tracer
	if p.trace {
		tracer = trace.New(traceRing)
		trace.SetActive(tracer)
	}
	ref, err := runDist(p.seed, 0, epochs, nil, false)
	trace.SetActive(nil)
	if err != nil {
		return err
	}
	fmt.Printf("dist: workers=%d shards=%d batch=%d epochs=%d steps=%d\n",
		distWorkers, distShards, distBatch, epochs, len(run.stepper.steps))
	checkDist(r, "workers=2", run, ref)
	r.checkAccuracy("workers=2", run.testAcc)
	sps := run.samplesPerSecond()
	if !p.trace {
		r.add("op_ms", "ms", 1000*distBatch/sps)
		r.add("setup_s", "s", median(setupS))
		r.detail("dist_samples_per_s", "1/s", sps)
		r.detail("test_acc", "fraction", run.testAcc)
		return nil
	}
	r.check(tracer.Dropped() == 0, "dist reference: tracer dropped %d spans", tracer.Dropped())
	refSpans := sumSpans(tracer)

	rl, err := newRelay()
	if err != nil {
		return err
	}
	tracer = trace.New(traceRing)
	trace.SetActive(tracer)
	traced, err := runDist(p.seed, distWorkers, epochs, rl, false)
	trace.SetActive(nil)
	rl.close()
	if err != nil {
		return err
	}
	checkDist(r, "traced workers=2", traced, ref)
	r.check(tracer.Dropped() == 0, "dist: tracer dropped %d spans", tracer.Dropped())
	steady := func(d *distRun) []float64 { return durationsMS(d.stepper.steps[1:]) }
	stepP50 := quantile(steady(traced), 0.5)
	localP50 := quantile(steady(ref), 0.5)
	r.detail("dist.step_ms.p50", "ms", stepP50)
	r.detail("dist.step_ms.p99", "ms", quantile(steady(traced), 0.99))
	r.detail("dist.local_step_ms.p50", "ms", localP50)
	r.detail("dist.exchange_ms.p50", "ms", stepP50-localP50)
	r.detail("dist.reduce_ms.p50", "ms", traced.reg.Distribution("dist.reduce_ns").Snapshot().P50/1e6)
	steps := len(traced.stepper.steps) - 1
	r.detail("dist.bytes_per_step", "B", float64(rl.bytes.Load()-traced.relayAfterFirst)/float64(max(steps, 1)))
	r.add("trace.overhead_pct", "%", 100*(sps/traced.samplesPerSecond()-1))

	// Per step: compute is the in-process reference step, overhead what
	// the distributed step adds to it (framing, exchange, all-reduce),
	// and the allocations are the coordinator process's.
	r.add("compute_ms", "ms", localP50)
	r.add("overhead_ms", "ms", stepP50-localP50)
	refSteps := float64(len(ref.stepper.steps))
	for l, d := range refSpans.forward {
		r.add(fmt.Sprintf("forward_ms.L%d", l), "ms", millis(d)/refSteps)
	}
	r.add("allocs_per_op", "count", float64(traced.mallocs)/float64(max(steps, 1)))
	r.add("alloc_bytes_per_op", "B", float64(traced.allocBytes)/float64(max(steps, 1)))
	return nil
}

// relay is a byte-counting loopback TCP relay: workers dial it, and it
// forwards each connection to the coordinator, counting bytes both ways.
type relay struct {
	ln     net.Listener
	target atomic.Value // string
	bytes  atomic.Int64
	wg     sync.WaitGroup
}

func newRelay() (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl := &relay{ln: ln}
	rl.target.Store("")
	rl.wg.Add(1)
	//lint:ignore raw-goroutine accept loop for the relay's lifetime; close() ends it and waits on the WaitGroup, so it cannot be a bounded pool task
	go rl.accept()
	return rl, nil
}

func (rl *relay) addr() string          { return rl.ln.Addr().String() }
func (rl *relay) setTarget(addr string) { rl.target.Store(addr) }

func (rl *relay) accept() {
	defer rl.wg.Done()
	for {
		c, err := rl.ln.Accept()
		if err != nil {
			return
		}
		rl.wg.Add(1)
		//lint:ignore raw-goroutine one forwarder per worker connection, blocked on socket reads until the peer closes; joined by close() through the WaitGroup
		go rl.pipe(c)
	}
}

// pipe forwards one connection until either side closes.
func (rl *relay) pipe(c net.Conn) {
	defer rl.wg.Done()
	d, err := net.Dial("tcp", rl.target.Load().(string))
	if err != nil {
		c.Close()
		return
	}
	cp := func(dst, src net.Conn) {
		_, _ = io.Copy(countingWriter{dst, &rl.bytes}, src)
		dst.Close()
		src.Close()
	}
	upstream := make(chan struct{})
	//lint:ignore raw-goroutine the worker-to-coordinator half of one forwarded connection, blocked on socket reads; awaited on the upstream channel below
	go func() {
		defer close(upstream)
		cp(d, c)
	}()
	cp(c, d)
	<-upstream
}

// close stops accepting and waits for every forwarded connection to end.
func (rl *relay) close() {
	rl.ln.Close()
	rl.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
