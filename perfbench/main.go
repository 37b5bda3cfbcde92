// Command perfbench is the repository's benchmark. It drives the public
// APIs of samplednn from outside — train.New(...).Run, core.New,
// serve.NewServer(...).Handler(), dist.NewCoordinator as a
// train.Config.Stepper, nn.Network.Predict — on one workload per run:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// span tracer off and no timing wrappers installed. With --trace 1 it
// runs the same work twice, once untraced and once with the timing
// wrappers of wrap.go and the program's tracer installed, and prints the
// per-layer metrics, the tracing overhead, and the parts-sum-to-whole
// checks. Every workload reports the same metrics, the manifest's (see
// endToEnd and perLayer), defined in terms of its operation: one
// training epoch, one /predict request or one data-parallel step. Its
// own figures (per-method epochs, latency tails, span sums by layer of
// the program) are printed as tables above the result. The last line of
// standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
// any correctness check failed and 2 on a usage or setup error.
//
// Every input — the synthetic MNIST-shaped dataset, initial weights,
// request bodies — is generated from --seed. Work is sized from
// --seconds so that a run measures for about that long on a 2-CPU host;
// the same seed and seconds give the same inputs and the same work.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"samplednn/internal/dist"
)

// scratchRoot holds the files a run writes (checkpoints). It is relative
// to the working directory, the root of the checkout the benchmark runs
// in.
const scratchRoot = ".bench_build"

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // per-run scratch directory under scratchRoot
}

type workload func(p params, r *report) error

var workloads = map[string]workload{
	"train-minibatch":  trainMinibatch,
	"train-stochastic": trainStochastic,
	"serve-predict":    servePredict,
	"dist-step":        distStep,
}

func main() {
	// The dist coordinator spawns its workers by re-executing this
	// binary; they must serve the worker protocol, not the benchmark.
	if dist.IsWorkerProcess() {
		os.Exit(dist.WorkerMain())
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	secs := fs.Float64("seconds", 20, "measurement length in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	fmt.Println(hostStamp())
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *secs, *traced)
	r := &report{}
	// The traced pass runs the work twice, untraced and traced, so each
	// gets half of the seconds and the run measures for about as long
	// as an untraced one.
	p := params{seed: *seed, seconds: *secs, trace: *traced == 1, dir: dir}
	if p.trace {
		p.seconds /= 2
	}
	if err := w(p, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if err := r.write(os.Stdout, *name, *traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if r.failed > 0 || r.attempted == 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
