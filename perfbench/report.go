package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// metricSpec is a metric of the manifest, BENCHMARK.json.
type metricSpec struct{ name, unit string }

// The manifest's metrics. Every workload reports every one of them, so
// each is defined for every workload in terms of the workload's
// operation: one training epoch (train-*), one /predict request
// (serve-predict) or one data-parallel step (dist-step).
var (
	// endToEnd is what a --trace 0 run reports.
	// op_ms is the median wall time of one operation; on train-* the
	// geometric mean of each method's median epoch.
	endToEnd = []metricSpec{
		{"op_ms", "ms"},
		{"setup_s", "s"}, // median of setupRepeats set-ups
	}
	// perLayer is what a --trace 1 run reports. forward_ms.L<i> is
	// layer i's forward time per operation (inference on serve-predict).
	perLayer = []metricSpec{
		{"compute_ms", "ms"},  // network compute per operation
		{"overhead_ms", "ms"}, // the rest of the operation
		{"forward_ms.L0", "ms"},
		{"forward_ms.L1", "ms"},
		{"forward_ms.L2", "ms"},
		{"forward_ms.L3", "ms"},
		{"allocs_per_op", "count"},
		{"alloc_bytes_per_op", "B"},
		{"trace.overhead_pct", "%"},
	}
)

// report collects a run's metrics and its correctness tally: every
// checked operation counts as attempted, every violation as failed.
// Metrics are the manifest's; details are the workload's own figures,
// printed as a table above the result line.
type report struct {
	metrics   []metric
	details   []metric
	attempted int
	failed    int
	tables    []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) detail(name, unit string, v float64) {
	r.details = append(r.details, metric{name, unit, v})
}

// check counts one checked operation and reports it on standard error
// when it fails.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// minAccuracy is the test accuracy, three times chance on ten classes,
// that a network trained by the standard method must reach for its
// training to count as correct. Test accuracy is not a gated metric:
// after the few hundred batch-1 steps train-stochastic affords it
// varies too much across seeds for any bound (interquartile range over
// median 0.22 over ten seeds); the tables print it.
const minAccuracy = 0.3

// checkAccuracy counts a trained network's test accuracy as one checked
// operation that fails below minAccuracy.
func (r *report) checkAccuracy(what string, acc float64) {
	r.check(acc >= minAccuracy, "%s: test accuracy %.3f below %.1f", what, acc, minAccuracy)
}

// fail counts n failed operations out of n attempted.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.attempted += n
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: %d failed: "+format+"\n", append([]any{n}, args...)...)
}

// write prints the human-readable tables, then the result object as the
// last line of w. It fails, printing no result, unless the metrics are
// exactly the manifest's for the mode, each in its unit.
func (r *report) write(w io.Writer, workload string, trace bool) error {
	kind, want := "end-to-end", endToEnd
	if trace {
		kind, want = "per-layer", perLayer
	}
	vals := map[string]map[string]any{}
	for _, m := range r.metrics {
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if len(vals) != len(r.metrics) || len(vals) != len(want) {
		return fmt.Errorf("%s run reported %d metrics, the manifest has %d", kind, len(r.metrics), len(want))
	}
	for _, s := range want {
		v, ok := vals[s.name]
		if !ok || v["unit"] != s.unit {
			return fmt.Errorf("%s run did not report %s in %s", kind, s.name, s.unit)
		}
	}
	for _, t := range r.tables {
		fmt.Fprintln(w, t)
	}
	if len(r.details) > 0 {
		fmt.Fprintf(w, "workload details, %s:\n", workload)
		for _, m := range r.details {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(w, "%s metrics, workload %s:\n", kind, workload)
	for _, s := range want {
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", s.name, vals[s.name]["value"], s.unit)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// hostStamp describes the machine and the build: a build-flag
// difference (GOAMD64=v1 runs the packed kernels ~2.5x slower) must
// never read as a regression.
func hostStamp() string {
	rev, goamd64, modified := "unknown", "unset", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			case "GOAMD64":
				goamd64 = s.Value
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s GOAMD64=%s rev=%s%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), goamd64, rev, modified,
		runtime.GOOS, runtime.GOARCH)
}

// geomean returns the geometric mean of positive xs (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// table renders rows as a fixed-width text table.
func table(title string, header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return strings.TrimRight(b.String(), "\n")
}
