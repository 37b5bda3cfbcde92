package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

// rung returns a rung result whose p99 is d.
func rung(rate int, d time.Duration) *rungResult {
	return &rungResult{rate: rate, latency: []time.Duration{d}}
}

func TestGoodputBetweenInterpolatesLogP99(t *testing.T) {
	// p99 at half the limit and at twice the limit: the limit sits half
	// way in log p99, so the estimate is half way between the rates.
	got := goodputBetween(rung(400, serveLimit/2), rung(500, 2*serveLimit))
	if math.Abs(got-450) > 1e-9 {
		t.Errorf("goodput %v, want 450", got)
	}
	// A rung that failed with p99 inside the limit gives no slope.
	if got := goodputBetween(rung(400, serveLimit/2), rung(500, serveLimit)); got != 400 {
		t.Errorf("goodput %v, want the passing rate 400", got)
	}
}

// TestManifestNamesReportedMetrics keeps BENCHMARK.json and the metrics
// the benchmark reports in step: names, units and order.
func TestManifestNamesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		manifest []struct{ Name, Unit string }
		reported []metricSpec
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		var got, want []string
		for _, s := range c.manifest {
			got = append(got, s.Name+" "+s.Unit)
		}
		for _, s := range c.reported {
			want = append(want, s.name+" "+s.unit)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: manifest %v, benchmark reports %v", c.kind, got, want)
		}
	}
}

// TestWriteRefusesIncompleteMetrics checks that a run missing a
// manifest metric prints no result line.
func TestWriteRefusesIncompleteMetrics(t *testing.T) {
	r := &report{attempted: 1}
	r.add("op_ms", "ms", 1)
	var out strings.Builder
	if err := r.write(&out, "w", false); err == nil || out.Len() != 0 {
		t.Errorf("write with setup_s missing: err %v, output %q", err, out.String())
	}
	r.add("setup_s", "s", 0.5)
	if err := r.write(&out, "w", false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Errorf("result line %q: %+v, %v", lines[len(lines)-1], res, err)
	}
}
