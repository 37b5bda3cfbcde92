package core

import (
	"math"
	"testing"

	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// separableTask builds a small, clearly separable classification problem.
func separableTask(seed uint64, n, dim, classes int) (*tensor.Matrix, []int) {
	g := rng.New(seed)
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		row := x.RowView(i)
		g.GaussianSlice(row, 0, 0.25)
		row[c%dim] += 2.5
	}
	return x, y
}

// mlp builds a 2-hidden-layer test network.
func mlp(t *testing.T, seed uint64, inputs, units, outputs int) *nn.Network {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(inputs, units, 2, outputs), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func trainAndEval(t *testing.T, m Method, x *tensor.Matrix, y []int, steps int, batch int) float64 {
	t.Helper()
	g := rng.New(999)
	n := x.Rows
	bx := tensor.New(batch, x.Cols)
	by := make([]int, batch)
	for s := 0; s < steps; s++ {
		for i := 0; i < batch; i++ {
			j := g.IntN(n)
			copy(bx.RowView(i), x.RowView(j))
			by[i] = y[j]
		}
		loss := m.Step(bx, by)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("%s: loss diverged at step %d: %v", m.Name(), s, loss)
		}
	}
	return EvalAccuracy(m, x, y)
}

func TestStandardLearnsSeparableTask(t *testing.T) {
	x, y := separableTask(1, 60, 8, 4)
	net := mlp(t, 2, 8, 32, 4)
	m := NewStandard(net, opt.NewSGD(0.3))
	if acc := trainAndEval(t, m, x, y, 300, 10); acc < 0.95 {
		t.Fatalf("standard accuracy %v", acc)
	}
	if m.Axis() != AxisNone || m.Name() != "standard" {
		t.Fatal("identity accessors wrong")
	}
}

func TestDropoutLearnsWithModerateKeep(t *testing.T) {
	x, y := separableTask(3, 60, 8, 4)
	net := mlp(t, 4, 8, 64, 4)
	m := NewDropout(net, opt.NewSGD(0.2), 0.5, rng.New(5))
	if acc := trainAndEval(t, m, x, y, 400, 10); acc < 0.9 {
		t.Fatalf("dropout accuracy %v", acc)
	}
	if m.Axis() != AxisColumns {
		t.Fatal("dropout must sample columns")
	}
}

func TestDropoutOnlyUpdatesActiveColumns(t *testing.T) {
	net := mlp(t, 6, 8, 16, 3)
	m := NewDropout(net, opt.NewSGD(0.5), 0.3, rng.New(7))
	before := net.Layers[0].W.Clone()
	x, y := separableTask(8, 10, 8, 3)
	bx := tensor.FromSlice(1, 8, append([]float64(nil), x.RowView(0)...))
	m.Step(bx, y[:1])
	// Columns outside the last sampled active set must be untouched.
	active := map[int]bool{}
	for _, c := range m.states[0].cols {
		active[c] = true
	}
	changed := 0
	for j := 0; j < 16; j++ {
		col0 := before.Col(j, nil)
		col1 := net.Layers[0].W.Col(j, nil)
		diff := false
		for i := range col0 {
			if col0[i] != col1[i] {
				diff = true
				break
			}
		}
		if diff {
			changed++
			if !active[j] {
				t.Fatalf("inactive column %d was updated", j)
			}
		}
	}
	if changed == 0 {
		t.Fatal("no column was updated at all")
	}
}

// Dropout at a vanishing keep rate still keeps one distinct node per
// hidden layer on every draw.
func TestDropoutMinKeepFloor(t *testing.T) {
	net := mlp(t, 9, 4, 10, 2)
	m := NewDropout(net, opt.NewSGD(0.1), 0.0001, rng.New(10))
	for draw := 0; draw < 20; draw++ {
		cols := m.keep(0, nil, m.g, nil)
		if len(cols) != 1 {
			t.Fatalf("draw %d: one-node floor violated: %v", draw, cols)
		}
		if cols[0] < 0 || cols[0] >= net.Layers[0].FanOut() {
			t.Fatalf("draw %d: node %d out of range", draw, cols[0])
		}
	}
}

func TestAdaptiveDropoutLearns(t *testing.T) {
	x, y := separableTask(11, 60, 8, 4)
	net := mlp(t, 12, 8, 48, 4)
	m := NewAdaptiveDropout(net, opt.NewSGD(0.2), 1, 0.5, rng.New(13))
	if acc := trainAndEval(t, m, x, y, 400, 10); acc < 0.9 {
		t.Fatalf("adaptive-dropout accuracy %v", acc)
	}
	if m.Name() != "adaptive-dropout" || m.Axis() != AxisColumns {
		t.Fatal("identity accessors wrong")
	}
}

func TestAdaptiveDropoutKeepProbTracksActivation(t *testing.T) {
	net := mlp(t, 14, 4, 8, 2)
	m := NewAdaptiveDropout(net, opt.NewSGD(0.1), 1, 0.2, rng.New(15))
	// π must be increasing in z and equal baseKeep at z = 0.
	if math.Abs(m.keepProb(0)-0.2) > 1e-9 {
		t.Fatalf("keepProb(0) = %v, want 0.2", m.keepProb(0))
	}
	if !(m.keepProb(2) > m.keepProb(0) && m.keepProb(0) > m.keepProb(-2)) {
		t.Fatal("keepProb must be monotone in z")
	}
}

func TestALSHLearnsShallow(t *testing.T) {
	x, y := separableTask(16, 60, 8, 4)
	net := mlp(t, 17, 8, 64, 4)
	m, err := NewALSHApprox(net, opt.NewAdam(0.01), ALSHConfig{
		Params:    lshParamsForTest(),
		MinActive: 8,
	}, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	if acc := trainAndEval(t, m, x, y, 400, 1); acc < 0.8 {
		t.Fatalf("alsh accuracy %v", acc)
	}
	if m.Name() != "alsh" || m.Axis() != AxisColumns {
		t.Fatal("identity accessors wrong")
	}
	if m.ActiveFraction() <= 0 || m.ActiveFraction() > 1 {
		t.Fatalf("active fraction %v", m.ActiveFraction())
	}
	if m.IndexMemory() <= 0 {
		t.Fatal("index memory should be positive")
	}
}

func TestALSHMaintainsIndexes(t *testing.T) {
	net := mlp(t, 19, 6, 32, 3)
	m, err := NewALSHApprox(net, opt.NewAdam(0.01), ALSHConfig{
		Params:            lshParamsForTest(),
		EarlyRebuildEvery: 2,
		LateRebuildEvery:  4,
		EarlyPhaseSamples: 10,
	}, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	x, y := separableTask(21, 12, 6, 3)
	bx := tensor.New(1, 6)
	for i := 0; i < 12; i++ {
		copy(bx.RowView(0), x.RowView(i))
		m.Step(bx, y[i:i+1])
	}
	if m.Timing().Maintain == 0 {
		t.Fatal("maintenance never ran")
	}
	// Touched sets should be flushed after maintenance cadence.
	total := 0
	for _, tm := range m.touched {
		total += len(tm.cols)
	}
	if total > 3*32 {
		t.Fatalf("touched sets look unbounded: %d", total)
	}
	m.RebuildAll()
	rebuilds, _ := m.indexes[0].Stats()
	if rebuilds < 2 {
		t.Fatalf("RebuildAll did not rebuild (rebuilds=%d)", rebuilds)
	}
}

func TestALSHActiveSetRespectsFloorAndCap(t *testing.T) {
	net := mlp(t, 22, 6, 40, 3)
	m, err := NewALSHApprox(net, opt.NewAdam(0.01), ALSHConfig{
		Params:        lshParamsForTest(),
		MinActive:     5,
		MaxActiveFrac: 0.25,
	}, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(24, 1, 6)
	cols := m.keep(0, x, m.g, &m.ws)
	if len(cols) < 5 {
		t.Fatalf("floor violated: %d", len(cols))
	}
	if len(cols) > 10 { // 0.25*40
		t.Fatalf("cap violated: %d", len(cols))
	}
	seen := map[int]bool{}
	for _, c := range cols {
		if seen[c] {
			t.Fatal("duplicate in active set")
		}
		seen[c] = true
	}
}

func TestALSHBatchUnion(t *testing.T) {
	net := mlp(t, 25, 6, 40, 3)
	m, err := NewALSHApprox(net, opt.NewAdam(0.01), ALSHConfig{Params: lshParamsForTest(), MinActive: 4}, rng.New(26))
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(27, 5, 6)
	cols := m.keep(0, x, m.g, &m.ws)
	if len(cols) == 0 {
		t.Fatal("batch union empty")
	}
	seen := map[int]bool{}
	for _, c := range cols {
		if c < 0 || c >= 40 || seen[c] {
			t.Fatalf("bad active set %v", cols)
		}
		seen[c] = true
	}
}

// lshParamsForTest uses few hash bits so small test layers still get
// non-trivial buckets.
func lshParamsForTest() lsh.Params {
	return lsh.Params{K: 3, L: 4, M: 3, U: 0.83}
}

// With keep probability 1 every node is active and inverted scaling is
// 1/1, so a Dropout step must equal a Standard step exactly.
func TestDropoutKeepOneEqualsStandard(t *testing.T) {
	x, y := separableTask(30, 10, 6, 3)
	netA := mlp(t, 31, 6, 12, 3)
	netB := netA.Clone()
	std := NewStandard(netA, opt.NewSGD(0.1))
	drop := NewDropout(netB, opt.NewSGD(0.1), 1.0, rng.New(32))
	lossA := std.Step(x, y)
	lossB := drop.Step(x, y)
	if math.Abs(lossA-lossB) > 1e-12 {
		t.Fatalf("losses differ: %v vs %v", lossA, lossB)
	}
	for i := range netA.Layers {
		if !tensor.EqualApprox(netA.Layers[i].W, netB.Layers[i].W, 1e-10) {
			t.Fatalf("layer %d weights diverged", i)
		}
	}
}

// With MinActive equal to the layer width, ALSH pads every layer's
// active set to the full node set, so the step must equal Standard's
// up to summation order.
func TestALSHFullActiveEqualsStandard(t *testing.T) {
	x, y := separableTask(33, 6, 6, 3)
	netA := mlp(t, 34, 6, 10, 3)
	netB := netA.Clone()
	std := NewStandard(netA, opt.NewSGD(0.1))
	alsh, err := NewALSHApprox(netB, opt.NewSGD(0.1), ALSHConfig{
		Params: lshParamsForTest(), MinActive: 10,
	}, rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	lossA := std.Step(x, y)
	lossB := alsh.Step(x, y)
	if math.Abs(lossA-lossB) > 1e-9 {
		t.Fatalf("losses differ: %v vs %v", lossA, lossB)
	}
	for i := range netA.Layers {
		if !tensor.EqualApprox(netA.Layers[i].W, netB.Layers[i].W, 1e-9) {
			t.Fatalf("layer %d weights diverged", i)
		}
	}
}

// Column sampling preserves the gradient restricted to the active set:
// for a fixed active set, the sparse kernels' gradient must equal the
// dense gradient's values at those columns (already covered for the full
// set; spot-check a strict subset here).
func TestActiveSubsetGradientsMatchDense(t *testing.T) {
	g := rng.New(36)
	l := nn.NewLayer(5, 8, nn.Tanh{}, nn.InitHe, g)
	x := randInput(37, 3, 5)
	cols := []int{1, 4, 6}

	st := &activeState{cols: cols}
	forwardActive(l, x, st, 1)
	dA := randInput(38, 3, 8)
	gw, gb, _ := backwardActive(l, dA.Clone(), st, 1)

	// Dense reference with inactive columns of dA zeroed, activations
	// recomputed with inactive nodes clamped to zero.
	// Use a masked network: set columns outside cols to zero weight
	// influence by zeroing dA outside cols and recomputing the dense
	// backward on the same masked forward.
	dense := l.Forward(x)
	_ = dense
	deriv := l.Act.Derivative(l.Z, l.A)
	delta := tensor.Hadamard(dA, deriv)
	denseGrads, _ := l.Backward(delta)
	for r, j := range cols {
		for i := 0; i < 5; i++ {
			if math.Abs(gw.At(i, r)-denseGrads.W.At(i, j)) > 1e-10 {
				t.Fatalf("gradW col %d differs from dense", j)
			}
		}
		if math.Abs(gb[r]-denseGrads.B[j]) > 1e-10 {
			t.Fatalf("gradB col %d differs from dense", j)
		}
	}
}

func TestALSHSamplingSnapshot(t *testing.T) {
	net := mlp(t, 60, 8, 32, 4)
	m, err := NewALSHApprox(net, opt.NewAdam(0.01), ALSHConfig{
		Params:    lshParamsForTest(),
		MinActive: 6,
	}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	var _ SamplingReporter = m // ALSH must expose sampling diagnostics
	x, y := separableTask(62, 20, 8, 4)
	bx := tensor.New(1, 8)
	for i := 0; i < 20; i++ {
		copy(bx.RowView(0), x.RowView(i))
		m.Step(bx, y[i:i+1])
	}
	s := m.SamplingSnapshot()
	if s.ActiveFraction <= 0 || s.ActiveFraction > 1 {
		t.Fatalf("active fraction %v", s.ActiveFraction)
	}
	if len(s.ActiveSets) != 2 || len(s.Buckets) != 2 { // two hidden layers
		t.Fatalf("snapshot has %d active-set dists, %d bucket stats", len(s.ActiveSets), len(s.Buckets))
	}
	for i, d := range s.ActiveSets {
		if d.Count != 20 {
			t.Fatalf("layer %d recorded %d active sets, want 20", i, d.Count)
		}
		if d.Min < 6 || d.Max > 32 {
			t.Fatalf("layer %d active-set sizes [%d, %d] violate floor/width", i, d.Min, d.Max)
		}
	}
	for i, b := range s.Buckets {
		if b.Items == 0 || b.NonEmpty == 0 {
			t.Fatalf("layer %d bucket stats empty: %+v", i, b)
		}
	}
	// ResetTiming opens a fresh per-epoch window.
	m.ResetTiming()
	if s := m.SamplingSnapshot(); s.ActiveSets[0].Count != 0 {
		t.Fatal("ResetTiming did not reset the active-set distributions")
	}
}

func TestParallelALSHSamplingSnapshot(t *testing.T) {
	net := mlp(t, 63, 8, 32, 4)
	m, err := NewParallelALSH(net, opt.NewAdam(0.01), ALSHConfig{
		Params:    lshParamsForTest(),
		MinActive: 6,
	}, 3, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	x, y := separableTask(65, 12, 8, 4)
	if _, err := m.TryStep(x, y); err != nil {
		t.Fatal(err)
	}
	s := m.SamplingSnapshot()
	if len(s.ActiveSets) != 2 {
		t.Fatalf("%d active-set dists", len(s.ActiveSets))
	}
	for i, d := range s.ActiveSets {
		if d.Count != 12 { // one observation per sample per layer
			t.Fatalf("layer %d recorded %d active sets, want 12", i, d.Count)
		}
	}
}
