package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// goldenSteps is the number of seeded training steps each golden case
// runs before its checksums are taken.
const goldenSteps = 12

// goldenCRCs are the checksums one golden run ends with: the network
// weights (Net().Save bytes), the method state (SaveState bytes; zero
// when the method is not Resumable), and every layer activation of one
// batch-1 ApproxForward (zero when the method is not an ApproxForwarder).
type goldenCRCs struct {
	weights, state, approx uint32
}

// goldenMethod builds one golden case's method over net.
type goldenMethod func(t *testing.T, net *nn.Network) Method

// goldenOptions is the shared configuration of the golden cases: a keep
// rate low enough that dropout pads to its floor, an ALSH floor and cap
// that make padActive both pad and shuffle-truncate, a re-hash cadence
// short enough that maintain runs inside goldenSteps, and an MC sample
// count below the batch size.
func goldenOptions() Options {
	o := DefaultOptions(41)
	o.DropoutKeep = 0.1
	o.ALSH = ALSHConfig{Params: lshParamsForTest(), MinActive: 4, MaxActiveFrac: 0.5, EarlyRebuildEvery: 8}
	o.MC = MCConfig{K: 4}
	return o
}

func goldenByName(name string, edit func(*Options)) goldenMethod {
	return func(t *testing.T, net *nn.Network) Method {
		o := goldenOptions()
		if edit != nil {
			edit(&o)
		}
		m, err := New(name, net, opt.NewAdam(0.01), o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// goldenCases lists every method the factory builds plus the
// alsh-parallel worker counts and the MC ablations. The two-worker
// parallel case runs without a floor or a cap: which worker takes which
// row is up to the scheduler, so only a configuration whose workers
// never draw from their private RNG streams is reproducible there.
func goldenCases() map[string]goldenMethod {
	cases := map[string]goldenMethod{}
	for _, name := range MethodNames() {
		cases[name] = goldenByName(name, nil)
	}
	cases["alsh-parallel-w1"] = goldenByName("alsh-parallel", func(o *Options) { o.Workers = 1 })
	cases["alsh-parallel-w2"] = goldenByName("alsh-parallel", func(o *Options) {
		o.Workers = 2
		o.ALSH.MinActive = 1
		o.ALSH.MaxActiveFrac = 0
	})
	cases["mc-forward"] = goldenByName("mc", func(o *Options) { o.MC.Where = MCForward })
	cases["mc-both"] = goldenByName("mc", func(o *Options) { o.MC.Where = MCBoth })
	cases["mc-cr"] = goldenByName("mc", func(o *Options) { o.MC.Estimator = MCCR })
	cases["mc-topk"] = goldenByName("mc", func(o *Options) { o.MC.Estimator = MCTopK })
	return cases
}

// runGolden trains a fresh 8→32→32→4 network with the given method for
// goldenSteps seeded batches and returns its checksums.
func runGolden(t *testing.T, build goldenMethod, batch int) goldenCRCs {
	t.Helper()
	x, y := separableTask(40, 64, 8, 4)
	m := build(t, mlp(t, 42, 8, 32, 4))
	bx := tensor.New(batch, x.Cols)
	by := make([]int, batch)
	for s := 0; s < goldenSteps; s++ {
		for i := 0; i < batch; i++ {
			j := (s*batch + i*7) % x.Rows
			copy(bx.RowView(i), x.RowView(j))
			by[i] = y[j]
		}
		if loss := m.Step(bx, by); math.IsNaN(loss) {
			t.Fatalf("%s: NaN loss at step %d", m.Name(), s)
		}
	}
	var out goldenCRCs
	var buf bytes.Buffer
	if err := m.Net().Save(&buf); err != nil {
		t.Fatal(err)
	}
	out.weights = crc32.ChecksumIEEE(buf.Bytes())
	if r, ok := m.(Resumable); ok {
		buf.Reset()
		if err := r.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		out.state = crc32.ChecksumIEEE(buf.Bytes())
	}
	if af, ok := m.(ApproxForwarder); ok {
		h := crc32.NewIEEE()
		var b [8]byte
		for _, a := range af.ApproxForward(tensor.FromSlice(1, x.Cols, x.RowView(3)), rng.New(7)) {
			for _, v := range a.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		out.approx = h.Sum32()
	}
	return out
}

// goldenTable pins, per case and batch size, the checksums every
// method ends with. A refactor of internal/core must leave every entry
// unchanged; only a deliberate change of a method's arithmetic or RNG
// draws may re-pin one.
var goldenTable = map[string]goldenCRCs{
	"adaptive-dropout/b1": {0xd7d5176a, 0x0e03a58b, 0x8e467e9d},
	"adaptive-dropout/b8": {0xcde19708, 0x79857782, 0x3e796aa0},
	"alsh-parallel-w1/b1": {0xadb70ee3, 0x4285dd82, 0x722148ad},
	"alsh-parallel-w1/b8": {0x9f29d00b, 0xc2b4a0fc, 0x3dde1a21},
	"alsh-parallel-w2/b1": {0x02bd37a1, 0x25db7cb3, 0xbbeb984c},
	"alsh-parallel-w2/b8": {0x527a5fe1, 0x7d4b19d2, 0x0a3182e0},
	"alsh/b1":             {0xfe1b94f7, 0xfd0fe79e, 0x4510b75c},
	"alsh/b8":             {0xb36a369a, 0x305c8397, 0x59babb69},
	"dropout/b1":          {0xa8274362, 0x5746e976, 0x0548de4f},
	"dropout/b8":          {0x07e9a686, 0x5746e976, 0x752933f3},
	"mc-both/b1":          {0x05a88dfc, 0x0305b435, 0xd00ace8d},
	"mc-both/b8":          {0xa5c9f062, 0x50fd7939, 0x4ce542cb},
	"mc-cr/b1":            {0xa7ae5892, 0x03949284, 0xb30da385},
	"mc-cr/b8":            {0xa6aed16d, 0x03949284, 0x762cec43},
	"mc-forward/b1":       {0x1c802f65, 0x8611d8fb, 0x3b9affc9},
	"mc-forward/b8":       {0xcb11df0c, 0xb38867cc, 0xb2cfe747},
	"mc-topk/b1":          {0x94b132d1, 0x395708d6, 0xcf3a0725},
	"mc-topk/b8":          {0xf6470822, 0x395708d6, 0xcf743372},
	"mc/b1":               {0x25f09c7b, 0x4b6f4177, 0x3cf7a5f4},
	"mc/b8":               {0x25af6e4b, 0x1d3f9bca, 0x506e3c1e},
	"standard/b1":         {0x86ec681a, 0x00000000, 0x00000000},
	"standard/b8":         {0xc2987c3d, 0x00000000, 0x00000000},
}

func TestGoldenChecksums(t *testing.T) {
	cases := goldenCases()
	for _, batch := range []int{1, 8} {
		for name, build := range cases {
			key := fmt.Sprintf("%s/b%d", name, batch)
			got := runGolden(t, build, batch)
			want, ok := goldenTable[key]
			if !ok {
				t.Errorf("%q: {0x%08x, 0x%08x, 0x%08x}, // unpinned", key, got.weights, got.state, got.approx)
				continue
			}
			if got != want {
				t.Errorf("%s: got {0x%08x, 0x%08x, 0x%08x}, want {0x%08x, 0x%08x, 0x%08x}",
					key, got.weights, got.state, got.approx, want.weights, want.state, want.approx)
			}
		}
	}
}

// Two runs from one seed must end with identical checksums. The cases
// here are the ones that merge index sets — ALSH's union of per-row
// candidates, MC's CR merge of duplicate draws — where a map's
// iteration order would set the float summation order.
func TestRepeatedRunsAreBitIdentical(t *testing.T) {
	cases := goldenCases()
	for _, name := range []string{"alsh", "mc-cr"} {
		for _, batch := range []int{1, 8} {
			first := runGolden(t, cases[name], batch)
			for run := 1; run < 4; run++ {
				if got := runGolden(t, cases[name], batch); got != first {
					t.Fatalf("%s at batch %d: run %d ended {0x%08x, 0x%08x, 0x%08x}, run 0 ended {0x%08x, 0x%08x, 0x%08x}",
						name, batch, run, got.weights, got.state, got.approx, first.weights, first.state, first.approx)
				}
			}
		}
	}
}
