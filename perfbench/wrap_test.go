package main

import (
	"bytes"
	"hash/crc32"
	"path/filepath"
	"testing"

	"samplednn/internal/core"
	"samplednn/internal/dataset"
	"samplednn/internal/lsh"
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/train"
)

// tinySpec keeps the wrapper tests fast: 8×8 inputs, four classes.
var tinySpec = dataset.Spec{Name: "tiny", Width: 8, Height: 8, Channels: 1, Classes: 4, Train: 48, Test: 16, Val: 8, Difficulty: 0.3}

func tinyMethod(t *testing.T, name string, timed bool) (core.Method, *timedOptimizer) {
	t.Helper()
	net, err := nn.NewNetwork(nn.Uniform(tinySpec.Dim(), 24, 2, tinySpec.Classes), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var o opt.Optimizer = opt.NewSGD(0.05)
	if name == "alsh" || name == "alsh-parallel" {
		o = opt.NewAdam(1e-2)
	}
	var to *timedOptimizer
	if timed {
		if to, err = newTimedOptimizer(o); err != nil {
			t.Fatal(err)
		}
		o = to
	}
	opts := core.DefaultOptions(3)
	opts.ALSH = core.ALSHConfig{Params: lsh.Params{K: 3, L: 4, M: 3, U: 0.83}, MinActive: 4}
	opts.Workers = 2
	m, err := core.New(name, net, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, to
}

// trainTiny runs two epochs with full-state snapshots and divergence
// recovery enabled, so the trainer exercises method state save, the
// optimizer's state save and its LR adjust, and returns the final
// weights' CRC and the per-epoch losses.
func trainTiny(t *testing.T, m core.Method, batch int) (uint32, []float64) {
	t.Helper()
	ds := dataset.GenerateFromSpec(tinySpec, dataset.Options{Seed: 11})
	tr, err := train.New(m, ds, train.Config{
		Epochs: 2, BatchSize: batch, Seed: 5, MaxRetries: 1,
		StatePath: filepath.Join(t.TempDir(), "state.snck"),
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for _, e := range hist.Epochs {
		losses = append(losses, e.TrainLoss)
	}
	var blob bytes.Buffer
	if err := m.Net().Save(&blob); err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(blob.Bytes()), losses
}

// TestWrappedRunsMatchUnwrapped pins that the timing wrappers change
// nothing the trainer can observe: for every method, the wrapped method
// implements the same optional interfaces as the bare one, and a wrapped
// run ends with the same weights and losses as an unwrapped run.
func TestWrappedRunsMatchUnwrapped(t *testing.T) {
	for _, name := range append(core.MethodNames(), "alsh-parallel") {
		t.Run(name, func(t *testing.T) {
			batch := 8
			if name == "alsh" {
				batch = 1
			}
			bare, _ := tinyMethod(t, name, false)
			wantCRC, wantLoss := trainTiny(t, bare, batch)

			inner, to := tinyMethod(t, name, true)
			wrapped, tm, err := wrapMethod(inner)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := capsOf(wrapped), capsOf(inner); got != want {
				t.Fatalf("wrapped capability set %#x, bare method %#x", got, want)
			}
			gotCRC, gotLoss := trainTiny(t, wrapped, batch)
			if gotCRC != wantCRC {
				t.Errorf("wrapped run weights CRC %08x, unwrapped %08x", gotCRC, wantCRC)
			}
			for i := range wantLoss {
				if gotLoss[i] != wantLoss[i] {
					t.Errorf("epoch %d loss %v wrapped, %v unwrapped", i+1, gotLoss[i], wantLoss[i])
				}
			}
			st := tm.take()
			if st.steps == 0 || st.stepNS <= 0 || st.allocBytes == 0 {
				t.Errorf("method wrapper recorded steps=%d ns=%d bytes=%d", st.steps, st.stepNS, st.allocBytes)
			}
			if to.take() <= 0 {
				t.Error("optimizer wrapper recorded no update time")
			}
		})
	}
}

// TestOptimizerWrapperForwardsState checks that state save/load and the
// learning-rate adjustment reach the wrapped optimizer.
func TestOptimizerWrapperForwardsState(t *testing.T) {
	inner := opt.NewAdam(1e-3)
	to, err := newTimedOptimizer(inner)
	if err != nil {
		t.Fatal(err)
	}
	to.SetLearningRate(0.25)
	if inner.LR != 0.25 || to.LearningRate() != 0.25 {
		t.Fatalf("LR adjust not forwarded: inner %v, wrapper %v", inner.LR, to.LearningRate())
	}
	net, err := nn.NewNetwork(nn.Uniform(4, 3, 1, 2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	l := net.Layers[0]
	to.Step(0, l.W, l.B, l.ZeroGrads())
	var a, b bytes.Buffer
	if err := to.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := inner.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("SaveState through the wrapper wrote %d bytes, the optimizer %d", a.Len(), b.Len())
	}
	fresh, err := newTimedOptimizer(opt.NewAdam(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadState(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := fresh.SaveState(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Bytes(), a.Bytes()) {
		t.Fatal("LoadState through the wrapper did not restore the state")
	}
}
