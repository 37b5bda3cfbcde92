package tensor

import (
	"math"
	"testing"

	"samplednn/internal/pool"
	"samplednn/internal/rng"
)

// withWorkers runs fn with the package's kernels pinned to a w-worker
// pool, restoring the shared default afterwards.
func withWorkers(w int, fn func()) {
	p := pool.New(w)
	SetPool(p)
	defer SetPool(nil)
	fn()
}

// bitsEqual compares matrices bit-for-bit (NaNs compare equal to
// themselves, +0 and -0 differ) — the determinism contract of the
// parallel kernels is bit-identity, not approximate closeness.
func bitsEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func bitsEqualVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sparseRandMatrix fills a matrix with Gaussian values, zeroing a fraction
// of entries so the kernels' zero handling is exercised.
func sparseRandMatrix(g *rng.RNG, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if g.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = g.NormFloat64()
	}
	return m
}

// kernelShapes covers degenerate (1×n, n×1, empty), small-serial,
// row-sharded, and skinny-but-wide shapes. (m, k, n) are the GEMM dims;
// the last four have too few rows for two row chunks, so parallelGEMM
// shards their output columns instead (streaming GEMV for m = 1, 2;
// packed for m = 20, 50).
var kernelShapes = [][3]int{
	{1, 1, 1},
	{1, 64, 1},
	{64, 1, 64},
	{1, 1, 64},
	{0, 8, 8},
	{8, 0, 8},
	{8, 8, 0},
	{3, 5, 7},
	{40, 40, 40},   // above the parallel cutoff
	{100, 64, 100}, // well above, multiple chunks per worker
	{257, 33, 129}, // odd sizes: last chunk shorter than grain
	{1, 784, 1000}, // batch-1 GEMV at paper width
	{2, 300, 700},
	{20, 784, 1000}, // batch-20 layer at paper width
	{50, 257, 1031}, // n not a multiple of the column block or microNR
}

// TestParallelKernelsBitIdenticalToSerial is the property test of the
// determinism contract: every parallel kernel must produce bit-identical
// results to its serial (1-worker) counterpart on rectangular and
// degenerate shapes, for several worker counts.
func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	g := rng.New(77)
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := sparseRandMatrix(g, m, k, 0.3)
		b := sparseRandMatrix(g, k, n, 0.3)
		bt := sparseRandMatrix(g, n, k, 0.3)   // for a * btᵀ
		tall := sparseRandMatrix(g, m, n, 0.3) // for aᵀ · tall (shared leading dim m)
		// Column subsets for MatMulCols: empty, singleton, strided, a
		// strided set of at least NC columns once n allows, and a prefix
		// whose width is no multiple of any column block.
		colSets := [][]int{{}}
		if n > 0 {
			colSets = append(colSets, []int{0}, stride(n, 3), stride(n, 2), stride(n, 1)[:n-n/3])
		}
		rowVec := make([]float64, k)
		g.GaussianSlice(rowVec, 0, 1)

		type result struct {
			mm, ta, tb, sp *Matrix
			cols           []*Matrix
			colNorms       []float64
			rowNorms       []float64
			colSums        []float64
			had            *Matrix
			addRow         *Matrix
		}
		runAll := func() result {
			var r result
			r.mm = New(m, n)
			MatMulInto(r.mm, a, b)
			r.ta = New(k, n)
			MatMulTransAInto(r.ta, a, tall)
			r.tb = New(m, n)
			MatMulTransBInto(r.tb, a, bt)
			r.sp = New(m, n)
			MatMulTransBSparseInto(r.sp, a, bt, nil)
			for _, cs := range colSets {
				o := New(m, n)
				MatMulCols(o, a, b, cs)
				r.cols = append(r.cols, o)
			}
			r.colNorms = a.ColNorms()
			r.rowNorms = a.RowNorms()
			r.colSums = make([]float64, a.Cols)
			ColSumsInto(r.colSums, a)
			r.had = Hadamard(a, a)
			r.addRow = a.Clone()
			r.addRow.AddRowVector(rowVec)
			return r
		}

		var serial result
		withWorkers(1, func() { serial = runAll() })

		// Anchor the serial GEMMs to independent references, so the
		// worker comparison below cannot pass on a bug every worker count
		// shares: the packed path must equal the naive FMA chain bit for
		// bit, the streaming path (axpy/dot order) must agree to rounding.
		anchor := func(name string, got, want *Matrix, packed bool) {
			if packed && !bitsEqual(got, want) || !packed && !EqualApprox(got, want, 1e-9) {
				t.Errorf("%s disagrees with the naive reference at shape %v (packed=%v)", name, sh, packed)
			}
		}
		full := naiveFMA(a, b)
		anchor("MatMulInto", serial.mm, full, usePacked(m, k, n))
		anchor("MatMulTransAInto", serial.ta, naiveFMA(a.T(), tall), usePacked(k, m, n))
		anchor("MatMulTransBInto", serial.tb, naiveFMA(a, bt.T()), usePacked(m, k, n))
		for ci, cs := range colSets {
			want := New(m, n)
			for _, j := range cs {
				for i := 0; i < m; i++ {
					want.Set(i, j, full.At(i, j))
				}
			}
			anchor("MatMulCols", serial.cols[ci], want, usePacked(m, k, len(cs)))
		}

		for _, workers := range []int{2, 4, 7} {
			var par result
			withWorkers(workers, func() { par = runAll() })
			check := func(name string, ok bool) {
				if !ok {
					t.Errorf("%s not bit-identical at shape %v, workers=%d", name, sh, workers)
				}
			}
			check("MatMulInto", bitsEqual(serial.mm, par.mm))
			check("MatMulTransAInto", bitsEqual(serial.ta, par.ta))
			check("MatMulTransBInto", bitsEqual(serial.tb, par.tb))
			check("MatMulTransBSparseInto", bitsEqual(serial.sp, par.sp))
			for ci := range serial.cols {
				check("MatMulCols", bitsEqual(serial.cols[ci], par.cols[ci]))
			}
			check("ColNorms", bitsEqualVec(serial.colNorms, par.colNorms))
			check("RowNorms", bitsEqualVec(serial.rowNorms, par.rowNorms))
			check("ColSumsInto", bitsEqualVec(serial.colSums, par.colSums))
			check("Hadamard", bitsEqual(serial.had, par.had))
			check("AddRowVector", bitsEqual(serial.addRow, par.addRow))
		}
	}
}

func stride(n, step int) []int {
	var out []int
	for j := 0; j < n; j += step {
		out = append(out, j)
	}
	return out
}

// TestParallelMatchesSerialAgainstReference anchors the parallel kernels
// to an independent implementation (the naive ijk product), so the
// bit-identity test above cannot be satisfied by a bug shared between
// serial and parallel paths.
func TestParallelMatchesSerialAgainstReference(t *testing.T) {
	g := rng.New(78)
	a := sparseRandMatrix(g, 50, 40, 0.2)
	b := sparseRandMatrix(g, 40, 60, 0.2)
	ref := MatMulNaive(a, b)
	withWorkers(4, func() {
		out := New(50, 60)
		MatMulInto(out, a, b)
		if !EqualApprox(out, ref, 1e-9) {
			t.Fatal("parallel MatMulInto disagrees with the naive reference")
		}
	})
}

// TestMatMulPropagatesNonFinite is the zero-skip regression test: an
// earlier version of MatMulInto/MatMulTransAInto skipped zero entries of
// a, turning 0·NaN and 0·Inf into 0 — a diverging operand could be
// masked, and the trainer's non-finite-loss rollback never fired.
func TestMatMulPropagatesNonFinite(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(workers, func() {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				// NaN/Inf in b, zeros in a: out = 0·bad must be NaN.
				a := New(2, 3) // all zeros
				b := New(3, 2)
				b.Set(1, 1, bad)
				out := New(2, 2)
				MatMulInto(out, a, b)
				if !math.IsNaN(out.At(0, 1)) {
					t.Errorf("workers=%d: MatMulInto masked 0*%v as %v", workers, bad, out.At(0, 1))
				}

				ta := New(3, 2) // all zeros, used as aᵀ operand
				bb := New(3, 2)
				bb.Set(2, 0, bad)
				outTA := New(2, 2)
				MatMulTransAInto(outTA, ta, bb)
				if !math.IsNaN(outTA.At(1, 0)) {
					t.Errorf("workers=%d: MatMulTransAInto masked 0*%v as %v", workers, bad, outTA.At(1, 0))
				}

				// The mirror case: non-finite in a must reach out even when
				// multiplied by zeros in b.
				a2 := New(2, 3)
				a2.Set(0, 0, bad)
				b2 := New(3, 2) // all zeros
				out2 := New(2, 2)
				MatMulInto(out2, a2, b2)
				if !math.IsNaN(out2.At(0, 0)) {
					t.Errorf("workers=%d: MatMulInto dropped %v from a", workers, bad)
				}
			}
		})
	}
}

// TestSparseKernelScratchReuse pins the scratch-reuse contract of the
// sparse kernel across serial and parallel execution.
func TestSparseKernelScratchReuse(t *testing.T) {
	g := rng.New(79)
	a := sparseRandMatrix(g, 6, 50, 0.9)
	b := sparseRandMatrix(g, 4, 50, 0)
	out := New(6, 4)
	withWorkers(1, func() {
		sup := MatMulTransBSparseInto(out, a, b, nil)
		if sup == nil {
			t.Fatal("serial call should hand back grown scratch")
		}
		again := MatMulTransBSparseInto(out, a, b, sup)
		if cap(again) < cap(sup) {
			t.Fatal("scratch must be reused, not shrunk")
		}
	})
	// Parallel path: the passed-in scratch must come back unchanged (the
	// chunks use private scratch), and results must match serial.
	big := sparseRandMatrix(g, 120, 80, 0.8)
	wide := sparseRandMatrix(g, 64, 80, 0)
	serialOut, parOut := New(120, 64), New(120, 64)
	withWorkers(1, func() { MatMulTransBSparseInto(serialOut, big, wide, nil) })
	withWorkers(4, func() {
		scratch := make([]int, 0, 7)
		got := MatMulTransBSparseInto(parOut, big, wide, scratch)
		_ = got
	})
	if !bitsEqual(serialOut, parOut) {
		t.Fatal("sparse kernel parallel result differs from serial")
	}
}
