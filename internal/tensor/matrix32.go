// Float32 storage path. A float32 matrix moves half the bytes of its
// float64 twin through every cache level, which is exactly the resource
// the packed GEMM core is built to conserve — on memory-bound shapes the
// f32 kernels buy bandwidth headroom at the cost of precision.
//
// Accuracy contract (DESIGN.md §13): MatMul32Into equals a naive
// float32 triple loop (multiply-then-add, ascending k) bit-for-bit, at
// any worker count and block configuration. Against a float64 reference
// of the same product the error is bounded by the usual recursive-sum
// bound — |err| ≤ k·eps32·Σ_k |a_ik·b_kj| — so comparisons against
// float64 results must use ULP or tolerance predicates, never equality;
// repolint's ulp-bound check keeps every such relaxed comparison
// annotated.

package tensor

import (
	"fmt"
	"math"
)

// Matrix32 is a dense, row-major matrix of float32 values, the
// reduced-precision twin of Matrix. Element (i, j) lives at
// Data[i*Cols+j].
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zeroed rows x cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice32 wraps data (len rows*cols, row-major) without copying.
func FromSlice32(rows, cols int, data []float32) *Matrix32 {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice32 got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy of m.
func (m *Matrix32) Clone() *Matrix32 {
	c := New32(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix32) Set(i, j int, v float32) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range for %dx%d", i, j, m.Rows, m.Cols))
	}
	m.Data[i*m.Cols+j] = v
}

// RowView returns row i as a slice sharing m's backing storage.
func (m *Matrix32) RowView(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range for %dx%d", i, m.Rows, m.Cols))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ToFloat32 returns m rounded to float32 storage.
func (m *Matrix) ToFloat32() *Matrix32 {
	o := New32(m.Rows, m.Cols)
	for i, v := range m.Data {
		o.Data[i] = float32(v)
	}
	return o
}

// ToFloat64 returns m widened to float64 storage (exact).
func (m *Matrix32) ToFloat64() *Matrix {
	o := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		o.Data[i] = float64(v)
	}
	return o
}

// MatMul32 returns a*b in float32.
func MatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Cols)
	MatMul32Into(out, a, b)
	return out
}

// MatMul32Into computes out = a*b in float32 arithmetic. Validation
// happens before the first write to out. Large products run the packed
// register-blocked core with float32 panels — half the memory traffic
// of the float64 path — and the bandwidth-aware scheduler accounts for
// the smaller element size when deciding to go parallel. Per-element
// summation is an ascending-k multiply-then-add chain independent of
// chunk and block boundaries, so results are bit-identical at any
// worker count.
func MatMul32Into(out, a, b *Matrix32) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul32 %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul32 out is %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	// Per-row cost: same flops as the float64 kernel, half the bytes.
	cost := Cost{Flops: k * n, Bytes: 4 * (k + 2*n), MinRows: GEMMBlockConfig().MC}
	if usePacked(a.Rows, k, n) {
		av := gview[float32]{data: a.Data, rs: a.Cols, cs: 1}
		bv := gview[float32]{data: b.Data, rs: b.Cols, cs: 1}
		packedParallel(out.Data, out.Cols, av, bv, a.Rows, k, n, nil, cost)
		return
	}
	cost.MinRows = 0
	parallelGEMM(a.Rows, n, cost, axpyColBlock, func(ilo, ihi, jlo, jhi int) {
		for i := ilo; i < ihi; i++ {
			arow := a.RowView(i)
			orow := out.RowView(i)[jlo:jhi]
			clear(orow)
			for k, av := range arow {
				brow := b.RowView(k)[jlo:jhi]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
}

// ULPDistance32 returns the distance between a and b in float32 units
// in the last place: the number of representable float32 values you
// must step from a to reach b. Opposite-zero pairs are 0 apart; any NaN
// operand yields MaxInt64 (no finite bound holds).
func ULPDistance32(a, b float32) int64 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxInt64
	}
	ia, ib := ulpIndex32(a), ulpIndex32(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

// ulpIndex32 maps a float32 onto the integers so that consecutive
// representable values are consecutive integers (the standard
// sign-magnitude to two's-complement bit trick).
func ulpIndex32(f float32) int64 {
	b := math.Float32bits(f)
	if b&(1<<31) != 0 {
		return -int64(b &^ (1 << 31))
	}
	return int64(b)
}

// EqualWithinULP32 reports whether a and b have identical shape and
// every element of a is within ulps units in the last place of the
// corresponding element of b, rounded to float32. It is the relaxed
// comparison for float32 kernel results against a float64 reference;
// call sites outside tests must justify the relaxation with a
// //lint:ignore ulp-bound annotation.
func EqualWithinULP32(a *Matrix32, b *Matrix, ulps int64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if ULPDistance32(v, float32(b.Data[i])) > ulps {
			return false
		}
	}
	return true
}

// Equal32 reports whether a and b have identical shape and elements
// (the float32 bit-identity predicate of the parallel kernel tests).
func Equal32(a, b *Matrix32) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}
