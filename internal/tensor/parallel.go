package tensor

import (
	"sync/atomic"

	"samplednn/internal/pool"
)

// The kernels in this package shard their output over the shared
// worker pool (internal/pool). Two knobs keep small operands from
// regressing: an operation must carry at least parallelCutoffWork of
// effective work before the pool is consulted at all, and chunks are
// sized so each carries at least chunkTargetWork. Below the cutoff the
// kernels run the exact serial loop on the caller.
//
// Work is measured in float64-multiply-accumulate equivalents, and it is
// bandwidth-aware: a byte of memory traffic counts as 1/flopsPerByte of
// a flop, so ops that are memory-bound (elementwise kernels, the float32
// path with half the bytes per element) are costed by whichever resource
// actually limits them. The original cutoff was flop-count-only and
// tuned for float64 compute-bound GEMM; it sent cheap bandwidth-bound
// float32 ops to the pool below profitability.
//
// Row vs column sharding. Elementwise and reduction kernels shard rows
// (ParallelRowsCost). The GEMM kernels go through parallelGEMM, which
// picks between two partitions of the m×n output by shape alone:
//
//   - Row blocks, when the product is tall enough for two full row
//     chunks: m ≥ 2·grain and m ≥ packedMinDim, where the packed
//     kernels' grain is the MC block height (so an A block amortizes
//     its packing) and the streaming kernels' is usually one row.
//   - Column blocks otherwise, at least colGrain wide (packed: NC/4,
//     each chunk packing its own slice of the B panel; streaming:
//     axpyColBlock or dotColBlock) and rounded up to a multiple of
//     microNR.
//
// Rows alone would leave every product under two row chunks — the
// batch-20 forward x·W and backward delta·Wᵀ (m = 20 < 2·MC) and every
// batch-1 GEMV (m = 1) — as one chunk on one core however wide W is,
// since a packed row chunk must be MC tall. The worker count never
// enters the rule: it decides only whether the chunks run concurrently
// (one worker runs the whole product as a single chunk).
//
// Determinism: a chunk owns a block of output elements — whole rows or
// whole columns — and never splits an element's reduction, which runs
// in the same k-ascending order as the serial loop. Block boundaries
// (row or column) only decide which chunk computes an element, never
// how, so results are bit-identical for any worker count (including 1).
// Column boundaries are multiples of microNR, so the four-way unrolled
// axpy of the streaming kernels assigns every element to the same
// unrolled or tail lane as the unsharded loop.
const (
	// parallelCutoffWork is the minimum operation size (in effective
	// flops) worth distributing; below it the fork/join overhead of even
	// a warm pool exceeds the kernel time.
	parallelCutoffWork = 32 << 10
	// chunkTargetWork sizes chunks so the atomic-counter handout cost
	// is amortized over a meaningful amount of arithmetic.
	chunkTargetWork = 16 << 10
	// flopsPerByte converts memory traffic to effective flops: on the
	// bench host the scalar kernels retire ~2 multiply-adds per streamed
	// byte before going memory-bound, so 1 byte costs ~half a flop.
	flopsPerByte = 2
	// axpyColBlock and dotColBlock are the minimum column-chunk widths
	// of the streaming (unpacked) GEMM kernels. An axpy kernel walks a
	// chunk-wide stripe of every b row, so its stripes must be long for
	// the prefetcher; a dot kernel reads whole b rows per output column,
	// so narrow chunks only improve balance. Both were measured on the
	// batch-1 784×1000 layers on a 2-core host.
	axpyColBlock = 512
	dotColBlock  = 128
)

// Cost describes one parallel operation's per-row resource use, the
// input of the serial-cutoff and chunk-size decisions.
type Cost struct {
	// Flops is the multiply-accumulate count per output row.
	Flops int
	// Bytes is the memory traffic per output row (reads + writes,
	// element size included — a float32 row moves half a float64 row).
	Bytes int
	// MinRows, when positive, is the minimum rows per parallel chunk.
	// The packed GEMM kernels set it to the MC block height so a chunk
	// amortizes its operand packing over at least one full block.
	MinRows int
}

// effFlops is the bandwidth-aware effective work per row.
func (c Cost) effFlops() int {
	eff := c.Flops + c.Bytes/flopsPerByte
	if eff < 1 {
		eff = 1
	}
	return eff
}

// kernelPool, when non-nil, overrides the shared default pool for this
// package's kernels. Tests and benchmarks use it to pin a worker count.
var kernelPool atomic.Pointer[pool.Pool]

// SetPool overrides the worker pool used by the parallel kernels; nil
// restores the process-wide shared pool (pool.Default, sized by
// GOMAXPROCS or the -threads flag).
func SetPool(p *pool.Pool) {
	if p == nil {
		kernelPool.Store(nil)
		return
	}
	kernelPool.Store(p)
}

func currentPool() *pool.Pool {
	if p := kernelPool.Load(); p != nil {
		return p
	}
	return pool.Default()
}

// ParallelRows runs fn over a partition of [0, n) rows using the
// package's active worker pool, falling back to a single serial
// fn(0, n) call when the total work n*flopsPerRow is below the parallel
// cutoff or the pool has one worker. flopsPerRow is the approximate
// multiply-accumulate count per row and controls chunk granularity.
//
// It is exported because the sampled-training kernels outside this
// package (gather/scatter in internal/core, the outer-product
// accumulation in internal/approxmm) shard over the same pool with the
// same cutoff policy. Kernels that also move significant memory per row
// should use ParallelRowsCost, which weighs bandwidth as well.
func ParallelRows(n, flopsPerRow int, fn func(lo, hi int)) {
	ParallelRowsCost(n, Cost{Flops: flopsPerRow}, fn)
}

// ParallelRowsCost is ParallelRows with a bandwidth-aware cost model:
// the serial cutoff and chunk granularity are computed from effective
// work (flops plus memory traffic, see Cost), so memory-bound kernels
// and the float32 path do not go parallel below profitability. The
// row-range partition it produces depends only on (n, Cost, worker
// count), never on data, and every kernel's per-row math is
// chunk-boundary independent — results stay bit-identical.
func ParallelRowsCost(n int, c Cost, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := currentPool()
	if p.Workers() <= 1 || n*c.effFlops() < parallelCutoffWork {
		fn(0, n)
		return
	}
	p.ParallelRows(n, c.rowGrain(), fn)
}

// rowGrain is the row-chunk height for cost c: enough rows to carry
// chunkTargetWork, and at least c.MinRows.
func (c Cost) rowGrain() int {
	return max(chunkTargetWork/c.effFlops(), c.MinRows, 1)
}

// parallelGEMM shards the m×n output of a GEMM kernel over the worker
// pool and calls fn(ilo, ihi, jlo, jhi) for every owned block of rows
// [ilo, ihi) × logical columns [jlo, jhi). c is the per-output-row cost
// (MinRows set on the packed path); colGrain is the minimum column-chunk
// width. The partition is a function of (m, n, c, colGrain) only — see
// the row-vs-column rule in the header comment.
func parallelGEMM(m, n int, c Cost, colGrain int, fn func(ilo, ihi, jlo, jhi int)) {
	if m <= 0 || n <= 0 {
		return
	}
	eff := c.effFlops()
	p := currentPool()
	if p.Workers() <= 1 || m*eff < parallelCutoffWork {
		fn(0, m, 0, n)
		return
	}
	if grain := c.rowGrain(); m >= max(2*grain, packedMinDim) {
		p.ParallelRows(m, grain, func(lo, hi int) { fn(lo, hi, 0, n) })
		return
	}
	colEff := max(m*eff/n, 1)
	grain := roundUp(max(colGrain, chunkTargetWork/colEff), microNR)
	p.ParallelRows(n, grain, func(lo, hi int) { fn(0, m, lo, hi) })
}
