package core

import (
	"fmt"
	"sort"

	"samplednn/internal/approxmm"
	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// MCWhere selects which passes MC-approx approximates. The paper's
// evaluated configuration is backward-only (§10.1): Adelman et al. found
// feedforward approximation fails in practice for MLPs, so approximation
// is applied to the two backpropagation products per layer.
type MCWhere int

// Approximation placements.
const (
	// MCBackward approximates only backpropagation (the paper's MC-approx).
	MCBackward MCWhere = iota
	// MCForward approximates only the feedforward pass — the variant the
	// §7/§10.1 analysis predicts will fail; kept for the ablation.
	MCForward
	// MCBoth approximates both passes — biased per Adelman et al.
	MCBoth
)

// String names the placement.
func (w MCWhere) String() string {
	switch w {
	case MCBackward:
		return "backward"
	case MCForward:
		return "forward"
	case MCBoth:
		return "both"
	}
	return fmt.Sprintf("MCWhere(%d)", int(w))
}

// MCEstimator selects how column-row pairs are drawn, mirroring the
// approxmm estimators: the paper's MC-approx uses the Adelman Bernoulli
// scheme (§6.2), the Drineas CR scheme (§6.1) is its predecessor, and
// deterministic top-k is the biased low-variance alternative.
type MCEstimator int

// Supported estimators.
const (
	// MCBernoulli keeps pair i with probability p_i = min(k·w_i/Σw, 1),
	// scaled by 1/p_i (Eq. 7) — the paper's configuration.
	MCBernoulli MCEstimator = iota
	// MCCR draws k pairs i.i.d. with probability w_i/Σw, each scaled by
	// 1/(k·p_i) (Eq. 6).
	MCCR
	// MCTopK keeps the k heaviest pairs unscaled (biased).
	MCTopK
)

// String names the estimator.
func (e MCEstimator) String() string {
	switch e {
	case MCBernoulli:
		return "bernoulli"
	case MCCR:
		return "cr"
	case MCTopK:
		return "topk"
	}
	return fmt.Sprintf("MCEstimator(%d)", int(e))
}

// MCConfig tunes the Monte-Carlo trainer.
type MCConfig struct {
	// K is the column-row sample count per approximated product
	// (paper default: 10, with batch size 20).
	K int
	// Where selects the approximated passes; default MCBackward.
	Where MCWhere
	// Estimator selects the sampling scheme; default MCBernoulli.
	Estimator MCEstimator
}

// MCApprox is the Adelman et al. trainer (§6.2, MC-approx in the paper):
// matrix products are estimated by sampling column-row pairs with the
// Eq. 7 probabilities p_i ∝ ||A[:,i]||·||B[i,:]|| and rescaling survivors
// by 1/p_i, which keeps the gradient estimate unbiased.
//
// In the default backward-only placement each layer approximates
//
//	∂L/∂a_prev = delta · Wᵀ   — sampling over the layer's nodes, and
//	∂L/∂W      = aᵀ · delta   — sampling over the batch dimension,
//
// which is why the method needs a real mini-batch: with batch size 1 the
// second product has a single column-row pair, so sampling degenerates
// while the probability computation still pays a full pass over W — the
// §9.3 finding that MC-approxS is slower than StandardS.
type MCApprox struct {
	rngBase
	cfg MCConfig
}

// NewMCApprox wraps net in Monte-Carlo approximate training.
func NewMCApprox(net *nn.Network, optim opt.Optimizer, cfg MCConfig, g *rng.RNG) *MCApprox {
	if net == nil || optim == nil || g == nil {
		panic("core: MCApprox needs a network, optimizer, and RNG")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	return &MCApprox{rngBase{base{name: "mc", axis: AxisRows, net: net, optim: optim}, g}, cfg}
}

// Step performs one MC-approximated training pass.
func (m *MCApprox) Step(x *tensor.Matrix, y []int) float64 {
	c := startClock()
	var logits *tensor.Matrix
	if m.cfg.Where == MCForward || m.cfg.Where == MCBoth {
		logits = m.forwardApprox(x)
	} else {
		logits = m.net.Forward(x)
	}
	loss := m.net.Head.Loss(logits, y)
	c.lap(&m.timing.Forward)

	if m.cfg.Where == MCForward {
		// Exact backpropagation through the approximate forward caches.
		grads := m.net.Backward(logits, y)
		for i, l := range m.net.Layers {
			m.optim.Step(i, l.W, l.B, grads[i])
		}
	} else {
		m.backwardApprox(logits, y)
	}
	c.lap(&m.timing.Backward)
	return loss
}

// forwardApprox estimates each layer's z = a·W + b by sampling the inner
// dimension (the previous layer's nodes), then applies the activation
// exactly. Layer caches are populated with the approximate values, which
// is precisely the error-compounding mechanism Theorem 7.2 analyzes.
func (m *MCApprox) forwardApprox(x *tensor.Matrix) *tensor.Matrix {
	a := x
	for _, l := range m.net.Layers {
		l.In = a
		l.Z = m.estimateProduct(a, l.W, m.g)
		l.Z.AddRowVector(l.B)
		l.A = l.Act.Forward(l.Z)
		a = l.A
	}
	return a
}

// ApproxForward estimates every layer's product by column-row sampling
// drawn from g, without writing the layer caches. For the paper's
// backward-only MC-approx this is a counterfactual: the probe uses it to
// show what feedforward error the estimator *would* compound (the §10.1
// rationale for keeping the forward pass exact), while the MCForward and
// MCBoth ablations actually train through it.
func (m *MCApprox) ApproxForward(x *tensor.Matrix, g *rng.RNG) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(m.net.Layers))
	act := x
	for i, l := range m.net.Layers {
		z := m.estimateProduct(act, l.W, g)
		z.AddRowVector(l.B)
		act = l.Act.Forward(z)
		out[i] = act
	}
	return out
}

// samplePairs draws shared-dimension indices and their rescaling factors
// according to the configured estimator, using g for randomness.
// Duplicate CR draws are merged into one index, listed in first-draw
// order so the caller's summation order is reproducible. The RNG
// is an explicit parameter so diagnostic passes (the error-compounding
// probe) can sample without perturbing the training stream.
func (m *MCApprox) samplePairs(w []float64, k int, g *rng.RNG) (idx []int, scales []float64) {
	switch m.cfg.Estimator {
	case MCCR:
		table, err := rng.NewAlias(w)
		if err != nil {
			return nil, nil // all-zero signal: the product is zero
		}
		pos := make(map[int]int, k)
		inv := 1 / float64(k)
		for t := 0; t < k; t++ {
			i := table.Draw(g)
			p, ok := pos[i]
			if !ok {
				p = len(idx)
				pos[i] = p
				idx = append(idx, i)
				scales = append(scales, 0)
			}
			scales[p] += inv / table.Prob(i)
		}
		return idx, scales
	case MCTopK:
		order := make([]int, len(w))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool { return w[order[x]] > w[order[y]] })
		if k > len(order) {
			k = len(order)
		}
		idx = order[:k]
		scales = make([]float64, k)
		for i := range scales {
			scales[i] = 1
		}
		return idx, scales
	default: // MCBernoulli
		p := approxmm.KeepProbabilities(w, k)
		for i, pi := range p {
			if pi <= 0 {
				continue
			}
			if pi >= 1 || g.Bernoulli(pi) {
				idx = append(idx, i)
				scales = append(scales, 1/pi)
			}
		}
		return idx, scales
	}
}

// estimateProduct returns the sampled estimate of a·b over their shared
// dimension, drawing the sample from g.
func (m *MCApprox) estimateProduct(a, b *tensor.Matrix, g *rng.RNG) *tensor.Matrix {
	defer trace.Active().Begin("amm", "product").WithArg("k", int64(m.cfg.K)).End()
	// Pair weights over the shared dimension.
	ca := a.ColNorms()
	rb := b.RowNorms()
	w := make([]float64, len(ca))
	for i := range w {
		w[i] = ca[i] * rb[i]
	}
	idx, scales := m.samplePairs(w, m.cfg.K, g)
	out := tensor.New(a.Rows, b.Cols)
	for s, i := range idx {
		scale := scales[s]
		brow := b.RowView(i)
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i] * scale
			if av != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(av, brow, out.RowView(r))
			}
		}
	}
	return out
}

// backwardApprox runs backpropagation with both per-layer products
// estimated by column-row sampling.
func (m *MCApprox) backwardApprox(logits *tensor.Matrix, y []int) {
	layers := m.net.Layers
	delta := m.net.Head.Delta(logits, y)
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		grads := m.estimateGradW(l, delta)
		var dPrev *tensor.Matrix
		if i > 0 {
			dPrev = m.estimateDeltaPrev(l, delta)
		}
		m.optim.Step(i, l.W, l.B, grads)
		if i > 0 {
			below := layers[i-1]
			delta = applyDerivative(below, dPrev)
		}
	}
}

// estimateGradW estimates ∂L/∂W = Inᵀ·delta by sampling the batch
// dimension: pair weights are ||In_row_i||·||delta_row_i||. With batch
// size ≤ K the estimate is exact (every pair kept), reproducing the
// paper's observation that the stochastic setting gets no benefit here.
func (m *MCApprox) estimateGradW(l *nn.Layer, delta *tensor.Matrix) nn.Grads {
	defer trace.Active().Begin("amm", "grad-w").WithArg("k", int64(m.cfg.K)).End()
	batch := delta.Rows
	w := make([]float64, batch)
	for i := 0; i < batch; i++ {
		w[i] = tensor.Norm(l.In.RowView(i)) * tensor.Norm(delta.RowView(i))
	}
	idx, scales := m.samplePairs(w, m.cfg.K, m.g)
	gw := tensor.New(l.FanIn(), l.FanOut())
	gb := make([]float64, l.FanOut())
	for s, i := range idx {
		scale := scales[s]
		inRow := l.In.RowView(i)
		dRow := delta.RowView(i)
		for r, av := range inRow {
			if av != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(av*scale, dRow, gw.RowView(r))
			}
		}
		tensor.Axpy(scale, dRow, gb)
	}
	return nn.Grads{W: gw, B: gb}
}

// estimateDeltaPrev estimates ∂L/∂a_prev = delta·Wᵀ by sampling this
// layer's nodes: pair weights are ||delta[:,j]||·||W[:,j]||. Computing
// the W column norms costs a full pass over W per step — the fixed
// overhead that dominates when the batch is small (§9.3).
func (m *MCApprox) estimateDeltaPrev(l *nn.Layer, delta *tensor.Matrix) *tensor.Matrix {
	defer trace.Active().Begin("amm", "grad-prev").WithArg("k", int64(m.cfg.K)).End()
	cd := delta.ColNorms()
	cw := l.W.ColNorms()
	w := make([]float64, len(cd))
	for j := range w {
		w[j] = cd[j] * cw[j]
	}
	idx, scales := m.samplePairs(w, m.cfg.K, m.g)
	out := tensor.New(delta.Rows, l.FanIn())
	col := make([]float64, l.FanIn())
	for s, j := range idx {
		scale := scales[s]
		// col = W[:,j]; out_row_i += delta[i][j]·scale · col.
		for i := 0; i < l.FanIn(); i++ {
			col[i] = l.W.Data[i*l.W.Cols+j]
		}
		for i := 0; i < delta.Rows; i++ {
			dv := delta.Data[i*delta.Cols+j] * scale
			if dv != 0 { //lint:ignore float-equality structural-zero skip pinned by estimator semantics; compares exact zeros, not rounded values
				tensor.Axpy(dv, col, out.RowView(i))
			}
		}
	}
	return out
}
