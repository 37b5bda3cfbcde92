package core

import (
	"fmt"
	"math"

	"samplednn/internal/nn"
	"samplednn/internal/obs/trace"
	"samplednn/internal/opt"
	"samplednn/internal/rng"
	"samplednn/internal/tensor"
)

// Dropout implements the Srivastava et al. method (§5.1): each hidden
// layer keeps every node independently with probability P per step, and
// only the kept nodes participate in the forward pass, backpropagation,
// and weight update. Kept activations are scaled by 1/P ("inverted
// dropout") so inference uses the unmodified network.
//
// The paper's experiments set P = 0.05 to match the ~5% active sets of
// ALSH-approx (§8.4), which is why DropoutS accuracy collapses on harder
// datasets in Table 2 — at that rate the kept set is random and tiny.
type Dropout struct {
	colSampler
	// P is the keep probability of each hidden node.
	P float64
}

// NewDropout wraps net in uniform node dropout with keep probability p.
func NewDropout(net *nn.Network, optim opt.Optimizer, p float64, g *rng.RNG) *Dropout {
	if net == nil || optim == nil || g == nil {
		panic("core: Dropout needs a network, optimizer, and RNG")
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("core: dropout keep probability %v must be in (0,1]", p))
	}
	d := &Dropout{P: p}
	d.colSampler = newColSampler("dropout", net, optim, g, d)
	return d
}

// keep draws every node of hidden layer i independently with
// probability P, padding an empty draw with one random node.
func (d *Dropout) keep(i int, _ *tensor.Matrix, g *rng.RNG, _ *keepScratch) []int {
	n := d.net.Layers[i].FanOut()
	cols := make([]int, 0, int(float64(n)*d.P)+4)
	for j := 0; j < n; j++ {
		if g.Bernoulli(d.P) {
			cols = append(cols, j)
		}
	}
	return padActive(cols, n, 1, 0, g)
}

// scale is the inverted-dropout factor 1/P.
func (d *Dropout) scale() float64 { return 1 / d.P }

// AdaptiveDropout implements the Ba-Frey "standout" sampler (§5.1): the
// keep probability of node j is a sigmoid of its own pre-activation,
// π_j = σ(Alpha·z_j + Beta), so nodes that would fire strongly are kept
// with high probability — a data-dependent approximation of the Bayesian
// posterior over architectures. This is what lets it avoid "randomly
// dropping significant nodes": useful nodes raise their own keep rate.
//
// Following Ba and Frey, training multiplies activations by the raw 0/1
// mask (no 1/π rescaling — at the paper's 5% base rate an inverted mask
// would amplify survivors 20x and drown the signal in noise), and
// inference uses the expectation network a = π(z) ⊙ f(z), exposed via
// PredictBatch.
//
// Computing π requires the full pre-activation vector, so unlike Dropout
// and ALSH-approx this method does all the forward work before discarding
// nodes — the computational overhead the paper measures in Table 4
// (Adaptive-Dropout slower per epoch than Standard).
type AdaptiveDropout struct {
	rngBase
	// Alpha scales and Beta shifts the standout sigmoid. Beta controls
	// the base keep rate: σ(Beta) is the keep probability of a neutral
	// node. The paper matches the 5% rate of ALSH-approx.
	Alpha, Beta float64

	masks []*tensor.Matrix
}

// NewAdaptiveDropout wraps net in standout sampling. baseKeep sets Beta =
// logit(baseKeep), so a node with zero pre-activation is kept with
// probability baseKeep.
func NewAdaptiveDropout(net *nn.Network, optim opt.Optimizer, alpha, baseKeep float64, g *rng.RNG) *AdaptiveDropout {
	if net == nil || optim == nil || g == nil {
		panic("core: AdaptiveDropout needs a network, optimizer, and RNG")
	}
	if baseKeep <= 0 || baseKeep >= 1 {
		panic(fmt.Sprintf("core: baseKeep %v must be in (0,1)", baseKeep))
	}
	return &AdaptiveDropout{
		rngBase: rngBase{base{name: "adaptive-dropout", axis: AxisColumns, net: net, optim: optim}, g},
		Alpha:   alpha,
		Beta:    math.Log(baseKeep / (1 - baseKeep)),
		masks:   make([]*tensor.Matrix, len(net.Layers)),
	}
}

// keepProb returns π = σ(Alpha·z + Beta).
func (a *AdaptiveDropout) keepProb(z float64) float64 {
	v := a.Alpha*z + a.Beta
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// Step performs one standout-sampled training pass with 0/1 masks.
func (a *AdaptiveDropout) Step(x *tensor.Matrix, y []int) float64 {
	tr := trace.Active()
	layers := a.net.Layers
	last := len(layers) - 1

	c := startClock()
	act := x
	for i, l := range layers {
		sp := tr.BeginLayer("forward", "layer", i)
		act = l.Forward(act) // full pre-activations needed for π
		sp.End()
		if i == last {
			continue
		}
		if a.masks[i] == nil || a.masks[i].Rows != act.Rows || a.masks[i].Cols != act.Cols {
			a.masks[i] = tensor.New(act.Rows, act.Cols)
		}
		mask := a.masks[i]
		for k, z := range l.Z.Data {
			if a.g.Bernoulli(a.keepProb(z)) {
				mask.Data[k] = 1
			} else {
				mask.Data[k] = 0
			}
		}
		// The masked activation feeds the next layer; l.A itself stays
		// unmasked so the activation derivative in the backward pass is
		// computed from the true f(z).
		act = tensor.Hadamard(l.A, mask)
	}
	logits := act
	loss := a.net.Head.Loss(logits, y)
	c.lap(&a.timing.Forward)

	delta := a.net.Head.Delta(logits, y)
	for i := last; i >= 0; i-- {
		sp := tr.BeginLayer("backward", "layer", i)
		l := layers[i]
		grads, dPrev := l.Backward(delta)
		a.optim.Step(i, l.W, l.B, grads)
		if i > 0 {
			below := layers[i-1]
			// Gradient flows only through kept nodes, with the same
			// inverted scaling the forward applied.
			tensor.HadamardInPlace(dPrev, a.masks[i-1])
			dPrev = applyDerivative(below, dPrev)
			delta = dPrev
		}
		sp.End()
	}
	c.lap(&a.timing.Backward)
	return loss
}

// ApproxForward replays the standout-sampled feedforward on x: each
// hidden node is kept with its data-dependent probability π = σ(αz+β),
// drawn from g, and survivors pass through unscaled (the Ba-Frey
// training rule). All state is local.
func (a *AdaptiveDropout) ApproxForward(x *tensor.Matrix, g *rng.RNG) []*tensor.Matrix {
	layers := a.net.Layers
	last := len(layers) - 1
	out := make([]*tensor.Matrix, len(layers))
	act := x
	for i, l := range layers {
		z := tensor.MatMul(act, l.W)
		z.AddRowVector(l.B)
		h := l.Act.Forward(z)
		if i != last {
			for k, zv := range z.Data {
				if !g.Bernoulli(a.keepProb(zv)) {
					h.Data[k] = 0
				}
			}
		}
		out[i] = h
		act = h
	}
	return out
}

// PredictBatch runs the standout expectation network: each hidden
// activation is scaled by its keep probability, a = π(z) ⊙ f(z), the
// Ba-Frey test-time rule. Trainers and evaluators should prefer this
// over the plain network forward.
func (a *AdaptiveDropout) PredictBatch(x *tensor.Matrix) []int {
	layers := a.net.Layers
	last := len(layers) - 1
	act := x
	for i, l := range layers {
		z := tensor.MatMul(act, l.W)
		z.AddRowVector(l.B)
		out := l.Act.Forward(z)
		if i != last {
			for k, zv := range z.Data {
				out.Data[k] *= a.keepProb(zv)
			}
		}
		act = out
	}
	return a.net.Head.Predictions(act)
}
