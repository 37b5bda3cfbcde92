package core

import (
	"samplednn/internal/nn"
	"samplednn/internal/opt"
	"samplednn/internal/tensor"
)

// Standard trains with exact feedforward and backpropagation — the
// paper's STANDARD baseline ("training the neural network without
// sampling").
type Standard struct {
	base
}

// NewStandard wraps a network and optimizer in the exact training method.
func NewStandard(net *nn.Network, optim opt.Optimizer) *Standard {
	if net == nil || optim == nil {
		panic("core: Standard needs a network and an optimizer")
	}
	return &Standard{base{name: "standard", axis: AxisNone, net: net, optim: optim}}
}

// Step performs one exact forward/backward/update pass.
func (s *Standard) Step(x *tensor.Matrix, y []int) float64 {
	loss, grads := s.ComputeGrads(x, y)
	s.ApplyGrads(grads)
	return loss
}

// ComputeGrads runs the exact forward and backward pass on one batch,
// returning the loss and per-layer gradients without updating weights —
// the export half of the core.GradComputer seam distributed training
// uses.
func (s *Standard) ComputeGrads(x *tensor.Matrix, y []int) (float64, []nn.Grads) {
	c := startClock()
	logits := s.net.Forward(x)
	loss := s.net.Head.Loss(logits, y)
	c.lap(&s.timing.Forward)
	grads := s.net.Backward(logits, y)
	c.lap(&s.timing.Backward)
	return loss, grads
}

// ApplyGrads feeds one gradient per layer through the optimizer,
// updating the weights in place — the import half of core.GradComputer.
func (s *Standard) ApplyGrads(grads []nn.Grads) {
	c := startClock()
	for i, l := range s.net.Layers {
		s.optim.Step(i, l.W, l.B, grads[i])
	}
	c.lap(&s.timing.Backward)
}
