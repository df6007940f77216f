// Package taint implements the naive cumulative cost tracking that Figure 1
// of the paper uses as a negative baseline: each storage location carries a
// scalar "cost so far", and an instruction's destination cost is the sum of
// its operand costs plus one.
//
// This double-counts shared sub-computations (the paper's t_b = 8 for a
// five-instruction program) and can overflow 64-bit counters on real
// programs; the tests and benchmarks contrast it with slicing-based cost,
// which counts each contributing instruction once.
package taint

import (
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/shadow"
)

// Tracker is an interp.Tracer that performs taint-like cumulative cost
// tracking: a rule over the shadow tracer whose cells are costs. Costs
// saturate at MaxCost instead of overflowing.
type Tracker struct {
	*shadow.Tracer[uint64]
	// Overflowed reports whether any cost saturated.
	Overflowed bool
}

// MaxCost is the saturation bound.
const MaxCost = ^uint64(0) >> 1

// New returns a Tracker for prog.
func New(prog *ir.Program) *Tracker {
	t := &Tracker{}
	t.Tracer = shadow.New[uint64](prog, t)
	return t
}

// CostOf returns the tracked cumulative cost of local slot s in fr.
func (t *Tracker) CostOf(fr *interp.Frame, s int) uint64 { return t.Local(fr, s) }

// Cell is f_a: a value costs one plus the costs of its inputs, summed
// with saturation. An array's length costs one whatever the array cost.
func (t *Tracker) Cell(in *ir.Instr, _ *interp.Object, _ interp.Value, ops []uint64) uint64 {
	c := uint64(1)
	if in.Op == ir.OpArrayLen {
		return c
	}
	for _, op := range ops {
		if c += op; c > MaxCost {
			t.Overflowed = true
			c = MaxCost
		}
	}
	return c
}
