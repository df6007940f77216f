package ssa

import "lowutil/internal/ir"

// Sparse conditional constant propagation (Wegman–Zadeck) over the SSA
// overlay: a three-level lattice per value (unknown / constant / overdefined)
// plus per-edge executability, iterated with the classic twin worklists. The
// transfer functions mirror internal/interp's semantics *exactly* — division
// or remainder by a constant zero, or arithmetic on references, folds to
// overdefined rather than to a value, and shifts mask their count to 63 the
// way the interpreter does — so a "constant" verdict is a theorem about every
// execution, and an unexecutable verdict is safe to use for pruning the
// static cost bounds.

// cellState is the SCCP lattice level of one value.
type cellState uint8

const (
	top cellState = iota // no evidence yet (unknown)
	constant
	bottom // overdefined
)

// Const is a compile-time constant: an int or the null reference.
type Const struct {
	IsNull bool
	I      int64
}

type cell struct {
	state cellState
	c     Const
}

// SCCP holds the fixpoint of sparse conditional constant propagation.
type SCCP struct {
	F *Func

	cells []cell
	// BlockExec[b] reports whether any execution can reach block b. It
	// refines CFG reachability: blocks guarded by constant-false branches
	// are reachable in the CFG but not executable.
	BlockExec []bool
	// edgeExec[b][k] reports executability of the k-th successor edge of b.
	edgeExec [][]bool
}

// ParamFact is an interprocedural fact about one parameter: the value every
// executable call site passes, when that value is one known constant. The
// caller of RunSCCPSeeded owns the proof obligation — a wrong fact makes
// "constant" and "unexecutable" verdicts unsound.
type ParamFact struct {
	Known bool
	C     Const
}

// RunSCCP computes sparse conditional constants and edge executability for f,
// assuming nothing about parameters.
func RunSCCP(f *Func) *SCCP { return RunSCCPSeeded(f, nil) }

// RunSCCPSeeded is RunSCCP with interprocedural parameter facts: parameter
// slot i is seeded with params[i]'s constant when Known, and overdefined
// otherwise. A nil or short params slice leaves the remaining parameters
// overdefined.
func RunSCCPSeeded(f *Func, params []ParamFact) *SCCP {
	s := &SCCP{
		F:         f,
		cells:     make([]cell, len(f.Vals)),
		BlockExec: make([]bool, f.CFG.NumBlocks()),
		edgeExec:  make([][]bool, f.CFG.NumBlocks()),
	}
	for b := range s.edgeExec {
		s.edgeExec[b] = make([]bool, len(f.CFG.Blocks[b].Succs))
	}
	// Undef arguments stay top until ignored; undef *values* are overdefined
	// from the start: the interpreter materializes a zero Value on the
	// uninitialized path, and treating that as a known constant would let a
	// may-uninitialized path constant-fold — unsound for pruning. Parameters
	// are overdefined unless a caller-supplied fact pins them.
	for v := range f.Vals {
		switch f.Vals[v].Kind {
		case VParam:
			if slot := f.Vals[v].Slot; slot < len(params) && params[slot].Known {
				s.cells[v] = cell{state: constant, c: params[slot].C}
			} else {
				s.cells[v].state = bottom
			}
		case VUndef:
			s.cells[v].state = bottom
		}
	}
	s.run()
	return s
}

// Executable reports whether the instruction at pc can execute: its block is
// executable (which implies CFG-reachable).
func (s *SCCP) Executable(pc int) bool { return s.BlockExec[s.F.CFG.BlockOf[pc]] }

// EdgeExecutable reports executability of the k-th successor edge of block b.
func (s *SCCP) EdgeExecutable(b, k int) bool { return s.edgeExec[b][k] }

// PhiArgExecutable reports whether the phi argument j of a phi in block b can
// flow: the j-th predecessor edge is executable.
func (s *SCCP) PhiArgExecutable(b, j int) bool {
	preds := s.F.CFG.Blocks[b].Preds
	if j >= len(preds) {
		// The virtual function-entry argument of an entry phi: always flows.
		return true
	}
	p := preds[j]
	// Find which successor edge of p this predecessor occurrence is; the
	// edgeArg mapping is not kept, so test all p→b edges: the argument can
	// flow if any executable edge p→b exists with matching occurrence. Since
	// duplicate p→b edges carry identical values, any-executable is exact.
	if !s.BlockExec[p] {
		return false
	}
	for k, t := range s.F.CFG.Blocks[p].Succs {
		if t == b && s.edgeExec[p][k] {
			return true
		}
	}
	return false
}

// ConstOf returns the constant value of v, if SCCP proved one.
func (s *SCCP) ConstOf(v ValID) (Const, bool) {
	if v == None {
		return Const{}, false
	}
	c := s.cells[v]
	return c.c, c.state == constant
}

// NumConsts counts the values proven constant (stats, benchmarks, dumps).
func (s *SCCP) NumConsts() int {
	n := 0
	for _, c := range s.cells {
		if c.state == constant {
			n++
		}
	}
	return n
}

func (s *SCCP) run() {
	f := s.F
	type edge struct{ b, k int }
	var flowWork []edge
	var ssaWork []ValID

	// meet lowers value v to at least (state, c); returns true on change.
	meet := func(v ValID, st cellState, c Const) bool {
		cur := &s.cells[v]
		switch {
		case st == top || cur.state == bottom:
			return false
		case cur.state == top:
			cur.state, cur.c = st, c
			return true
		case st == bottom, cur.c != c:
			cur.state = bottom
			return true
		default:
			return false
		}
	}
	lower := func(v ValID, st cellState, c Const) {
		if meet(v, st, c) {
			ssaWork = append(ssaWork, v)
		}
	}

	visitPhi := func(pv ValID) {
		val := &f.Vals[pv]
		st, c := top, Const{}
		for j, a := range val.Args {
			if a == None || !s.PhiArgExecutable(val.Block, j) {
				continue
			}
			ac := s.cells[a]
			switch {
			case ac.state == top:
				// no evidence from this edge yet
			case st == top:
				st, c = ac.state, ac.c
			case ac.state == bottom || ac.c != c:
				st = bottom
			}
		}
		lower(pv, st, c)
	}

	visitInstr := func(pc int) {
		in := &f.M.Code[pc]
		// Branches decide edge executability; other instructions produce a
		// lattice value for their definition.
		b := f.CFG.BlockOf[pc]
		if pc == f.CFG.Blocks[b].Last() {
			switch in.Op {
			case ir.OpIf:
				taken, fall := s.evalIf(in, f.Operands[pc])
				if taken && !s.edgeExec[b][0] {
					s.edgeExec[b][0] = true
					flowWork = append(flowWork, edge{b, 0})
				}
				if fall && len(s.edgeExec[b]) > 1 && !s.edgeExec[b][1] {
					s.edgeExec[b][1] = true
					flowWork = append(flowWork, edge{b, 1})
				}
			default:
				for k := range s.edgeExec[b] {
					if !s.edgeExec[b][k] {
						s.edgeExec[b][k] = true
						flowWork = append(flowWork, edge{b, k})
					}
				}
			}
		}
		v := f.DefOf[pc]
		if v == None {
			return
		}
		st, c := s.evalInstr(in, f.Operands[pc])
		lower(v, st, c)
	}

	visitBlock := func(b int) {
		for _, pv := range f.Phis[b] {
			visitPhi(pv)
		}
		blk := &f.CFG.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			visitInstr(pc)
		}
	}

	s.BlockExec[0] = true
	visitBlock(0)
	for len(flowWork) > 0 || len(ssaWork) > 0 {
		if n := len(flowWork); n > 0 {
			e := flowWork[n-1]
			flowWork = flowWork[:n-1]
			t := f.CFG.Blocks[e.b].Succs[e.k]
			if !s.BlockExec[t] {
				s.BlockExec[t] = true
				visitBlock(t)
			} else {
				// A newly executable edge into an already-executable block
				// can change its phis.
				for _, pv := range f.Phis[t] {
					visitPhi(pv)
				}
			}
			continue
		}
		n := len(ssaWork)
		v := ssaWork[n-1]
		ssaWork = ssaWork[:n-1]
		for _, u := range f.Uses(v) {
			if u.IsPhi() {
				pb := f.Vals[u.Phi].Block
				if s.BlockExec[pb] {
					visitPhi(u.Phi)
				}
			} else if s.Executable(u.PC) {
				visitInstr(u.PC)
			}
		}
	}
}

// evalInstr is the per-opcode transfer function: the lattice value of the
// instruction's definition given its operand cells.
func (s *SCCP) evalInstr(in *ir.Instr, ops []ValID) (cellState, Const) {
	get := func(i int) cell {
		if i >= len(ops) {
			return cell{state: bottom}
		}
		return s.cells[ops[i]]
	}
	switch in.Op {
	case ir.OpConst:
		if in.IsNull {
			return constant, Const{IsNull: true}
		}
		return constant, Const{I: in.Imm}
	case ir.OpMove:
		c := get(0)
		return c.state, c.c
	case ir.OpNeg:
		c := get(0)
		if c.state != constant || c.c.IsNull {
			return degrade(c.state), Const{}
		}
		return constant, Const{I: -c.c.I}
	case ir.OpNot:
		// Mirrors Value.Truthy: null and zero are falsy.
		c := get(0)
		if c.state != constant {
			return degrade(c.state), Const{}
		}
		if c.c.IsNull || c.c.I == 0 {
			return constant, Const{I: 1}
		}
		return constant, Const{I: 0}
	case ir.OpBin:
		a, b := get(0), get(1)
		if a.state == constant && b.state == constant && !a.c.IsNull && !b.c.IsNull {
			if r, ok := foldBin(in.Bin(), a.c.I, b.c.I); ok {
				return constant, Const{I: r}
			}
			return bottom, Const{} // division by zero: a runtime error, not a value
		}
		if a.state == bottom || b.state == bottom || a.c.IsNull || b.c.IsNull {
			return bottom, Const{}
		}
		return top, Const{}
	default:
		// Loads, allocations, calls, natives, instanceof, array lengths:
		// no static value.
		return bottom, Const{}
	}
}

// degrade maps an operand state to a result state for strict unary ops.
func degrade(st cellState) cellState {
	if st == top {
		return top
	}
	return bottom
}

// foldBin folds a binary op with the interpreter's exact semantics. ok is
// false for division or remainder by zero (a runtime error path).
func foldBin(op ir.BinOp, a, b int64) (int64, bool) {
	switch op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.Shl:
		return a << (uint64(b) & 63), true
	case ir.Shr:
		return a >> (uint64(b) & 63), true
	}
	return 0, false
}

// evalIf decides which successor edges of a predicate can execute. Both, when
// the comparison cannot be folded.
func (s *SCCP) evalIf(in *ir.Instr, ops []ValID) (taken, fall bool) {
	if len(ops) < 2 {
		return true, true
	}
	a, b := s.cells[ops[0]], s.cells[ops[1]]
	if a.state == top || b.state == top {
		// No evidence yet: hold both edges back until the operands resolve.
		return false, false
	}
	if a.state != constant || b.state != constant {
		return true, true
	}
	res, ok := foldCmp(in.Cmp(), a.c, b.c)
	if !ok {
		return true, true
	}
	return res, !res
}

// foldCmp mirrors Machine.compare. Ordered comparisons involving null are
// runtime errors — not foldable, both edges stay alive (conservative: the
// execution in fact stops there, so keeping successors executable only
// loosens, never breaks, the unreachability verdicts).
func foldCmp(cmp ir.Cmp, a, b Const) (bool, bool) {
	if a.IsNull || b.IsNull {
		if cmp != ir.Eq && cmp != ir.Ne {
			return false, false
		}
		if a.IsNull != b.IsNull {
			// null vs int: tolerated as inequality, like ref-vs-int.
			return cmp == ir.Ne, true
		}
		return cmp == ir.Eq, true // null == null
	}
	switch cmp {
	case ir.Eq:
		return a.I == b.I, true
	case ir.Ne:
		return a.I != b.I, true
	case ir.Lt:
		return a.I < b.I, true
	case ir.Le:
		return a.I <= b.I, true
	case ir.Gt:
		return a.I > b.I, true
	case ir.Ge:
		return a.I >= b.I, true
	}
	return false, false
}
