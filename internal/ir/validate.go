package ir

import "fmt"

// Validate checks structural well-formedness of p's method bodies. Seal runs
// it automatically; transformation passes that rewrite bodies in place (SSA
// destruction) call it again, after Reindex, to prove the rewritten program
// is still well formed.
func Validate(p *Program) error { return p.validate() }

// Reindex rebuilds the program-wide instruction metadata after method bodies
// have been rewritten in place: Instrs, AllocSites, and every instruction's
// ID, PC, Method back-pointer and AllocSite index are recomputed with the
// same numbering scheme Seal uses. Class, method and field IDs are untouched
// (passes may not add or remove declarations, only rewrite bodies).
func (p *Program) Reindex() {
	var n, allocs int
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			n += len(m.Code)
			for i := range m.Code {
				if m.Code[i].IsAlloc() {
					allocs++
				}
			}
		}
	}
	p.Instrs = make([]*Instr, 0, n)
	p.AllocSites = make([]*Instr, 0, allocs)
	p.number()
}

// number appends every instruction to Instrs and every allocation to
// AllocSites, in class and method order, and sets each instruction's ID,
// Method, PC and AllocSite to match. Both tables arrive empty, with room
// for exactly what they will hold.
func (p *Program) number() {
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			for i := range m.Code {
				in := &m.Code[i]
				in.ID = int32(len(p.Instrs))
				in.Method = m
				in.PC = int32(i)
				in.AllocSite = -1
				if in.IsAlloc() {
					in.AllocSite = int32(len(p.AllocSites))
					p.AllocSites = append(p.AllocSites, in)
				}
				p.Instrs = append(p.Instrs, in)
			}
		}
	}
}

// validate checks structural well-formedness of every method body: branch
// targets in range, operand slots in range, bodies terminated, calls
// argument-count-consistent. It does not type-check locals (the MJ front end
// does that before lowering; hand-built programs get dynamic checks from the
// interpreter).
func (p *Program) validate() error {
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			if err := validateMethod(m); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateMethod(m *Method) error {
	n := len(m.Code)
	if n == 0 {
		return fmt.Errorf("ir: %s: empty body", m.QualifiedName())
	}
	// The frame must hold every parameter: callers copy argument i into slot
	// i unconditionally, and the dataflow passes hand parameters pseudo-defs
	// numbered from NumLocals — both index out of range when a hand-built
	// method understates its frame size.
	if m.NumLocals < m.Params {
		return fmt.Errorf("ir: %s: %d locals cannot hold %d parameters",
			m.QualifiedName(), m.NumLocals, m.Params)
	}
	errf := func(pc int, format string, args ...any) error {
		return fmt.Errorf("ir: %s pc %d (%s): %s", m.QualifiedName(), pc, m.Code[pc].String(), fmt.Sprintf(format, args...))
	}
	checkSlot := func(pc int, s int32, what string) error {
		if s < 0 || int(s) >= m.NumLocals {
			return errf(pc, "%s slot %d out of range [0,%d)", what, s, m.NumLocals)
		}
		return nil
	}
	for pc := range m.Code {
		in := &m.Code[pc]
		switch in.Op {
		case OpIf, OpGoto:
			if in.Target < 0 || int(in.Target) >= n {
				return errf(pc, "branch target %d out of range [0,%d)", in.Target, n)
			}
		}
		if in.Dst >= 0 {
			if err := checkSlot(pc, in.Dst, "dst"); err != nil {
				return err
			}
		}
		// Operand presence per opcode.
		switch in.Op {
		case OpMove, OpNeg, OpNot, OpArrayLen, OpNewArray:
			if err := checkSlot(pc, in.A, "a"); err != nil {
				return err
			}
		case OpBin, OpALoad, OpIf:
			if err := checkSlot(pc, in.A, "a"); err != nil {
				return err
			}
			if err := checkSlot(pc, in.B, "b"); err != nil {
				return err
			}
		case OpLoadField:
			if err := checkSlot(pc, in.A, "base"); err != nil {
				return err
			}
			if in.Field() == nil {
				return errf(pc, "nil field")
			}
		case OpStoreField:
			if err := checkSlot(pc, in.A, "base"); err != nil {
				return err
			}
			if err := checkSlot(pc, in.B, "src"); err != nil {
				return err
			}
			if in.Field() == nil {
				return errf(pc, "nil field")
			}
		case OpLoadStatic:
			if in.Static() == nil {
				return errf(pc, "nil static")
			}
		case OpStoreStatic:
			if in.Static() == nil {
				return errf(pc, "nil static")
			}
			if err := checkSlot(pc, in.A, "src"); err != nil {
				return err
			}
		case OpAStore:
			if err := checkSlot(pc, in.A, "arr"); err != nil {
				return err
			}
			if err := checkSlot(pc, in.B, "idx"); err != nil {
				return err
			}
			if err := checkSlot(pc, in.C2, "src"); err != nil {
				return err
			}
		case OpNew, OpInstanceOf:
			if in.Class() == nil {
				return errf(pc, "nil class")
			}
		case OpCall:
			callee := in.Callee()
			if callee == nil {
				return errf(pc, "nil callee")
			}
			if len(in.Args()) != callee.Params {
				return errf(pc, "call passes %d args, callee %s takes %d",
					len(in.Args()), callee.QualifiedName(), callee.Params)
			}
			if in.Dst >= 0 && callee.Returns == nil {
				return errf(pc, "call stores result of void method %s", callee.QualifiedName())
			}
			for _, a := range in.Args() {
				if err := checkSlot(pc, a, "arg"); err != nil {
					return err
				}
			}
		case OpNative:
			for _, a := range in.Args() {
				if err := checkSlot(pc, a, "arg"); err != nil {
					return err
				}
			}
		case OpReturn:
			if in.HasA {
				if m.Returns == nil {
					return errf(pc, "value return from void method")
				}
				if err := checkSlot(pc, in.A, "ret"); err != nil {
					return err
				}
			} else if m.Returns != nil {
				return errf(pc, "void return from value-returning method")
			}
		}
	}
	// Control-flow checks run over the method's CFG: no reachable block may
	// fall off the end of the body, and no reachable read may be of a slot
	// that no path initializes.
	cfg := NewCFG(m)
	for _, b := range cfg.RPO {
		if cfg.Blocks[b].FallsOff {
			return fmt.Errorf("ir: %s: control falls off the end of the body", m.QualifiedName())
		}
	}
	if err := checkInitialized(m, cfg); err != nil {
		return err
	}
	return nil
}

// checkInitialized rejects reads of slots that no control-flow path
// initializes: a forward may-initialized dataflow (union over predecessors,
// parameters initialized at entry) over the CFG's reachable blocks. A read
// outside the may-set means every path to it — including branches that jump
// over would-be initializations — bypasses the slot's definition. The
// interpreter would silently produce a zero value there; such bodies are
// builder bugs, so they are rejected at seal time.
func checkInitialized(m *Method, cfg *CFG) error {
	nb := cfg.NumBlocks()
	if nb == 0 {
		return nil
	}
	words := (m.NumLocals + 63) / 64
	in := make([][]uint64, nb)
	out := make([][]uint64, nb)
	for i := 0; i < nb; i++ {
		in[i] = make([]uint64, words)
		out[i] = make([]uint64, words)
	}
	has := func(set []uint64, s int) bool { return set[s/64]&(1<<(s%64)) != 0 }
	add := func(set []uint64, s int) { set[s/64] |= 1 << (s % 64) }

	changed := true
	for changed {
		changed = false
		for _, b := range cfg.RPO {
			blk := &cfg.Blocks[b]
			cur := in[b]
			for w := range cur {
				cur[w] = 0
			}
			// Union over predecessors; unreachable preds have empty out-sets
			// and contribute nothing. The entry additionally starts with its
			// parameters initialized.
			for _, p := range blk.Preds {
				for w := range cur {
					cur[w] |= out[p][w]
				}
			}
			if b == 0 {
				for s := 0; s < m.Params && s < m.NumLocals; s++ {
					add(cur, s)
				}
			}
			tmp := make([]uint64, words)
			copy(tmp, cur)
			for pc := blk.Start; pc < blk.End; pc++ {
				if d := m.Code[pc].Def(); d >= 0 {
					add(tmp, d)
				}
			}
			same := true
			for w := range tmp {
				if out[b][w] != tmp[w] {
					same = false
				}
			}
			if !same {
				copy(out[b], tmp)
				changed = true
			}
		}
	}

	for _, b := range cfg.RPO {
		blk := &cfg.Blocks[b]
		cur := make([]uint64, words)
		copy(cur, in[b])
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := &m.Code[pc]
			var uerr error
			inst.Uses(func(s int, _ bool) {
				if uerr == nil && !has(cur, s) {
					uerr = fmt.Errorf("ir: %s pc %d (%s): read of slot %d, which no path initializes",
						m.QualifiedName(), pc, inst.String(), s)
				}
			})
			if uerr != nil {
				return uerr
			}
			if d := inst.Def(); d >= 0 {
				add(cur, d)
			}
		}
	}
	return nil
}
