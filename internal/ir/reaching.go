package ir

import "math/bits"

// ReachingDefs is the per-method reaching-definitions solution, exposed as,
// for every instruction operand, the set of definitions that may have
// produced the value it reads. Definitions are instruction pcs that write a
// slot; each parameter contributes a pseudo-definition at method entry,
// numbered len(m.Code)+slot. The static Gcost (internal/interproc) and the
// vet suite (internal/staticanalysis) share this one instance.
type ReachingDefs struct {
	Method *Method
	CFG    *CFG

	// Operands[pc] lists, in Instr.Uses callback order, the reads the
	// instruction performs with their reaching definitions. Instructions in
	// blocks unreachable from the entry read nothing: their lists are empty.
	Operands [][]Operand
}

// Operand is one read performed by an instruction.
type Operand struct {
	Slot int
	// Base marks a base-pointer read (the object or array operand of a field
	// or element access), which thin slicing excludes from value flow.
	Base bool
	// Defs holds the reaching definitions (pcs, or parameter pseudo-defs),
	// ascending.
	Defs []int
}

// ParamDef returns the pseudo-definition index of parameter slot s.
func (rd *ReachingDefs) ParamDef(s int) int { return len(rd.Method.Code) + s }

// IsParamDef reports whether definition d is a parameter pseudo-definition.
func (rd *ReachingDefs) IsParamDef(d int) bool { return d >= len(rd.Method.Code) }

// ParamOf returns the parameter slot of pseudo-definition d.
func (rd *ReachingDefs) ParamOf(d int) int { return d - len(rd.Method.Code) }

// NewReachingDefs computes reaching definitions for m over cfg (nil builds a
// fresh CFG): a forward union fixpoint over per-block gen/kill bit sets in
// reverse postorder, whose entry block starts with the parameter
// pseudo-defs. Blocks unreachable from the entry stay empty.
func NewReachingDefs(m *Method, cfg *CFG) *ReachingDefs {
	if cfg == nil {
		cfg = NewCFG(m)
	}
	n := len(m.Code)
	words := (n + m.Params + 63) / 64
	nb := cfg.NumBlocks()
	// One backing array: defsOfSlot per local, then gen, kill, in and out per
	// block, then the scratch set.
	backing := make([]uint64, words*(m.NumLocals+4*nb+1))
	carve := func() []uint64 {
		s := backing[:words:words]
		backing = backing[words:]
		return s
	}
	set := func(bs []uint64, i int) { bs[i/64] |= 1 << (i % 64) }

	defsOfSlot := make([][]uint64, m.NumLocals)
	for s := range defsOfSlot {
		defsOfSlot[s] = carve()
	}
	for pc := range m.Code {
		if d := m.Code[pc].Def(); d >= 0 {
			set(defsOfSlot[d], pc)
		}
	}
	params := min(m.Params, m.NumLocals)
	for s := 0; s < params; s++ {
		set(defsOfSlot[s], n+s)
	}

	gen, kill := make([][]uint64, nb), make([][]uint64, nb)
	in, out := make([][]uint64, nb), make([][]uint64, nb)
	for b := 0; b < nb; b++ {
		gen[b], kill[b], in[b], out[b] = carve(), carve(), carve(), carve()
		blk := &cfg.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			if d := m.Code[pc].Def(); d >= 0 {
				for w := range gen[b] {
					kill[b][w] |= defsOfSlot[d][w]
					gen[b][w] &^= defsOfSlot[d][w]
				}
				set(gen[b], pc)
			}
		}
	}

	// Unreachable predecessors keep an empty out set, so they add nothing
	// to the meet.
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO {
			cur := in[b]
			clear(cur)
			for _, p := range cfg.Blocks[b].Preds {
				for w := range cur {
					cur[w] |= out[p][w]
				}
			}
			if b == 0 {
				for s := 0; s < params; s++ {
					set(cur, n+s)
				}
			}
			for w := range cur {
				if o := gen[b][w] | cur[w]&^kill[b][w]; o != out[b][w] {
					out[b][w] = o
					changed = true
				}
			}
		}
	}

	rd := &ReachingDefs{Method: m, CFG: cfg, Operands: make([][]Operand, n)}
	cur := carve()
	var defs []int
	for _, b := range cfg.RPO {
		blk := &cfg.Blocks[b]
		copy(cur, in[b])
		for pc := blk.Start; pc < blk.End; pc++ {
			inst := &m.Code[pc]
			inst.Uses(func(s int, base bool) {
				start := len(defs)
				for w, word := range cur {
					for word &= defsOfSlot[s][w]; word != 0; word &= word - 1 {
						defs = append(defs, w*64+bits.TrailingZeros64(word))
					}
				}
				rd.Operands[pc] = append(rd.Operands[pc], Operand{Slot: s, Base: base, Defs: defs[start:len(defs):len(defs)]})
			})
			if d := inst.Def(); d >= 0 {
				for w := range cur {
					cur[w] &^= defsOfSlot[d][w]
				}
				set(cur, pc)
			}
		}
	}
	return rd
}
