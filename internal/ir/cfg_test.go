package ir

import (
	"sort"
	"testing"
)

// buildDiamondMethod constructs the canonical diamond:
//
//	B0: v0 = 1; if v0 == v0 goto B2
//	B1: v1 = 10; goto B3
//	B2: v1 = 20
//	B3: v2 = v1; return
func buildDiamondMethod(t *testing.T) *Method {
	t.Helper()
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	mb.Const(0, 1)
	ifpc := mb.If(0, Eq, 0, 0)
	mb.Const(1, 10)
	g := mb.Goto(0)
	elsePC := mb.PC()
	mb.Const(1, 20)
	join := mb.PC()
	mb.Move(2, 1)
	mb.ReturnVoid()
	mb.Patch(ifpc, elsePC)
	mb.Patch(g, join)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCFGDiamondStructure(t *testing.T) {
	m := buildDiamondMethod(t)
	cfg := NewCFG(m)
	if cfg.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", cfg.NumBlocks())
	}

	// Blocks partition the body; BlockOf agrees with the ranges.
	covered := 0
	for i := range cfg.Blocks {
		blk := &cfg.Blocks[i]
		if blk.End <= blk.Start {
			t.Fatalf("block %d is empty: [%d,%d)", i, blk.Start, blk.End)
		}
		for pc := blk.Start; pc < blk.End; pc++ {
			if cfg.BlockOf[pc] != i {
				t.Errorf("BlockOf[%d] = %d, want %d", pc, cfg.BlockOf[pc], i)
			}
			covered++
		}
	}
	if covered != len(m.Code) {
		t.Errorf("blocks cover %d instructions, body has %d", covered, len(m.Code))
	}

	// Succ/pred mirroring.
	for i := range cfg.Blocks {
		for _, s := range cfg.Blocks[i].Succs {
			found := false
			for _, p := range cfg.Blocks[s].Preds {
				if p == i {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d not mirrored in preds", i, s)
			}
		}
	}

	entry := cfg.BlockOf[0]
	succs := append([]int(nil), cfg.Blocks[entry].Succs...)
	sort.Ints(succs)
	if len(succs) != 2 {
		t.Fatalf("entry succs = %v, want both arms", succs)
	}
	join := cfg.BlockOf[5]
	if len(cfg.Blocks[join].Preds) != 2 {
		t.Errorf("join preds = %v, want both arms", cfg.Blocks[join].Preds)
	}

	// RPO: starts at the entry, includes all four blocks, and every
	// non-back-edge source precedes its target.
	if len(cfg.RPO) != 4 || cfg.RPO[0] != entry || cfg.RPOIndex(entry) != 0 {
		t.Errorf("RPO = %v", cfg.RPO)
	}
	if cfg.RPOIndex(join) != 3 {
		t.Errorf("join must be last in RPO, got index %d", cfg.RPOIndex(join))
	}
	for i := range cfg.Blocks {
		if !cfg.Reachable(i) {
			t.Errorf("block %d should be reachable", i)
		}
	}
}

func TestCFGUnreachableBlock(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	g := mb.Goto(0)
	mb.Const(0, 1) // skipped by the goto
	l := mb.PC()
	mb.ReturnVoid()
	mb.Patch(g, l)
	if _, err := b.Seal("Main", "main"); err != nil {
		t.Fatal(err)
	}
	cfg := NewCFG(m)
	dead := cfg.BlockOf[1]
	if cfg.Reachable(dead) {
		t.Error("skipped block must be unreachable")
	}
	if cfg.RPOIndex(dead) != -1 {
		t.Errorf("RPOIndex of unreachable block = %d, want -1", cfg.RPOIndex(dead))
	}
	if len(cfg.RPO) != 2 {
		t.Errorf("RPO = %v, want the two reachable blocks", cfg.RPO)
	}
}

func TestCFGFallsOff(t *testing.T) {
	// Built directly, not sealed: the validator rejects exactly this shape.
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	b.Body(m).Const(0, 1)
	cfg := NewCFG(m)
	if cfg.NumBlocks() != 1 || !cfg.Blocks[0].FallsOff {
		t.Errorf("block must be marked FallsOff: %+v", cfg.Blocks)
	}
	if len(cfg.Blocks[0].Succs) != 0 {
		t.Errorf("falls-off block must have no successors")
	}
}

func TestCFGEmptyBody(t *testing.T) {
	b := NewBuilder()
	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	cfg := NewCFG(m)
	if cfg.NumBlocks() != 0 || len(cfg.RPO) != 0 {
		t.Errorf("empty body must yield an empty CFG: %+v", cfg)
	}
}

func TestDomTreeDiamond(t *testing.T) {
	d := NewDomTree(NewCFG(buildDiamondMethod(t)))
	// Entry dominates everything; neither arm dominates the join.
	for b := 1; b < 4; b++ {
		if d.Idom[b] != 0 {
			t.Errorf("idom[%d] = %d, want 0", b, d.Idom[b])
		}
	}
	if !d.Dominates(0, 3) {
		t.Error("entry must dominate the join")
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("no single arm may dominate the join")
	}
	if !d.Dominates(3, 3) {
		t.Error("dominance must be reflexive")
	}
	if d.Dominates(3, 0) {
		t.Error("the join must not dominate the entry")
	}
}
