package interproc

import (
	"context"

	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// Interprocedural sparse conditional constant propagation over the call
// graph, feeding the frequency weights. Per-method SCCP alone must treat
// every parameter as overdefined, which leaves most loop bounds — typically
// threaded through calls as literals — unresolved, so every loop falls back
// to ssa.DefaultTrip and the weighted cost bounds rank by loop *depth*
// rather than by trip count.
//
// The fixpoint here is the classic optimistic one. Every reachable method
// starts unvisited; the entry method runs SCCP first. Each executable call
// site contributes the lattice value of each actual to every resolved
// target's parameter fact: a proven constant stays a constant while all
// executable sites agree, anything else is overdefined. When a method's
// facts drop, its SCCP reruns, which can newly execute call sites or lower
// actuals downstream. Facts only descend and visited only grows, so the
// fixpoint terminates; on it, every fact is justified by all call sites that
// remain executable, which is what makes seeding sound (backed dynamically
// by TestFreqCoversExecution).
//
// A revisit re-runs only SCCP, over the method's one SSA form
// (Analysis.Func); the loop forest, whose trip counts read the final
// verdicts, is built once per method after the fixpoint.

// ipcpCell is the parameter lattice: unseen (no executable call site yet),
// one known constant, or overdefined.
type ipcpCell struct {
	state uint8 // 0 unseen, 1 constant, 2 overdefined
	c     ssa.Const
}

const (
	ipcpUnseen = iota
	ipcpConst
	ipcpBottom
)

// meet lowers the cell by one call site's actual value; reports change.
func (c *ipcpCell) meet(known bool, v ssa.Const) bool {
	switch {
	case c.state == ipcpBottom:
		return false
	case !known:
		c.state = ipcpBottom
		return true
	case c.state == ipcpUnseen:
		c.state, c.c = ipcpConst, v
		return true
	case c.c != v:
		c.state = ipcpBottom
		return true
	}
	return false
}

func (c ipcpCell) fact() ssa.ParamFact {
	return ssa.ParamFact{Known: c.state == ipcpConst, C: c.c}
}

// ipcpRun computes the fixpoint and returns the per-method analysis results.
// Methods absent from the result are proven never to execute: either
// call-graph-unreachable, or reachable only through call sites SCCP rules
// out. It polls ctx once per worklist visit.
func (a *Analysis) ipcpRun(ctx context.Context) (map[int]*ssa.MethodInfo, error) {
	cg := a.CG
	sccp := make(map[int]*ssa.SCCP)   // last SCCP run per method ID
	facts := make(map[int][]ipcpCell) // parameter lattice per method ID
	seen := make(map[int]bool)        // method ever entered the worklist
	for _, m := range cg.Methods() {
		facts[m.ID] = make([]ipcpCell, m.Params)
	}
	entry := cg.Prog.Main
	seen[entry.ID] = true
	work := []*ir.Method{entry}
	for len(work) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := work[len(work)-1]
		work = work[:len(work)-1]
		pf := make([]ssa.ParamFact, m.Params)
		for i, c := range facts[m.ID] {
			pf[i] = c.fact()
		}
		f := a.Func(m)
		sc := ssa.RunSCCPSeeded(f, pf)
		sccp[m.ID] = sc
		// Propagate actuals out of every executable call site.
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != ir.OpCall || !sc.Executable(pc) {
				continue
			}
			for _, t := range cg.Targets(in) {
				tf := facts[t.ID]
				changed := false
				ops := f.Operands[pc]
				for i := 0; i < len(ops) && i < t.Params; i++ {
					c, known := sc.ConstOf(ops[i])
					if tf[i].meet(known, c) {
						changed = true
					}
				}
				if changed || !seen[t.ID] {
					seen[t.ID] = true
					work = append(work, t)
				}
			}
		}
	}
	info := make(map[int]*ssa.MethodInfo, len(sccp))
	for id, sc := range sccp {
		info[id] = &ssa.MethodInfo{F: sc.F, SCCP: sc, Forest: ssa.BuildForest(sc.F, sc)}
	}
	return info, nil
}

// ipcpWeights computes the interprocedurally-seeded frequency weights for
// the program: per-block loop-nest weights (with call-graph parameter
// constants feeding the trip counts) scaled by the method's static
// invocation frequency. Instructions of methods the fixpoint never reaches
// weigh 0 — they provably never run.
func (a *Analysis) ipcpWeights(ctx context.Context) ([]float64, error) {
	info, err := a.ipcpRun(ctx)
	if err != nil {
		return nil, err
	}
	cg := a.CG
	entry := callFrequencies(cg, info)
	w := make([]float64, len(cg.Prog.Instrs))
	for id, mi := range info {
		m := mi.F.M
		for pc := range m.Code {
			bw := mi.BlockWeight(mi.F.CFG.BlockOf[pc]) * entry[id]
			if bw > ssa.MaxWeight {
				bw = ssa.MaxWeight
			}
			w[m.Code[pc].ID] = bw
		}
	}
	return w, nil
}

// callFrequencies estimates each reached method's invocation frequency, the
// Wu–Larus way: the entry method runs once; every executable call site
// contributes its block's loop-nest weight times the caller's frequency.
// The call graph's SCC condensation is processed in topological order so
// acyclic chains are exact; a recursive component is damped with one
// ssa.DefaultTrip factor for the whole cycle rather than iterated (a fixpoint
// over a cycle of multipliers > 1 would just saturate). Frequencies cap at
// ssa.MaxWeight. Methods never reached by the constant-propagation fixpoint
// get no entry (zero frequency).
func callFrequencies(cg *CallGraph, info map[int]*ssa.MethodInfo) map[int]float64 {
	type edge struct {
		from, to int
		w        float64
	}
	var edges []edge
	succs := make(map[int][]int)
	for id, mi := range info {
		m := mi.F.M
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Op != ir.OpCall || !mi.SCCP.Executable(pc) {
				continue
			}
			bw := mi.BlockWeight(mi.F.CFG.BlockOf[pc])
			for _, t := range cg.Targets(in) {
				if info[t.ID] == nil {
					continue
				}
				edges = append(edges, edge{id, t.ID, bw})
				succs[id] = append(succs[id], t.ID)
			}
		}
	}

	// Tarjan's SCC over the reached methods; comps come out sinks-first.
	index := make(map[int]int)
	low := make(map[int]int)
	onStack := make(map[int]bool)
	compOf := make(map[int]int)
	var stack []int
	var comps [][]int
	next := 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, u := range succs[v] {
			if _, seen := index[u]; !seen {
				strongconnect(u)
				if low[u] < low[v] {
					low[v] = low[u]
				}
			} else if onStack[u] && index[u] < low[v] {
				low[v] = index[u]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[u] = false
				compOf[u] = len(comps)
				comp = append(comp, u)
				if u == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for id := range info {
		if _, seen := index[id]; !seen {
			strongconnect(id)
		}
	}

	// Incoming cross-component contributions, then one pass in topological
	// order (reverse of Tarjan's emission order).
	incoming := make(map[int][]edge) // component → cross edges into it
	cyclic := make([]bool, len(comps))
	for i, comp := range comps {
		cyclic[i] = len(comp) > 1
	}
	for _, e := range edges {
		cf, ct := compOf[e.from], compOf[e.to]
		if cf == ct {
			cyclic[cf] = true // self-recursion or intra-cycle edge
			continue
		}
		incoming[ct] = append(incoming[ct], e)
	}
	entry := make(map[int]float64, len(info))
	mainID := cg.Prog.Main.ID
	for i := len(comps) - 1; i >= 0; i-- {
		ext := 0.0
		for _, e := range incoming[i] {
			ext += entry[e.from] * e.w
		}
		for _, id := range comps[i] {
			if id == mainID {
				ext++
			}
		}
		if cyclic[i] {
			ext *= ssa.DefaultTrip
		}
		if ext > ssa.MaxWeight {
			ext = ssa.MaxWeight
		}
		for _, id := range comps[i] {
			entry[id] = ext
		}
	}
	return entry
}
