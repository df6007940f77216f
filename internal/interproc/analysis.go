package interproc

import (
	"context"
	"fmt"
	"strings"

	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// Analysis bundles the interprocedural pipeline: call graph, points-to,
// frequency weights and, for the slice report, the static Gcost
// over-approximation. It also owns the SSA form of every method it is
// asked about (Func), so the passes that read one analysis build each form
// once.
type Analysis struct {
	Prog *ir.Program
	Cfg  Config
	CG   *CallGraph
	PT   *PointsTo

	// Slice is the static Gcost. AnalyzeContext (and Analyze) builds it;
	// AnalyzeHeapContext leaves it nil.
	Slice *StaticGraph

	// Freq estimates each instruction's execution frequency (indexed by
	// Instr.ID) from the loop-nest forest with SCCP trip-count bounds: 0 for
	// statically proven-dead code, otherwise the product of enclosing loops'
	// trip counts (ssa.DefaultTrip per unbounded loop). Feeds
	// Slice.BoundsWeighted and the escape ranking.
	Freq []float64

	// funcs[m.ID] is method m's SSA form once some pass asked for it.
	funcs []*ssa.Func
	// unseeded[m.ID] is the constant-propagation fixpoint's last SCCP run
	// of m when the fixpoint proved no parameter of m constant: that run
	// then equals an unseeded one.
	unseeded []*ssa.SCCP
}

// Func returns m's SSA form, building it the first time any pass asks: the
// constant-propagation fixpoint behind Freq re-runs SCCP over it on every
// visit, and the escape pass and vet read the same form. A form depends
// only on its method and readers never write it, so one per method serves
// them all. It lives as long as the Analysis, and nothing is kept on the
// method itself. Func is not safe for concurrent use.
func (a *Analysis) Func(m *ir.Method) *ssa.Func {
	if f := a.funcs[m.ID]; f != nil {
		return f
	}
	f := ssa.Build(m, nil)
	a.funcs[m.ID] = f
	return f
}

// SCCP returns the unseeded SCCP result of m's form, as ssa.RunSCCP
// computes it. For a method the constant-propagation fixpoint reached and
// proved no parameter constant, it is that fixpoint's own last run; any
// other method gets a new run. SCCP is not safe for concurrent use.
func (a *Analysis) SCCP(m *ir.Method) *ssa.SCCP {
	if sc := a.unseeded[m.ID]; sc != nil {
		return sc
	}
	return ssa.RunSCCP(a.Func(m))
}

// Analyze runs the full pipeline over prog under cfg.
func Analyze(prog *ir.Program, cfg Config) *Analysis {
	a, err := AnalyzeContext(context.Background(), prog, cfg)
	if err != nil {
		// Unreachable: the background context never cancels and the
		// pipeline has no other failure mode.
		panic(err)
	}
	return a
}

// AnalyzeContext runs the full pipeline over prog under cfg: the heap
// prefix of AnalyzeHeapContext, then every reachable method's reaching
// definitions and the static Gcost built from them. It polls ctx between
// phases and inside every fixpoint loop. When ctx is done the partially
// built state is discarded and the context error returned, so
// long-running whole-program analyses honor per-request deadlines.
func AnalyzeContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	a, err := AnalyzeHeapContext(ctx, prog, cfg)
	if err != nil {
		return nil, err
	}
	flows := make([]*ir.ReachingDefs, countMethods(prog))
	for _, m := range a.CG.Methods() {
		flows[m.ID] = ir.NewReachingDefs(m, nil)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if a.Slice, err = newStaticGraph(ctx, a.CG, a.PT, flows); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// AnalyzeHeapContext runs the part of the pipeline the audit and vet
// surfaces read: the call graph, the points-to relation (the abstract heap)
// and the frequency weights. It builds no static Gcost, so Slice is nil.
// Cancellation behaves as in AnalyzeContext.
func AnalyzeHeapContext(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	cg := NewCallGraph(prog, cfg.Mode)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pt, err := newPointsTo(ctx, prog, cg, cfg)
	if err != nil {
		return nil, err
	}
	n := countMethods(prog)
	a := &Analysis{Prog: prog, Cfg: cfg, CG: cg, PT: pt, funcs: make([]*ssa.Func, n), unseeded: make([]*ssa.SCCP, n)}
	if a.Freq, err = a.ipcpWeights(ctx); err != nil {
		return nil, err
	}
	return a, nil
}

// Bounds returns the frequency-weighted static cost/benefit bounds — the
// default ranking. Use Slice.Bounds for the unweighted PR 3 bounds.
func (a *Analysis) Bounds() []LocBound { return a.Slice.BoundsWeighted(a.Freq) }

// LocName renders an abstract location for reports: the qualified static
// field, or the allocation site (with its context qualifier) plus field.
func (a *Analysis) LocName(l Loc) string {
	if l.Static {
		return a.Prog.Statics[l.Field].QualifiedName()
	}
	o := a.PT.Objects[l.Obj]
	name := fmt.Sprintf("site#%d(%s@%s:%d)", o.Site.AllocSite, allocTypeName(o.Site),
		o.Site.Method.QualifiedName(), o.Site.PC)
	if o.Ctx != NoCtx {
		name += fmt.Sprintf("/recv#%d", o.Ctx)
	}
	if l.Field == ElemField {
		return name + ".[]"
	}
	return name + "." + a.Prog.FieldByID(l.Field).Name
}

func allocTypeName(site *ir.Instr) string {
	if site.Op == ir.OpNew {
		return site.Class().Name
	}
	return site.Elem().String() + "[]"
}

// Report renders the deterministic slice report: pipeline statistics and the
// top candidate locations ranked by static cost/benefit bound.
func (a *Analysis) Report(top int) string {
	var b strings.Builder
	objctx := "off"
	if a.Cfg.ObjCtx {
		objctx = "on"
	}
	fmt.Fprintf(&b, "static slice (mode=%s, objctx=%s)\n", a.CG.Mode, objctx)
	fmt.Fprintf(&b, "  call graph: %d/%d methods reachable, %d edges, %d polymorphic sites, max fanout %d\n",
		a.CG.NumMethods(), countMethods(a.Prog), a.CG.NumEdges(), a.CG.VirtualSites(), a.CG.MaxFanout())
	fmt.Fprintf(&b, "  points-to: %d objects, %d locations, avg set size %.2f\n",
		a.PT.NumObjects(), a.PT.NumLocs(), a.PT.AvgPTSize())
	fmt.Fprintf(&b, "  static Gcost: %d dep edges, %d ref edges, %d child edges\n",
		a.Slice.NumDeps(), a.Slice.NumRefs(), a.Slice.NumChildren())

	bounds := a.Bounds()
	writeOnly := 0
	for i := range bounds {
		if bounds[i].WriteOnly() {
			writeOnly++
		}
	}
	fmt.Fprintf(&b, "  %d of %d stored locations are statically write-only\n", writeOnly, len(bounds))
	if top > len(bounds) {
		top = len(bounds)
	}
	fmt.Fprintf(&b, "  top %d candidates by frequency-weighted static cost/benefit bound:\n", top)
	for i := 0; i < top; i++ {
		lb := &bounds[i]
		tag := ""
		switch {
		case lb.WriteOnly():
			tag = " write-only"
		case lb.Consumed:
			tag = " consumed"
		}
		fmt.Fprintf(&b, "  %3d. %-52s cost<=%-5d benefit<=%-5d wcost=%-9.4g wbenefit=%-9.4g stores=%d loads=%d%s\n",
			i+1, a.LocName(lb.Key), lb.CostBound, lb.BenefitBound, lb.WCost, lb.WBenefit, lb.Stores, lb.Loads, tag)
	}
	return b.String()
}
