// Wall-clock benchmarks of the paper's evaluation artifacts. The numbers
// themselves come from `lowutil experiments` (internal/evalharness, whose
// TestExperimentsGolden pins them in EXPERIMENTS.md); these time the same
// pipelines:
//
//   - Table 1 columns O(×): BenchmarkOverhead_* (baseline vs. profiled wall
//     clock per workload; the ratio is the overhead column)
//   - §4.2 case studies: BenchmarkCaseStudy_* (bloated vs. optimized; the
//     ratio is the paper's improvement)
//   - Figure 1: BenchmarkFigure1_TaintVsSlicing
//   - §3.2/§4.1 ablations: BenchmarkThinVsTraditional,
//     BenchmarkAbstractVsConcrete, BenchmarkPhaseRestricted
//   - analysis costs: BenchmarkCostBenefitAnalysis, BenchmarkDeadness
package lowutil

import (
	"context"
	"testing"

	"lowutil/internal/casestudies"
	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/ir"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
	"lowutil/internal/ssa"
	"lowutil/internal/staticanalysis"
	"lowutil/internal/taint"
	"lowutil/internal/testprogs"
	"lowutil/internal/workloads"
)

const benchScale = 1

func mustCompileWorkload(b *testing.B, name string) *ir.Program {
	b.Helper()
	w := workloads.ByName(name)
	if w == nil {
		b.Fatalf("unknown workload %s", name)
	}
	prog, err := w.Compile(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func runBaseline(b *testing.B, prog *ir.Program) {
	b.Helper()
	var steps int64
	for i := 0; i < b.N; i++ {
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "instrs/run")
}

func runProfiled(b *testing.B, prog *ir.Program, opts profiler.Options) *profiler.Profiler {
	b.Helper()
	b.ReportAllocs()
	var p *profiler.Profiler
	for i := 0; i < b.N; i++ {
		p = profiler.New(prog, opts)
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.G.NumNodes()), "nodes")
	b.ReportMetric(float64(p.G.NumDepEdges()), "edges")
	return p
}

// ---- Table 1: overhead (O column). The profiled/baseline ns-per-op ratio
// for each workload is the paper's overhead factor. ----

func BenchmarkOverhead(b *testing.B) {
	for _, w := range workloads.All() {
		prog := mustCompileWorkload(b, w.Name)
		b.Run(w.Name+"/baseline", func(b *testing.B) { runBaseline(b, prog) })
		b.Run(w.Name+"/profiled_s16", func(b *testing.B) {
			runProfiled(b, prog, profiler.Options{Slots: 16})
		})
	}
}

// BenchmarkDispatch isolates the hooked table's dispatch tax: a NopTracer
// makes the machine run the hooked handlers, one interface call per hook,
// with no tracing work behind them. Every tracer, the profiler included,
// runs that table, so the difference against the baseline series is what
// any traced run pays before its tracer does any work, and profiled_s16
// minus this series is the profiler's own cost.
func BenchmarkDispatch(b *testing.B) {
	for _, name := range []string{"chart", "bloat", "sunflow"} {
		prog := mustCompileWorkload(b, name)
		b.Run(name+"/nop_tracer", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := interp.New(prog)
				m.Tracer = interp.NopTracer{}
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodeIntern isolates the dense intern table: repeated Touch of the
// same (instruction, context) pairs, the innermost operation of the online
// profiler.
func BenchmarkNodeIntern(b *testing.B) {
	prog := mustCompileWorkload(b, "chart")
	var instrs []*ir.Instr
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			for i := range m.Code {
				instrs = append(instrs, &m.Code[i])
			}
		}
	}
	if len(instrs) == 0 {
		b.Fatal("no instructions")
	}
	// The sub-benchmark name keeps the recorded BENCH_*.json series.
	b.Run("dense", func(b *testing.B) {
		g := depgraph.NewSized(prog, 15)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.TouchFast(instrs[i%len(instrs)], i&15)
		}
	})
}

// ---- §4.2 case studies: bloated vs. optimized ----

func BenchmarkCaseStudy(b *testing.B) {
	for _, cs := range casestudies.All() {
		cs := cs
		for _, variant := range []string{"bloated", "optimized"} {
			variant := variant
			b.Run(cs.Name+"/"+variant, func(b *testing.B) {
				src := cs.Bloated(benchScale)
				if variant == "optimized" {
					src = cs.Optimized(benchScale)
				}
				prog, err := mjc.Compile(src)
				if err != nil {
					b.Fatal(err)
				}
				var work int64
				for i := 0; i < b.N; i++ {
					m := interp.New(prog)
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
					work = m.Steps + m.NativeWork
				}
				b.ReportMetric(float64(work), "work/run")
			})
		}
	}
}

// ---- Figure 1: taint-like tracking vs. dependence-graph cost ----

func BenchmarkFigure1_TaintVsSlicing(b *testing.B) {
	fig := testprogs.Figure1()
	b.Run("taint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := taint.New(fig.Prog)
			m := interp.New(fig.Prog)
			m.Tracer = tr
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("abstract_slicing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := profiler.New(fig.Prog, profiler.Options{Slots: 8})
			m := interp.New(fig.Prog)
			m.Tracer = p
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- §3.2 ablation: thin vs. traditional slicing ----

func BenchmarkThinVsTraditional(b *testing.B) {
	prog := mustCompileWorkload(b, "xalan")
	b.Run("thin", func(b *testing.B) {
		p := runProfiled(b, prog, profiler.Options{Slots: 16})
		_ = p
	})
	b.Run("traditional", func(b *testing.B) {
		p := runProfiled(b, prog, profiler.Options{Slots: 16, Traditional: true})
		_ = p
	})
}

// ---- §2.1 ablation: bounded abstract domain vs. per-instance nodes ----

func BenchmarkAbstractVsConcrete(b *testing.B) {
	prog := mustCompileWorkload(b, "chart")
	b.Run("abstract_s16", func(b *testing.B) {
		runProfiled(b, prog, profiler.Options{Slots: 16})
	})
	b.Run("unabstracted", func(b *testing.B) {
		runProfiled(b, prog, profiler.Options{Unabstracted: true})
	})
}

// ---- §4.1: phase-restricted tracking ----

func BenchmarkPhaseRestricted(b *testing.B) {
	prog := mustCompileWorkload(b, "tradebeans")
	b.Run("whole_program", func(b *testing.B) {
		runProfiled(b, prog, profiler.Options{Slots: 16})
	})
	// An empty step window: the machine runs its plain handlers and only
	// the call hooks reach the profiler.
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := profiler.New(prog, profiler.Options{Slots: 16})
			m := interp.New(prog)
			m.Tracer = p
			m.Window = &interp.StepWindow{}
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- analysis costs over a finished graph ----

func BenchmarkCostBenefitAnalysis(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	// The sub-benchmark name keeps the gated BENCH_*.json series.
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := costben.NewAnalysis(p.G)
			ranked := a.RankBySite(costben.DefaultTreeHeight)
			if len(ranked) == 0 {
				b.Fatal("empty ranking")
			}
		}
	})
}

func BenchmarkDeadness(b *testing.B) {
	prog := mustCompileWorkload(b, "bloat")
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		b.Fatal(err)
	}
	p.G.Freeze() // the snapshot is part of the analysis input, not the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := deadness.Analyze(p.G, m.Steps)
		if res.Nodes == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// ---- cancellation-check overhead on the profiler hot path ----

// BenchmarkCancelCheck measures what the periodic context poll in the
// interpreter main loop costs a profiled run: nil Ctx (the poll compiles
// to a nil check per masked step) vs a live, never-canceled context (one
// channel select every 8192 steps). The serve acceptance bound is <= 2%.
func BenchmarkCancelCheck(b *testing.B) {
	prog := mustCompileWorkload(b, "chart")
	run := func(b *testing.B, ctx context.Context) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			p := profiler.New(prog, profiler.Options{Slots: 16})
			m := interp.New(prog)
			m.Tracer = p
			m.Ctx = ctx
			if err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no_ctx", func(b *testing.B) { run(b, nil) })
	b.Run("live_ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		run(b, ctx)
	})
}

// ---- raw VM speed, for context ----

func BenchmarkInterpreterRaw(b *testing.B) {
	prog := mustCompileWorkload(b, "avrora")
	var steps int64
	for i := 0; i < b.N; i++ {
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps += m.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.Elapsed().Seconds())/1e6, "Minstr/s")
}

// ---- interprocedural static analysis costs (no execution) ----

func BenchmarkPointsTo(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	for _, cfg := range []struct {
		name string
		c    interproc.Config
	}{
		{"rta", interproc.Config{Mode: interproc.RTA}},
		{"rta_objctx", interproc.Config{Mode: interproc.RTA, ObjCtx: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var pt *interproc.PointsTo
			for i := 0; i < b.N; i++ {
				cg := interproc.NewCallGraph(prog, cfg.c.Mode)
				pt = interproc.NewPointsTo(prog, cg, cfg.c)
			}
			b.ReportMetric(float64(pt.NumObjects()), "objects")
			b.ReportMetric(pt.AvgPTSize(), "avg_pt")
		})
	}
}

func BenchmarkStaticSlice(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	for _, cfg := range []struct {
		name string
		c    interproc.Config
	}{
		{"cha", interproc.Config{Mode: interproc.CHA}},
		{"rta_objctx", interproc.Config{Mode: interproc.RTA, ObjCtx: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var an *interproc.Analysis
			for i := 0; i < b.N; i++ {
				an = interproc.Analyze(prog, cfg.c)
			}
			b.ReportMetric(float64(an.Slice.NumDeps()), "dep_edges")
			b.ReportMetric(float64(an.Slice.NumLocs()), "locs")
		})
	}
}

// ---- SSA pipeline costs: construction, sparse conditional constant
// propagation, and the loop forest with trip inference — the machinery
// behind the frequency-weighted static bounds and the SSA vet engine. ----

func BenchmarkSSAConstruct(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	b.ReportAllocs()
	vals := 0
	for i := 0; i < b.N; i++ {
		vals = 0
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				vals += ssa.Build(m, nil).NumVals()
			}
		}
	}
	b.ReportMetric(float64(vals), "ssa_vals")
}

func BenchmarkSCCP(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	var funcs []*ssa.Func
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			funcs = append(funcs, ssa.Build(m, nil))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	consts := 0
	for i := 0; i < b.N; i++ {
		consts = 0
		for _, f := range funcs {
			consts += ssa.RunSCCP(f).NumConsts()
		}
	}
	b.ReportMetric(float64(consts), "consts")
}

func BenchmarkLoopForest(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	type pair struct {
		f  *ssa.Func
		sc *ssa.SCCP
	}
	var pairs []pair
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			f := ssa.Build(m, nil)
			pairs = append(pairs, pair{f, ssa.RunSCCP(f)})
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	loops := 0
	for i := 0; i < b.N; i++ {
		loops = 0
		for _, p := range pairs {
			loops += len(ssa.BuildForest(p.f, p.sc).Loops)
		}
	}
	b.ReportMetric(float64(loops), "loops")
}

// BenchmarkVetEngines times the SSA vet suite over one workload; the
// sub-benchmark name keeps the recorded BENCH_*.json series.
func BenchmarkVetEngines(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	b.Run("ssa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			staticanalysis.Vet(prog)
		}
	})
}

// ---- Static audit costs: the escape/lifetime analysis itself, the
// facade's rendered `lowutil audit` report, and the escape-shape vet
// lints (confined-alloc-in-loop, copy-chain) layered onto the vet suite. ----

func BenchmarkEscapeAnalysis(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
	b.ResetTimer()
	b.ReportAllocs()
	var r *escape.Result
	for i := 0; i < b.N; i++ {
		r = escape.Analyze(an)
	}
	b.ReportMetric(float64(len(r.Sites)), "sites")
}

func BenchmarkStaticAudit(b *testing.B) {
	p, err := Compile(workloads.ByName("eclipse").Source(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	var report string
	for i := 0; i < b.N; i++ {
		report, err = p.StaticAudit(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(report)), "report_bytes")
}

func BenchmarkVetEscapeLints(b *testing.B) {
	prog := mustCompileWorkload(b, "eclipse")
	an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
	b.ReportAllocs()
	loops, chains := 0, 0
	for i := 0; i < b.N; i++ {
		loops, chains = 0, 0
		for _, f := range staticanalysis.VetWith(prog, an) {
			switch f.Kind {
			case staticanalysis.KindConfinedAllocInLoop:
				loops++
			case staticanalysis.KindCopyChain:
				chains++
			}
		}
	}
	if loops+chains == 0 {
		b.Fatal("escape lints produced no findings")
	}
	b.ReportMetric(float64(loops), "confined_in_loop")
	b.ReportMetric(float64(chains), "copy_chains")
}
