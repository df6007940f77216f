// Package evalharness regenerates the paper's evaluation as the sections of
// `lowutil experiments`:
//
//   - table1: Table 1's graph characteristics and context conflict ratios
//     at s = 8 and s = 16 (parts a/b) and its dead-value measurements
//     IPD/IPP/NLD (part c), over the 18 DaCapo-alike workloads;
//   - phases: §4.1's phase-restricted tracking, as recorded work;
//   - ablations: the §3.2 design choices, thin vs. traditional slicing and
//     abstract vs. unabstracted graphs;
//   - casestudies: the six §4.2 case studies;
//   - overhead: the one timed section, Table 1's O column and §4.1's
//     reduction.
//
// The first four print no wall-clock number, so their output depends only
// on the code and the scale. EXPERIMENTS.md holds it verbatim at scale 8,
// and TestExperimentsGolden keeps the two equal.
package evalharness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"lowutil/internal/casestudies"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/par"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

const (
	// slots is the context-slot count s everywhere but Table 1's s = 8
	// column.
	slots = 16
	// windowPercent is the share of a run's steps §4.1's window tracks, in
	// the middle of the run.
	windowPercent = 10
	// unabstractedCap bounds the instance nodes per instruction in the
	// unabstracted graph, so the ablation finishes on every workload.
	unabstractedCap = 1 << 22
)

// table1Slots are Table 1's context-slot settings, parts (a) and (b).
var table1Slots = [...]int{8, slots}

// The rows of the sections that run a fixed subset of the workloads.
var (
	phaseRows       = []string{"tradebeans", "tradesoap"}
	slicingRows     = []string{"xalan", "eclipse", "bloat"}
	abstractionRows = []string{"chart", "sunflow", "avrora"}
)

// Options selects what the experiments run on.
type Options struct {
	// Scale is the workload scale factor, at least 1.
	Scale int
	// Only restricts every section to the named rows (nil = every row).
	Only []string
}

// Sections lists the experiment sections in print order.
var Sections = []string{"table1", "phases", "ablations", "casestudies", "overhead"}

// section returns the row names and the writer of the named section, and
// false for an unknown one.
func section(name string) ([]string, func(io.Writer, Options) error, bool) {
	var all, studies []string
	for _, w := range workloads.All() {
		all = append(all, w.Name)
	}
	for _, cs := range casestudies.All() {
		studies = append(studies, cs.Name)
	}
	switch name {
	case "table1":
		return all, writeTable1, true
	case "phases":
		return phaseRows, writePhases, true
	case "ablations":
		return slices.Concat(slicingRows, abstractionRows), writeAblations, true
	case "casestudies":
		return studies, writeCaseStudies, true
	case "overhead":
		return all, writeOverhead, true
	}
	return nil, nil, false
}

// Check reports the first input Run refuses: a scale below 1, a section
// not in Sections, or an Only name that is no row of any of sections.
func Check(opts Options, sections []string) error {
	if opts.Scale < 1 {
		return fmt.Errorf("scale %d must be at least 1", opts.Scale)
	}
	known := map[string]bool{}
	for _, s := range sections {
		rows, _, ok := section(s)
		if !ok {
			return fmt.Errorf("unknown section %q (sections: %s)", s, strings.Join(Sections, ", "))
		}
		for _, n := range rows {
			known[n] = true
		}
	}
	for _, n := range opts.Only {
		if !known[n] {
			return fmt.Errorf("unknown row %q: no row of %s", n, strings.Join(sections, ", "))
		}
	}
	return nil
}

// Run renders the named sections to out, in the order given. A table
// that Only leaves without rows is left out.
func Run(out io.Writer, opts Options, sections ...string) error {
	if err := Check(opts, sections); err != nil {
		return err
	}
	for _, s := range sections {
		_, write, _ := section(s)
		if err := write(out, opts); err != nil {
			return err
		}
	}
	return nil
}

// kept returns the names opts keeps, in order.
func kept(opts Options, names []string) []string {
	var out []string
	for _, n := range names {
		if len(opts.Only) == 0 || slices.Contains(opts.Only, n) {
			out = append(out, n)
		}
	}
	return out
}

// each runs f on every name opts keeps, across all CPUs, and returns the
// results in names' order, or the first error in that order.
func each[T any](opts Options, names []string, f func(string) (T, error)) ([]T, error) {
	names = kept(opts, names)
	out := make([]T, len(names))
	errs := make([]error, len(names))
	par.ForEach(len(names), 0, func(i int) { out[i], errs[i] = f(names[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func compile(name string, scale int) (*ir.Program, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("evalharness: unknown workload %q", name)
	}
	return w.Compile(scale)
}

// profile runs prog under a new profiler with opts, tracking only inside
// win when win is non-nil.
func profile(prog *ir.Program, opts profiler.Options, win *interp.StepWindow) (*profiler.Profiler, *interp.Machine, error) {
	p := profiler.New(prog, opts)
	m := interp.New(prog)
	m.Tracer, m.Window = p, win
	return p, m, m.Run()
}

// window returns §4.1's step window over a run of steps: its middle
// windowPercent.
func window(steps int64) *interp.StepWindow {
	n := steps * windowPercent / 100
	lo := (steps - n) / 2
	return &interp.StepWindow{Lo: lo, Hi: lo + n}
}

// ---- Table 1 ----

// SlotResult holds Table 1's (a)/(b) columns for one (workload, s) pair.
type SlotResult struct {
	S        int
	Nodes    int
	DepEdges int
	MemBytes int64
	CR       float64
}

// Row is one Table 1 row.
type Row struct {
	Name string
	// Steps is #I: the instruction instances the run executed.
	Steps   int64
	BySlots [len(table1Slots)]SlotResult
	// Part (c), on the s = 16 graph.
	IPD, IPP, NLD float64
}

// Table1 profiles every workload opts keeps at each of Table 1's slot
// settings and returns one row per workload, in Table 1's order.
func Table1(opts Options) ([]*Row, error) {
	if err := Check(opts, []string{"table1"}); err != nil {
		return nil, err
	}
	names, _, _ := section("table1")
	return each(opts, names, func(name string) (*Row, error) {
		prog, err := compile(name, opts.Scale)
		if err != nil {
			return nil, err
		}
		row := &Row{Name: name}
		for i, s := range table1Slots {
			p, m, err := profile(prog, profiler.Options{Slots: s, TrackCR: true}, nil)
			if err != nil {
				return nil, fmt.Errorf("%s s=%d: %w", name, s, err)
			}
			row.BySlots[i] = SlotResult{
				S:        s,
				Nodes:    p.G.NumNodes(),
				DepEdges: p.G.NumDepEdges(),
				MemBytes: p.G.ApproxBytes(),
				CR:       p.CR().AverageCR(),
			}
			if s == slots {
				dead := deadness.Analyze(p.G, m.Steps)
				row.Steps, row.IPD, row.IPP, row.NLD = m.Steps, dead.IPD(), dead.IPP(), dead.NLD()
			}
		}
		return row, nil
	})
}

func writeTable1(out io.Writer, opts Options) error {
	rows, err := Table1(opts)
	if err != nil || len(rows) == 0 {
		return err
	}
	for i, s := range table1Slots {
		fmt.Fprintf(out, "---- Table 1 (%c): s = %d, scale %d ----\n", 'a'+i, s, opts.Scale)
		fmt.Fprintf(out, "%-11s %9s %9s %8s %7s\n", "Program", "#N", "#E", "M(KB)", "CR")
		for _, r := range rows {
			sr := r.BySlots[i]
			fmt.Fprintf(out, "%-11s %9d %9d %8.1f %7.3f\n",
				r.Name, sr.Nodes, sr.DepEdges, float64(sr.MemBytes)/1024, sr.CR)
		}
	}
	fmt.Fprintf(out, "---- Table 1 (c): instruction instances and deadness, s = %d, scale %d ----\n", slots, opts.Scale)
	fmt.Fprintf(out, "%-11s %12s %8s %8s %8s\n", "Program", "#I", "IPD(%)", "IPP(%)", "NLD(%)")
	for _, r := range rows {
		fmt.Fprintf(out, "%-11s %12d %8.1f %8.1f %8.1f\n", r.Name, r.Steps, r.IPD, r.IPP, r.NLD)
	}
	return nil
}

// ---- §4.1 phase-restricted tracking ----

// PhaseResult is §4.1's experiment on one workload: a profile of the whole
// run against one that tracks only the window, the middle windowPercent of
// its steps.
type PhaseResult struct {
	Name   string
	Steps  int64
	Window interp.StepWindow
	// FullEvents and PhaseEvents count the Gcost events each run recorded
	// (the sum of node frequencies): the work the window saves.
	FullEvents, PhaseEvents int64
	FullNodes, PhaseNodes   int
}

// PhaseExperiment profiles the workload twice, whole and inside the window.
func PhaseExperiment(name string, scale int) (*PhaseResult, error) {
	prog, err := compile(name, scale)
	if err != nil {
		return nil, err
	}
	full, m, err := profile(prog, profiler.Options{Slots: slots}, nil)
	if err != nil {
		return nil, err
	}
	win := window(m.Steps)
	gated, _, err := profile(prog, profiler.Options{Slots: slots}, win)
	if err != nil {
		return nil, err
	}
	return &PhaseResult{
		Name:        name,
		Steps:       m.Steps,
		Window:      *win,
		FullEvents:  full.G.TotalFreq(),
		PhaseEvents: gated.G.TotalFreq(),
		FullNodes:   full.G.NumNodes(),
		PhaseNodes:  gated.G.NumNodes(),
	}, nil
}

func writePhases(out io.Writer, opts Options) error {
	res, err := each(opts, phaseRows, func(name string) (*PhaseResult, error) {
		return PhaseExperiment(name, opts.Scale)
	})
	if err != nil || len(res) == 0 {
		return err
	}
	fmt.Fprintf(out, "---- §4.1 phase-restricted tracking: the middle %d%% of the steps, s = %d, scale %d ----\n",
		windowPercent, slots, opts.Scale)
	fmt.Fprintf(out, "%-11s %9s %17s %12s %12s %11s %11s\n",
		"Program", "steps", "window", "full events", "win events", "full nodes", "win nodes")
	for _, r := range res {
		fmt.Fprintf(out, "%-11s %9d %17s %12d %12d %11d %11d\n", r.Name, r.Steps,
			fmt.Sprintf("[%d, %d)", r.Window.Lo, r.Window.Hi),
			r.FullEvents, r.PhaseEvents, r.FullNodes, r.PhaseNodes)
	}
	return nil
}

// ---- §3.2 ablations ----

// SlicingAblation compares thin and traditional slicing on one workload:
// edge counts and total backward-slice size from every heap-store node.
type SlicingAblation struct {
	Name             string
	ThinEdges        int
	TraditionalEdges int
	ThinSliceNodes   int
	TradSliceNodes   int
}

// ThinVsTraditional runs the ablation.
func ThinVsTraditional(name string, scale int) (*SlicingAblation, error) {
	prog, err := compile(name, scale)
	if err != nil {
		return nil, err
	}
	res := &SlicingAblation{Name: name}
	for _, traditional := range []bool{false, true} {
		p, _, err := profile(prog, profiler.Options{Slots: slots, Traditional: traditional}, nil)
		if err != nil {
			return nil, err
		}
		total := 0
		p.G.Nodes(func(n *depgraph.Node) {
			if n.WritesHeap() {
				total += len(depgraph.BackwardSlice(n))
			}
		})
		if traditional {
			res.TraditionalEdges, res.TradSliceNodes = p.G.NumDepEdges(), total
		} else {
			res.ThinEdges, res.ThinSliceNodes = p.G.NumDepEdges(), total
		}
	}
	return res, nil
}

// AbstractionAblation compares the bounded abstract graph against the
// unabstracted (per-instance) graph.
type AbstractionAblation struct {
	Name              string
	Steps             int64
	AbstractNodes     int
	UnabstractedNodes int
	AbstractBytes     int64
	UnabstractedBytes int64
}

// AbstractVsConcrete runs the ablation. The unabstracted graph is capped
// at unabstractedCap instance nodes per instruction; past it, instances
// fold into the last node, which shows as a plateau in the node count.
func AbstractVsConcrete(name string, scale int) (*AbstractionAblation, error) {
	prog, err := compile(name, scale)
	if err != nil {
		return nil, err
	}
	pa, m, err := profile(prog, profiler.Options{Slots: slots}, nil)
	if err != nil {
		return nil, err
	}
	pu, _, err := profile(prog, profiler.Options{Unabstracted: true, UnabstractedCap: unabstractedCap}, nil)
	if err != nil {
		return nil, err
	}
	return &AbstractionAblation{
		Name:              name,
		Steps:             m.Steps,
		AbstractNodes:     pa.G.NumNodes(),
		UnabstractedNodes: pu.G.NumNodes(),
		AbstractBytes:     pa.G.ApproxBytes(),
		UnabstractedBytes: pu.G.ApproxBytes(),
	}, nil
}

func writeAblations(out io.Writer, opts Options) error {
	thin, err := each(opts, slicingRows, func(name string) (*SlicingAblation, error) {
		return ThinVsTraditional(name, opts.Scale)
	})
	if err != nil {
		return err
	}
	abs, err := each(opts, abstractionRows, func(name string) (*AbstractionAblation, error) {
		return AbstractVsConcrete(name, opts.Scale)
	})
	if err != nil {
		return err
	}
	if len(thin) > 0 {
		fmt.Fprintf(out, "---- §3.2 ablation: thin vs traditional slicing, s = %d, scale %d ----\n", slots, opts.Scale)
		fmt.Fprintf(out, "%-11s %12s %12s %14s %14s\n", "Program", "thin edges", "trad edges", "thin slices", "trad slices")
		for _, r := range thin {
			fmt.Fprintf(out, "%-11s %12d %12d %14d %14d\n",
				r.Name, r.ThinEdges, r.TraditionalEdges, r.ThinSliceNodes, r.TradSliceNodes)
		}
	}
	if len(abs) > 0 {
		fmt.Fprintf(out, "---- §3.2 ablation: abstract (s = %d) vs unabstracted graphs, scale %d ----\n", slots, opts.Scale)
		fmt.Fprintf(out, "%-11s %12s %12s %12s %12s %12s\n", "Program", "#I", "abs nodes", "conc nodes", "abs KB", "conc KB")
		for _, r := range abs {
			fmt.Fprintf(out, "%-11s %12d %12d %12d %12d %12d\n",
				r.Name, r.Steps, r.AbstractNodes, r.UnabstractedNodes,
				r.AbstractBytes/1024, r.UnabstractedBytes/1024)
		}
	}
	return nil
}

// ---- §4.2 case studies ----

func writeCaseStudies(out io.Writer, opts Options) error {
	names, _, _ := section("casestudies")
	res, err := each(opts, names, func(name string) (*casestudies.Result, error) {
		return casestudies.ByName(name).Run(opts.Scale, slots)
	})
	if err != nil || len(res) == 0 {
		return err
	}
	fmt.Fprintf(out, "---- §4.2 case studies: bloated → optimized work and allocations, suspect rank at s = %d, scale %d ----\n",
		slots, opts.Scale)
	for _, r := range res {
		cs := casestudies.ByName(r.Name)
		fmt.Fprintf(out, "%s\n  paper:   %s\n  pattern: %s\n  fix:     %s\n  tool report:\n    %s\n", r, cs.PaperResult, cs.Pattern, cs.Fix,
			strings.ReplaceAll(strings.TrimSuffix(r.TopReport, "\n"), "\n", "\n    "))
	}
	return nil
}
