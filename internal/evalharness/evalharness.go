// Package evalharness regenerates the paper's evaluation artifacts: Table 1
// (graph characteristics, tool overhead, context conflict ratios, and the
// dead-value measurements IPD/IPP/NLD over the 18 DaCapo-alike workloads),
// the phase-restricted-tracking overhead-reduction experiment, and the §3.2
// design-choice ablations (thin vs. traditional slicing, abstract vs.
// unabstracted graphs).
package evalharness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/par"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// SlotResult holds the Table 1 columns for one (workload, s) pair.
type SlotResult struct {
	S        int
	Nodes    int
	DepEdges int
	RefEdges int
	MemBytes int64
	Overhead float64 // profiled wall-clock / baseline wall-clock, each the best of 3 runs
	CR       float64
}

// Row is one Table 1 row.
type Row struct {
	Name  string
	Scale int

	// Steps is #I — executed instruction instances in the baseline run.
	Steps    int64
	Allocs   int64
	BaseTime time.Duration
	BySlots  []SlotResult

	// Part (c), computed on the largest-s graph.
	IPD float64
	IPP float64
	NLD float64
}

// Options configures the harness.
type Options struct {
	// Scale is the workload scale factor (1 for tests, larger for reports).
	Scale int
	// Slots lists the context-slot settings to measure (paper: 8 and 16).
	Slots []int
	// Only restricts to the named workloads (nil = all 18).
	Only []string
	// Progress, if non-nil, receives a line per workload.
	Progress io.Writer
	// Workers bounds the workload-sweep worker pool; 0 means GOMAXPROCS,
	// 1 runs serially. Note that the overhead column is wall-clock based,
	// so overhead measurements are only meaningful with Workers set to 1.
	Workers int
}

func (o *Options) defaults() {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if len(o.Slots) == 0 {
		o.Slots = []int{8, 16}
	}
}

// Table1 runs the full experiment and returns one row per workload.
func Table1(opts Options) ([]*Row, error) {
	opts.defaults()
	var list []*workloads.Workload
	if len(opts.Only) == 0 {
		list = workloads.All()
	} else {
		for _, name := range opts.Only {
			w := workloads.ByName(name)
			if w == nil {
				return nil, fmt.Errorf("evalharness: unknown workload %q", name)
			}
			list = append(list, w)
		}
	}

	// Workloads are independent, so the sweep fans out over the pool; each
	// worker writes only its own row slot and rows keep Table 1 order. The
	// first error by workload index wins, matching the serial behavior.
	rows := make([]*Row, len(list))
	errs := make([]error, len(list))
	var progressMu sync.Mutex
	par.ForEach(len(list), opts.Workers, func(i int) {
		row, err := runOne(list[i], opts)
		if err != nil {
			errs[i] = err
			return
		}
		rows[i] = row
		if opts.Progress != nil {
			progressMu.Lock()
			fmt.Fprintf(opts.Progress, "%-11s I=%-10d N=%-7d E=%-8d O=%.1fx IPD=%.1f%% IPP=%.1f%% NLD=%.1f%%\n",
				row.Name, row.Steps, row.BySlots[len(row.BySlots)-1].Nodes,
				row.BySlots[len(row.BySlots)-1].DepEdges,
				row.BySlots[len(row.BySlots)-1].Overhead, row.IPD, row.IPP, row.NLD)
			progressMu.Unlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func runOne(w *workloads.Workload, opts Options) (*Row, error) {
	prog, err := w.Compile(opts.Scale)
	if err != nil {
		return nil, err
	}

	for _, s := range opts.Slots {
		if limit := profiler.MaxSlots(prog.NumInstrs()); s > limit {
			return nil, fmt.Errorf("%s: %d context slots exceed the profiling table budget (at most %d)", w.Name, s, limit)
		}
	}

	// Each overhead ratio compares the best of 3 baseline (uninstrumented)
	// runs with the best of 3 profiled runs. The runs interleave — the
	// baseline, then one profiled run per slot count, three times over — so
	// a stretch of contention on a shared host slows both sides alike.
	best := make([]time.Duration, 1+len(opts.Slots)) // [0] is the baseline
	profs := make([]*profiler.Profiler, len(opts.Slots))
	var base *interp.Machine
	var lastSteps int64
	for rep := 0; rep < 3; rep++ {
		for i := range best {
			m := interp.New(prog)
			what := "baseline"
			if i > 0 {
				profs[i-1] = profiler.New(prog, profiler.Options{Slots: opts.Slots[i-1], TrackCR: true})
				m.Tracer = profs[i-1]
				what = fmt.Sprintf("profiled s=%d", opts.Slots[i-1])
			}
			start := time.Now()
			if err := m.Run(); err != nil {
				return nil, fmt.Errorf("%s %s: %w", w.Name, what, err)
			}
			if d := time.Since(start); rep == 0 || d < best[i] {
				best[i] = d
			}
			if i == 0 {
				base = m
			} else {
				lastSteps = m.Steps
			}
		}
	}
	best[0] = max(best[0], time.Nanosecond)

	row := &Row{Name: w.Name, Scale: opts.Scale, Steps: base.Steps, Allocs: base.Allocs, BaseTime: best[0]}
	for i, p := range profs {
		row.BySlots = append(row.BySlots, SlotResult{
			S:        opts.Slots[i],
			Nodes:    p.G.NumNodes(),
			DepEdges: p.G.NumDepEdges(),
			RefEdges: p.G.NumRefEdges(),
			MemBytes: p.G.ApproxBytes(),
			Overhead: float64(best[i+1]) / float64(best[0]),
			CR:       p.CR().AverageCR(),
		})
	}

	dead := deadness.Analyze(profs[len(profs)-1].G, lastSteps)
	row.IPD = dead.IPD()
	row.IPP = dead.IPP()
	row.NLD = dead.NLD()
	return row, nil
}

// Format renders rows in the paper's Table 1 layout.
func Format(rows []*Row, out io.Writer) {
	if len(rows) == 0 {
		return
	}
	for _, sr := range rows[0].BySlots {
		fmt.Fprintf(out, "---- s = %d ----\n", sr.S)
		fmt.Fprintf(out, "%-11s %9s %9s %8s %7s %7s\n", "Program", "#N", "#E", "M(KB)", "O(x)", "CR")
		for _, r := range rows {
			var this *SlotResult
			for i := range r.BySlots {
				if r.BySlots[i].S == sr.S {
					this = &r.BySlots[i]
				}
			}
			if this == nil {
				continue
			}
			fmt.Fprintf(out, "%-11s %9d %9d %8.1f %7.1f %7.3f\n",
				r.Name, this.Nodes, this.DepEdges, float64(this.MemBytes)/1024, this.Overhead, this.CR)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "---- part (c): instruction instances and deadness ----\n")
	fmt.Fprintf(out, "%-11s %12s %8s %8s %8s\n", "Program", "#I", "IPD(%)", "IPP(%)", "NLD(%)")
	for _, r := range rows {
		fmt.Fprintf(out, "%-11s %12d %8.1f %8.1f %8.1f\n", r.Name, r.Steps, r.IPD, r.IPP, r.NLD)
	}
}

// ---- Phase-restricted tracking (§4.1 overhead discussion) ----

// PhaseResult reports the phase-restriction experiment for one workload.
type PhaseResult struct {
	Name          string
	FullOverhead  float64
	PhaseOverhead float64
	// Reduction is FullOverhead / PhaseOverhead (paper: up to 10×).
	Reduction  float64
	FullNodes  int
	PhaseNodes int
	// FullEvents and PhaseEvents count the Gcost events each run recorded
	// (the sum of node frequencies): the work the step window saves,
	// deterministic where the wall-clock ratios are not.
	FullEvents  int64
	PhaseEvents int64
}

// PhaseExperiment profiles the workload twice — whole-program and restricted
// to a step window over the middle fraction of the run — and reports the
// overhead reduction.
func PhaseExperiment(name string, scale int, fraction float64) (*PhaseResult, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("evalharness: unknown workload %q", name)
	}
	prog, err := w.Compile(scale)
	if err != nil {
		return nil, err
	}

	m := interp.New(prog)
	if err := m.Run(); err != nil {
		return nil, err
	}
	n := int64(float64(m.Steps) * fraction)
	window := &interp.StepWindow{Lo: (m.Steps - n) / 2, Hi: (m.Steps-n)/2 + n}
	timed := func(tr interp.Tracer, w *interp.StepWindow) (time.Duration, error) {
		m := interp.New(prog)
		m.Tracer, m.Window = tr, w
		start := time.Now()
		err := m.Run()
		return time.Since(start), err
	}

	// The best of five rounds, each running the plain, full and windowed
	// profiles back to back. A run takes about a millisecond at scale 8,
	// and a scheduler hiccup or a collection can cover several in a row,
	// so the three kinds share every round instead of each owning a series
	// one hiccup could cover.
	var base, fullTime, gatedTime time.Duration
	var full, gatedP *profiler.Profiler
	for i := 0; i < 5; i++ {
		full = profiler.New(prog, profiler.Options{Slots: 16})
		gatedP = profiler.New(prog, profiler.Options{Slots: 16})
		b, err := timed(nil, nil)
		if err != nil {
			return nil, err
		}
		f, err := timed(full, nil)
		if err != nil {
			return nil, err
		}
		g, err := timed(gatedP, window)
		if err != nil {
			return nil, err
		}
		if i == 0 || b < base {
			base = b
		}
		if i == 0 || f < fullTime {
			fullTime = f
		}
		if i == 0 || g < gatedTime {
			gatedTime = g
		}
	}
	base = max(base, time.Nanosecond)

	res := &PhaseResult{
		Name:          name,
		FullOverhead:  float64(fullTime) / float64(base),
		PhaseOverhead: float64(gatedTime) / float64(base),
		FullNodes:     full.G.NumNodes(),
		PhaseNodes:    gatedP.G.NumNodes(),
		FullEvents:    recordedEvents(full.G),
		PhaseEvents:   recordedEvents(gatedP.G),
	}
	if res.PhaseOverhead > 0 {
		res.Reduction = res.FullOverhead / res.PhaseOverhead
	}
	return res, nil
}

// recordedEvents sums g's node frequencies: one per event the profiler
// recorded.
func recordedEvents(g *depgraph.Graph) int64 {
	var n int64
	g.Nodes(func(nd *depgraph.Node) { n += nd.Freq() })
	return n
}

// ---- §3.2 ablations ----

// SlicingAblation compares thin and traditional slicing on one workload:
// edge counts and total backward-slice weight from every heap-store node.
type SlicingAblation struct {
	Name             string
	ThinEdges        int
	TraditionalEdges int
	ThinSliceNodes   int
	TradSliceNodes   int
}

// ThinVsTraditional runs the ablation.
func ThinVsTraditional(name string, scale int) (*SlicingAblation, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("evalharness: unknown workload %q", name)
	}
	prog, err := w.Compile(scale)
	if err != nil {
		return nil, err
	}
	res := &SlicingAblation{Name: name}
	for _, traditional := range []bool{false, true} {
		p := profiler.New(prog, profiler.Options{Slots: 16, Traditional: traditional})
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			return nil, err
		}
		total := 0
		p.G.Nodes(func(n *depgraph.Node) {
			if n.WritesHeap() {
				total += len(depgraph.BackwardSlice(n))
			}
		})
		if traditional {
			res.TraditionalEdges = p.G.NumDepEdges()
			res.TradSliceNodes = total
		} else {
			res.ThinEdges = p.G.NumDepEdges()
			res.ThinSliceNodes = total
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

// AbstractVsConcrete runs the ablation. The unabstracted graph is capped to
// keep the experiment tractable; the cap is reported through the node count
// plateauing rather than by silent truncation of the workload.
func AbstractVsConcrete(name string, scale int, capN int) (*AbstractionAblation, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("evalharness: unknown workload %q", name)
	}
	prog, err := w.Compile(scale)
	if err != nil {
		return nil, err
	}
	res := &AbstractionAblation{Name: name}

	pa := profiler.New(prog, profiler.Options{Slots: 16})
	ma := interp.New(prog)
	ma.Tracer = pa
	if err := ma.Run(); err != nil {
		return nil, err
	}
	res.Steps = ma.Steps
	res.AbstractNodes = pa.G.NumNodes()
	res.AbstractBytes = pa.G.ApproxBytes()

	pu := profiler.New(prog, profiler.Options{Unabstracted: true, UnabstractedCap: capN})
	mu := interp.New(prog)
	mu.Tracer = pu
	if err := mu.Run(); err != nil {
		return nil, err
	}
	res.UnabstractedNodes = pu.G.NumNodes()
	res.UnabstractedBytes = pu.G.ApproxBytes()
	return res, nil
}
