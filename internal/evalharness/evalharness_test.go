package evalharness

import (
	"bytes"
	"strings"
	"testing"
)

func TestTable1SmallSubset(t *testing.T) {
	// Workers: 1 — the overhead assertions below compare wall clocks, which
	// a concurrent sweep would perturb.
	rows, err := Table1(Options{Scale: 1, Slots: []int{8, 16}, Only: []string{"chart", "fop", "bloat"}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]*Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Steps < 1000 {
			t.Errorf("%s: too few steps (%d)", r.Name, r.Steps)
		}
		if len(r.BySlots) != 2 {
			t.Fatalf("%s: slot results = %d", r.Name, len(r.BySlots))
		}
		for _, sr := range r.BySlots {
			if sr.Nodes <= 0 || sr.DepEdges <= 0 {
				t.Errorf("%s s=%d: empty graph", r.Name, sr.S)
			}
			if sr.Overhead <= 1 {
				t.Errorf("%s s=%d: overhead %.2f must exceed 1x", r.Name, sr.S, sr.Overhead)
			}
			if sr.CR < 0 || sr.CR > 1 {
				t.Errorf("%s s=%d: CR out of range: %v", r.Name, sr.S, sr.CR)
			}
			// The central scalability claim: the graph is orders of
			// magnitude smaller than the trace.
			if int64(sr.Nodes) > r.Steps/10 {
				t.Errorf("%s s=%d: %d nodes vs %d instances — not compact",
					r.Name, sr.S, sr.Nodes, r.Steps)
			}
		}
		// s=16 admits at least as many nodes as s=8.
		if r.BySlots[1].Nodes < r.BySlots[0].Nodes {
			t.Errorf("%s: nodes shrank when s grew: %d → %d",
				r.Name, r.BySlots[0].Nodes, r.BySlots[1].Nodes)
		}
	}
	// Shape: bloat and chart out-IPD fop.
	if byName["bloat"].IPD <= byName["fop"].IPD || byName["chart"].IPD <= byName["fop"].IPD {
		t.Errorf("IPD shape wrong: bloat=%.1f chart=%.1f fop=%.1f",
			byName["bloat"].IPD, byName["chart"].IPD, byName["fop"].IPD)
	}

	var buf bytes.Buffer
	Format(rows, &buf)
	out := buf.String()
	for _, frag := range []string{"s = 8", "s = 16", "part (c)", "chart", "IPD"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted table missing %q:\n%s", frag, out)
		}
	}
}

func TestTable1ParallelKeepsOrderAndResults(t *testing.T) {
	only := []string{"chart", "fop", "bloat"}
	serial, err := Table1(Options{Scale: 1, Slots: []int{8}, Only: only, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(Options{Scale: 1, Slots: []int{8}, Only: only, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("rows: %d vs %d", len(parallel), len(serial))
	}
	for i, p := range parallel {
		s := serial[i]
		// Wall clocks differ under contention; everything else must match.
		if p.Name != s.Name || p.Steps != s.Steps || p.Allocs != s.Allocs ||
			p.IPD != s.IPD || p.IPP != s.IPP || p.NLD != s.NLD {
			t.Fatalf("row %d differs: parallel %+v serial %+v", i, p, s)
		}
		for k := range p.BySlots {
			ps, ss := p.BySlots[k], s.BySlots[k]
			if ps.Nodes != ss.Nodes || ps.DepEdges != ss.DepEdges ||
				ps.RefEdges != ss.RefEdges || ps.CR != ss.CR {
				t.Fatalf("%s s=%d differs: parallel %+v serial %+v", p.Name, ps.S, ps, ss)
			}
		}
	}
}

func TestTable1UnknownWorkload(t *testing.T) {
	if _, err := Table1(Options{Only: []string{"nope"}}); err == nil {
		t.Fatal("want unknown-workload error")
	}
}

// TestTable1RejectsOversizedSlots: a -slots value whose profiling tables
// no machine could hold is an error, not an allocator crash.
func TestTable1RejectsOversizedSlots(t *testing.T) {
	_, err := Table1(Options{Scale: 1, Slots: []int{8, 1 << 40}, Only: []string{"chart"}, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "table budget") {
		t.Fatalf("Table1 with 1<<40 slots: err = %v, want a table-budget error", err)
	}
}

func TestPhaseExperimentReducesOverhead(t *testing.T) {
	res, err := PhaseExperiment("tradebeans", 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// The saving is asserted on recorded Gcost events, not on the
	// wall-clock ratios of millisecond runs, which a busy host can invert.
	// The window is a tenth of the run's steps; allowing for uneven event
	// density, the gated run must still record under a quarter of the full
	// run's events. A gate that leaves tracking on past the window records
	// more than a third.
	if 4*res.PhaseEvents >= res.FullEvents {
		t.Errorf("phase restriction should record far fewer events: full=%d phase=%d (overhead full=%.1fx phase=%.1fx)",
			res.FullEvents, res.PhaseEvents, res.FullOverhead, res.PhaseOverhead)
	}
	if res.PhaseNodes >= res.FullNodes {
		t.Errorf("phase graph (%d nodes) should be smaller than full (%d)",
			res.PhaseNodes, res.FullNodes)
	}
	if res.PhaseNodes == 0 {
		t.Error("phase graph empty: the window never enabled tracking")
	}
}

func TestThinVsTraditionalAblation(t *testing.T) {
	res, err := ThinVsTraditional("xalan", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraditionalEdges <= res.ThinEdges {
		t.Errorf("traditional edges (%d) should exceed thin (%d)",
			res.TraditionalEdges, res.ThinEdges)
	}
	if res.TradSliceNodes < res.ThinSliceNodes {
		t.Errorf("traditional slices (%d) should be at least as large as thin (%d)",
			res.TradSliceNodes, res.ThinSliceNodes)
	}
}

func TestAbstractVsConcreteAblation(t *testing.T) {
	res, err := AbstractVsConcrete("chart", 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnabstractedNodes <= 2*res.AbstractNodes {
		t.Errorf("unabstracted graph (%d nodes) should dwarf abstract (%d)",
			res.UnabstractedNodes, res.AbstractNodes)
	}
	if res.UnabstractedBytes <= res.AbstractBytes {
		t.Errorf("unabstracted memory (%d) should exceed abstract (%d)",
			res.UnabstractedBytes, res.AbstractBytes)
	}
}
