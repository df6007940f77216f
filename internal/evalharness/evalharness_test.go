package evalharness

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"lowutil/internal/profiler"
)

func TestTable1SmallSubset(t *testing.T) {
	opts := Options{Scale: 1, Only: []string{"chart", "fop", "bloat"}}
	rows, err := Table1(opts)
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
		for _, sr := range r.BySlots {
			if sr.Nodes <= 0 || sr.DepEdges <= 0 {
				t.Errorf("%s s=%d: empty graph", r.Name, sr.S)
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
	if err := Run(&buf, opts, "table1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"s = 8", "s = 16", "Table 1 (c)", "chart", "IPD"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted table missing %q:\n%s", frag, out)
		}
	}
}

func TestTable1UnknownWorkload(t *testing.T) {
	if _, err := Table1(Options{Scale: 1, Only: []string{"nope"}}); err == nil {
		t.Fatal("want unknown-workload error")
	}
}

// TestOnlyLeavesOutEmptyTables: Only applies to every section, and a table
// it leaves without rows does not print.
func TestOnlyLeavesOutEmptyTables(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Options{Scale: 1, Only: []string{"chart"}}, "table1", "ablations"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\nchart "); n != 4 {
		t.Errorf("chart prints in %d tables, want Table 1's three and the abstraction ablation:\n%s", n, out)
	}
	if strings.Contains(out, "thin vs traditional") {
		t.Errorf("the slicing ablation has no chart row but printed:\n%s", out)
	}
}

// TestOverhead runs the timed section on two rows, and checks the timing
// helper: a profiled run is slower than the plain run it is paired with.
func TestOverhead(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, Options{Scale: 1, Only: []string{"chart", "tradebeans"}}, "overhead"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\nchart ") || strings.Count(out, "\ntradebeans ") != 2 {
		t.Errorf("want chart in Table 1's O table and tradebeans in it and in §4.1's:\n%s", out)
	}

	prog, err := compile("chart", 1)
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := pairedRatios(plain(prog), profiled(prog, profiler.Options{Slots: slots, TrackCR: true}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) != 1 || len(ratios[0]) != overheadRounds {
		t.Fatalf("ratios = %v, want one series of %d", ratios, overheadRounds)
	}
	s := slices.Clone(ratios[0])
	slices.Sort(s)
	if s[len(s)/2] <= 1 {
		t.Errorf("median overhead %.2f must exceed 1x: %v", s[len(s)/2], ratios[0])
	}
	if got, want := spread([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6}), "5.0 (3.0–7.0)"; got != want {
		t.Errorf("spread = %q, want %q", got, want)
	}
}

func TestPhaseExperimentReducesOverhead(t *testing.T) {
	res, err := PhaseExperiment("tradebeans", 2)
	if err != nil {
		t.Fatal(err)
	}
	// The window is a tenth of the run's steps; allowing for uneven event
	// density, the gated run must still record under a quarter of the full
	// run's events. A gate that leaves tracking on past the window records
	// more than a third.
	if 4*res.PhaseEvents >= res.FullEvents {
		t.Errorf("phase restriction should record far fewer events: full=%d phase=%d",
			res.FullEvents, res.PhaseEvents)
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
	res, err := AbstractVsConcrete("chart", 1)
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

// experimentsDoc is the claim sheet, and goldenScale its scale.
const (
	experimentsDoc = "../../EXPERIMENTS.md"
	goldenScale    = 8
)

// TestExperimentsGolden renders the four deterministic sections at the
// claim sheet's scale, and each must equal its block in EXPERIMENTS.md,
// the fenced block opened by "```experiments <section>", byte for byte.
// After an intended change, rewrite the blocks with
//
//	go test ./internal/evalharness -run TestExperimentsGolden -update
//
// and name the numbers that moved in the change. -short skips it:
// scripts/check.sh runs it as its own step.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scripts/check.sh runs the golden as its own step")
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"table1", "phases", "ablations", "casestudies"} {
		var buf bytes.Buffer
		if err := Run(&buf, Options{Scale: goldenScale}, section); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		lo, hi, ok := fencedBlock(doc, section)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no block opened by ```experiments %s", section)
			continue
		}
		if *update {
			doc = slices.Concat(doc[:lo], buf.Bytes(), doc[hi:])
			continue
		}
		for _, d := range lineDiff(buf.String(), string(doc[lo:hi])) {
			t.Errorf("EXPERIMENTS.md section %s, %s", section, d)
		}
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fencedBlock returns the byte range of the body of doc's block opened by
// "```experiments <section>".
func fencedBlock(doc []byte, section string) (lo, hi int, ok bool) {
	open := []byte("```experiments " + section + "\n")
	i := bytes.Index(doc, open)
	if i < 0 {
		return 0, 0, false
	}
	lo = i + len(open)
	// The body ends at the first fence that starts a line.
	j := bytes.Index(doc[lo-1:], []byte("\n```\n"))
	if j < 0 {
		return 0, 0, false
	}
	return lo, lo + j, true
}

// lineDiff describes each line where got differs from want, naming the
// table it is in (its "----" heading) and its row (the first word of the
// nearest unindented line at or above it).
func lineDiff(got, want string) []string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(no line)"
	}
	var diffs []string
	heading, row := "", ""
	for i := range max(len(g), len(w)) {
		gl, wl := line(g, i), line(w, i)
		ref := wl
		if i >= len(w) {
			ref = gl
		}
		switch {
		case strings.HasPrefix(ref, "----"):
			heading, row = ref, "(heading)"
		case ref != "" && ref[0] != ' ':
			row = strings.Fields(ref)[0]
		}
		if gl != wl {
			diffs = append(diffs, fmt.Sprintf("table %q, row %s:\n  got:  %s\n  want: %s", heading, row, gl, wl))
		}
	}
	return diffs
}
