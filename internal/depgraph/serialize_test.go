package depgraph_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/testprogs"
	"lowutil/internal/workloads"
)

// TestRoundTripPreservesAnalyses: serialize a real Gcost, reload it, and
// verify every downstream analysis produces identical results — the §3.2
// offline-analysis deployment mode.
func TestRoundTripPreservesAnalyses(t *testing.T) {
	fig := testprogs.Figure3(30, 20)
	p := profiler.New(fig.Prog, profiler.Options{Slots: 16})
	m := interp.New(fig.Prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p.G.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := depgraph.Decode(bytes.NewReader(buf.Bytes()), fig.Prog)
	if err != nil {
		t.Fatal(err)
	}

	if g2.NumNodes() != p.G.NumNodes() || g2.NumDepEdges() != p.G.NumDepEdges() ||
		g2.NumRefEdges() != p.G.NumRefEdges() || g2.TotalFreq() != p.G.TotalFreq() {
		t.Fatalf("graph shape changed: nodes %d/%d edges %d/%d refs %d/%d freq %d/%d",
			p.G.NumNodes(), g2.NumNodes(), p.G.NumDepEdges(), g2.NumDepEdges(),
			p.G.NumRefEdges(), g2.NumRefEdges(), p.G.TotalFreq(), g2.TotalFreq())
	}

	// Cost-benefit ranking must match exactly.
	a1 := costben.NewAnalysis(p.G)
	a2 := costben.NewAnalysis(g2)
	r1 := costben.FormatTop(a1.RankBySite(4), 10)
	r2 := costben.FormatTop(a2.RankBySite(4), 10)
	if r1 != r2 {
		t.Errorf("rankings differ after round trip:\n--- live ---\n%s--- loaded ---\n%s", r1, r2)
	}

	// Deadness must match exactly.
	d1 := deadness.Analyze(p.G, m.Steps)
	d2 := deadness.Analyze(g2, m.Steps)
	if d1.IPD() != d2.IPD() || d1.IPP() != d2.IPP() || d1.NLD() != d2.NLD() {
		t.Errorf("deadness differs: %v/%v/%v vs %v/%v/%v",
			d1.IPD(), d1.IPP(), d1.NLD(), d2.IPD(), d2.IPP(), d2.NLD())
	}
}

func TestSerializationDeterministic(t *testing.T) {
	fig := testprogs.Figure6(10, 5)
	p := profiler.New(fig.Prog, profiler.Options{Slots: 8})
	m := interp.New(fig.Prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := p.G.Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := p.G.Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("serialization is not deterministic")
	}
}

func TestLoadIntoWrongProgramRejected(t *testing.T) {
	fig := testprogs.Figure3(5, 5)
	p := profiler.New(fig.Prog, profiler.Options{Slots: 8})
	m := interp.New(fig.Prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.G.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := workloads.ByName("chart").Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := depgraph.Decode(bytes.NewReader(buf.Bytes()), other); err == nil ||
		!strings.Contains(err.Error(), "different program") {
		t.Fatalf("want fingerprint rejection, got %v", err)
	}
}

func TestLoadGarbageRejected(t *testing.T) {
	fig := testprogs.Figure3(2, 2)
	if _, err := depgraph.Decode(strings.NewReader("not json"), fig.Prog); err == nil {
		t.Error("want decode error")
	}
	if _, err := depgraph.Decode(strings.NewReader(`{"version":99}`), fig.Prog); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("want version error, got %v", err)
	}

	// A location edge without a node ("n": -1) must be rejected with a
	// DecodeError instead of reaching the graph as a nil node.
	p := profiler.New(fig.Prog, profiler.Options{Slots: 8})
	m := interp.New(fig.Prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.G.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"locStores", "locLoads"} {
		var sg map[string]any
		if err := json.Unmarshal(buf.Bytes(), &sg); err != nil {
			t.Fatal(err)
		}
		edges, _ := sg[section].([]any)
		if len(edges) == 0 {
			t.Fatalf("%s: the test program records no entries", section)
		}
		edges[0].(map[string]any)["n"] = -1
		bad, err := json.Marshal(sg)
		if err != nil {
			t.Fatal(err)
		}
		var de *depgraph.DecodeError
		if _, err := depgraph.Decode(bytes.NewReader(bad), fig.Prog); !errors.As(err, &de) {
			t.Errorf("%s entry with n=-1: got %v, want a *DecodeError", section, err)
		}
	}
}
