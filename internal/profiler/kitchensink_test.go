package profiler_test

import (
	"testing"

	"lowutil/internal/clients"
	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/profiler"
	"lowutil/internal/taint"
	"lowutil/internal/testprogs"
)

// TestKitchenSinkUnderEveryTracer runs a program containing every opcode
// under each tracer configuration and sanity-checks the results — full
// instruction-kind coverage of the Figure 4 rules and their siblings.
func TestKitchenSinkUnderEveryTracer(t *testing.T) {
	prog := testprogs.KitchenSink()

	t.Run("plain", func(t *testing.T) {
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})

	for _, cfg := range []struct {
		name string
		opts profiler.Options
	}{
		{"thin", profiler.Options{Slots: 8}},
		{"traditional", profiler.Options{Slots: 8, Traditional: true}},
		{"unabstracted", profiler.Options{Unabstracted: true, UnabstractedCap: 4}},
		{"control", profiler.Options{Slots: 8, TrackControl: true}},
		{"cr", profiler.Options{Slots: 8, TrackCR: true}},
	} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			p := profiler.New(prog, cfg.opts)
			m := interp.New(prog)
			m.Tracer = p
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if p.G.NumNodes() == 0 || p.G.NumDepEdges() == 0 {
				t.Error("empty graph")
			}
			an := costben.NewAnalysis(p.G)
			if len(an.RankBySite(4)) == 0 {
				t.Error("empty ranking")
			}
			res := deadness.Analyze(p.G, m.Steps)
			if res.IPD() < 0 || res.IPD() > 100 {
				t.Errorf("IPD out of range: %v", res.IPD())
			}
		})
	}

	t.Run("taint", func(t *testing.T) {
		tr := taint.New(prog)
		m := interp.New(prog)
		m.Tracer = tr
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("nullprop", func(t *testing.T) {
		nt := clients.NewNullTracker(prog)
		m := interp.New(prog)
		m.Tracer = nt
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if nt.G.NumNodes() == 0 {
			t.Error("empty null graph")
		}
	})

	t.Run("copyprofile", func(t *testing.T) {
		cp := clients.NewCopyProfiler(prog)
		m := interp.New(prog)
		m.Tracer = cp
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if cp.TotalCopies == 0 {
			t.Error("no copies recorded")
		}
	})

	t.Run("rewrites+predicates", func(t *testing.T) {
		rw := clients.NewRewriteTracker(prog)
		m := interp.New(prog)
		m.Tracer = rw
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		pt := clients.NewPredicateTracker(prog)
		m2 := interp.New(prog)
		m2.Tracer = pt
		if err := m2.Run(); err != nil {
			t.Fatal(err)
		}
		if len(pt.Constants(1)) == 0 {
			t.Error("the never-taken branch should be constant")
		}
	})
}

// TestUnabstractedCapFolds: beyond the cap, instances fold into the last
// node instead of growing the graph.
func TestUnabstractedCapFolds(t *testing.T) {
	fig := testprogs.Figure3(50, 5)
	p := profiler.New(fig.Prog, profiler.Options{Unabstracted: true, UnabstractedCap: 3})
	m := interp.New(fig.Prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	maxPerInstr := 0
	counts := map[int]int{}
	p.G.Nodes(func(n *depgraph.Node) {
		id := int(n.In.ID)
		counts[id]++
		if counts[id] > maxPerInstr {
			maxPerInstr = counts[id]
		}
	})
	if maxPerInstr > 4 {
		t.Errorf("cap not enforced: %d nodes for one instruction", maxPerInstr)
	}
}
