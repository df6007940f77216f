package depgraph_test

// Freeze runs inside every profiled request (costben.NewAnalysis), so its
// cost is a fixed tax on short runs. These pin that it allocates a small
// constant per snapshot, whatever the graph's size, and time it over the
// 18 workloads.
//
//	go test ./internal/depgraph -run '^$' -bench Freeze -benchmem

import (
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/workloads"
)

// maxFreezeAllocs bounds the allocations of one Freeze on any graph.
const maxFreezeAllocs = 48

// workloadGraphs profiles every workload at scale with the facade's
// profiler options.
func workloadGraphs(tb testing.TB, scale int) []*depgraph.Graph {
	tb.Helper()
	var gs []*depgraph.Graph
	for _, w := range workloads.All() {
		prog, err := w.Compile(scale)
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, profileGraph(tb, prog))
	}
	return gs
}

// TestFreezeAllocs: a snapshot costs the same handful of allocations on
// every workload graph, at scale 1 and at scale 32.
func TestFreezeAllocs(t *testing.T) {
	scales := []int{1, 32}
	if testing.Short() {
		scales = scales[:1]
	}
	names := workloads.All()
	for _, scale := range scales {
		for i, g := range workloadGraphs(t, scale) {
			allocs := testing.AllocsPerRun(5, func() {
				g.Invalidate()
				g.Freeze()
			})
			if allocs > maxFreezeAllocs {
				t.Errorf("%s at scale %d: Freeze of %d nodes makes %.0f allocations, want at most %d",
					names[i].Name, scale, g.NumNodes(), allocs, maxFreezeAllocs)
			}
		}
	}
}

// BenchmarkFreeze rebuilds the snapshot of each scale-1 workload graph once
// per iteration.
func BenchmarkFreeze(b *testing.B) {
	gs := workloadGraphs(b, 1)
	var nodes int
	for _, g := range gs {
		nodes += g.NumNodes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			g.Invalidate()
			g.Freeze()
		}
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}
