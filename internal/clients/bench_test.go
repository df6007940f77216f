package clients_test

import (
	"testing"

	"lowutil/internal/clients"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/taint"
	"lowutil/internal/workloads"
)

// BenchmarkClientTracers times one traced run of each of the 18 workloads
// at scale 1 per iteration, interpreter included, under each value-flow
// client: null propagation, copy profiling and the Figure 1 taint baseline.
func BenchmarkClientTracers(b *testing.B) {
	var progs []*ir.Program
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, c := range []struct {
		name   string
		tracer func(*ir.Program) interp.Tracer
	}{
		{"null", func(p *ir.Program) interp.Tracer { return clients.NewNullTracker(p) }},
		{"copy", func(p *ir.Program) interp.Tracer { return clients.NewCopyProfiler(p) }},
		{"taint", func(p *ir.Program) interp.Tracer { return taint.New(p) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, prog := range progs {
					m := interp.New(prog)
					m.Tracer = c.tracer(prog)
					if err := m.Run(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
