package staticanalysis

import (
	"testing"

	"lowutil/internal/ir"
	"lowutil/internal/workloads"
)

// largestWorkload compiles every workload at scale 1 and returns the one
// with the most instructions (eclipse at the time of writing).
func largestWorkload(tb testing.TB) *ir.Program {
	tb.Helper()
	var best *ir.Program
	for _, w := range workloads.All() {
		prog, err := w.Compile(1)
		if err != nil {
			tb.Fatal(err)
		}
		if best == nil || prog.NumInstrs() > best.NumInstrs() {
			best = prog
		}
	}
	return best
}

func BenchmarkNewCFG(b *testing.B) {
	prog := largestWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range prog.Classes {
			for _, m := range c.Methods {
				ir.NewCFG(m)
			}
		}
	}
}
