//go:build unix

package lowutil

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// chainSource renders a main of n lines `if (x < k) { y = y + k; }`: one
// method of n branches in a row, the shape that makes a per-edge walk of
// the dominator tree or a per-use list of reaching definitions quadratic.
func chainSource(n int) string {
	var b strings.Builder
	b.WriteString("class Main {\n  static void main() {\n    int x = hash(1);\n    int y = 0;\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "    if (x < %d) { y = y + %d; }\n", k, k)
	}
	b.WriteString("    print(y);\n  }\n}\n")
	return b.String()
}

// loopSource renders the chain's n lines as `if (x < k) { y = y + b.v; }`
// inside a loop that allocates b: one allocation site whose n loads each
// feed the chain of sums, the shape that makes a per-access walk over the
// method's values quadratic.
func loopSource(n int) string {
	var b strings.Builder
	b.WriteString("class Box { int v; }\nclass Main {\n  static void main() {\n    int x = hash(1);\n    int y = 0;\n    int i = 0;\n")
	b.WriteString("    while (i < 10) {\n      Box b = new Box();\n      b.v = i;\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "      if (x < %d) { y = y + b.v; }\n", k)
	}
	b.WriteString("      i = i + 1;\n    }\n    print(y);\n  }\n}\n")
	return b.String()
}

// loopsSource renders n counted loops in a row, each
// `i = 0; while (i < k) { y = y + x; i = i + 1; }` with k from 1 to 7: one
// method of n natural loops, the shape that makes a scan of every loop per
// loop quadratic.
func loopsSource(n int) string {
	var b strings.Builder
	b.WriteString("class Main {\n  static void main() {\n    int x = hash(1);\n    int y = 0;\n    int i = 0;\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&b, "    i = 0;\n    while (i < %d) { y = y + x; i = i + 1; }\n", k%7+1)
	}
	b.WriteString("    print(y);\n  }\n}\n")
	return b.String()
}

// Bounds on one Compile of chainSource(4000): 142 KB of source, 20,007
// instructions in one method, whose 64-byte instructions alone take about
// 9 bytes a source byte. The allocation bound holds the builder to chunks:
// growing the body by plain append, even of 64-byte instructions, would
// allocate about 13 MB.
const (
	maxCompileKeptPerSrcByte = 12
	maxCompileAllocBytes     = 12 << 20
)

// TestCompileBytes pins what Compile keeps and what it allocates on the
// chain: kept is the live heap's growth across the compile, with the
// program still reachable, after two collections on each side. It runs
// alone (not parallel), so no other test's garbage lands in the window.
func TestCompileBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	src := chainSource(4000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	kept := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(src))
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("chain n=4000: %d source bytes, %d instructions: keeps %.1f bytes a source byte, allocates %.1f MB",
		len(src), p.NumInstructions(), kept, float64(alloc)/(1<<20))
	if kept > maxCompileKeptPerSrcByte {
		t.Errorf("Compile keeps %.1f bytes a source byte (at most %d)", kept, maxCompileKeptPerSrcByte)
	}
	if alloc > maxCompileAllocBytes {
		t.Errorf("Compile allocates %.1f MB (at most %d MB)", float64(alloc)/(1<<20), maxCompileAllocBytes>>20)
	}
}

// cost is what one call of a surface spent: the process's CPU time and the
// bytes it allocated.
type cost struct {
	cpu   time.Duration
	bytes uint64
}

func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs fn once to warm up and then calls times in a row, and
// returns what one of those calls spent on average. The warm-up leaves the
// collector paced for this size: measured from a freshly collected heap, a
// call would start at the collector's 4 MB minimum goal and the large one
// would pay for many more cycles per byte, which inflated the growth of a
// surface whose steady-state work grows 3.8× to 5–6×.
func measure(t *testing.T, calls int, fn func() error) cost {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuTime(t)
	for range calls {
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	cpu := cpuTime(t) - cpu0
	runtime.ReadMemStats(&ms)
	return cost{cpu: cpu / time.Duration(calls), bytes: (ms.TotalAlloc - alloc0) / uint64(calls)}
}

// growth measures one surface at both sizes and returns the growth in
// bytes and in CPU time, each the ratio of the minimum of three runs. A
// run at n is eight calls in a row and a run at 4n two, and each counts
// their mean, so both sizes analyze the same amount of source per run: on
// a shared host a 10 ms call is more often lucky than a 40 ms one, and the
// minimum picks the luck. The more calls a run averages, the less one
// slow spell or one collection moves it. The runs of the two sizes
// alternate, so a slow spell lands on both.
func growth(t *testing.T, run func(i int) error) (bytes, cpu float64, lo, hi cost) {
	t.Helper()
	best := [2]cost{{cpu: 1<<63 - 1, bytes: 1<<64 - 1}, {cpu: 1<<63 - 1, bytes: 1<<64 - 1}}
	for range 3 {
		for i, calls := range []int{8, 2} {
			c := measure(t, calls, func() error { return run(i) })
			best[i] = cost{cpu: min(best[i].cpu, c.cpu), bytes: min(best[i].bytes, c.bytes)}
		}
	}
	lo, hi = best[0], best[1]
	return float64(hi.bytes) / float64(max(lo.bytes, 1)), float64(hi.cpu) / float64(max(lo.cpu, time.Microsecond)), lo, hi
}

// TestStaticScaling is the linear-work gate of the static surfaces: from n
// to 4n lines of the chain, the loop and the loops, compile, vet, audit and
// the SSA dump may allocate at most 5× the bytes and spend at most 6× the
// CPU time (each the minimum of three runs, see growth). A surface that
// walks a method once per branch, per use, per heap access or per loop
// grows about 16× instead. CPU time is only comparable between sizes when
// nothing else competes for the host, so scripts/check.sh runs the gate
// alone, in its own step. The slice surface's static Gcost lists one
// dependence per (use, reaching definition) pair and is still quadratic,
// so it is not gated here.
func TestStaticScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: the scaling gate compiles and analyzes six large programs")
	}
	ctx := context.Background()
	shapes := []struct {
		name   string
		src    func(int) string
		n, big int
	}{
		{"chain", chainSource, 2000, 8000},
		{"loop", loopSource, 1500, 6000},
		{"loops", loopsSource, 1000, 4000},
	}
	surfaces := []struct {
		name string
		run  func(src string, p *Program) error
	}{
		{"compile", func(src string, _ *Program) error { _, err := Compile(src); return err }},
		{"vet", func(_ string, p *Program) error { _, err := p.VetContext(ctx); return err }},
		{"audit", func(_ string, p *Program) error { _, err := p.StaticAudit(ctx); return err }},
		{"ssa", func(_ string, p *Program) error { _, err := p.SSADumpContext(ctx, ""); return err }},
	}
	for _, sh := range shapes {
		var srcs [2]string
		var progs [2]*Program
		for i, n := range []int{sh.n, sh.big} {
			srcs[i] = sh.src(n)
			p, err := Compile(srcs[i])
			if err != nil {
				t.Fatalf("%s n=%d: %v", sh.name, n, err)
			}
			progs[i] = p
		}
		for _, s := range surfaces {
			bytes, cpu, lo, hi := growth(t, func(i int) error { return s.run(srcs[i], progs[i]) })
			t.Logf("%s %s: n=%d %v %d B, n=%d %v %d B: bytes %.2f×, cpu %.2f×",
				sh.name, s.name, sh.n, lo.cpu, lo.bytes, sh.big, hi.cpu, hi.bytes, bytes, cpu)
			if bytes > 5 {
				t.Errorf("%s %s allocates %.2f× more bytes from n=%d to n=%d (at most 5×)", sh.name, s.name, bytes, sh.n, sh.big)
			}
			if cpu > 6 {
				t.Errorf("%s %s spends %.2f× more CPU time from n=%d to n=%d (at most 6×)", sh.name, s.name, cpu, sh.n, sh.big)
			}
		}
	}
}
