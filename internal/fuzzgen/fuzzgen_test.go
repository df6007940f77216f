package fuzzgen

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the checked-in corpus from fixed seeds")

// TestGeneratorDeterministic: the same seed must render the same source,
// byte for byte, across independent Generate calls — the whole replay story
// (corpus, `lowutil fuzz -seed`, shrink reproduction) depends on it.
func TestGeneratorDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		a := Generate(seed, DefaultConfig).Render()
		b := Generate(seed, DefaultConfig).Render()
		if a != b {
			t.Fatalf("seed %d: two generations differ", seed)
		}
		if !strings.Contains(a, fmt.Sprintf("seed=%d", seed)) {
			t.Fatalf("seed %d: header missing from rendered source", seed)
		}
	}
}

// TestFuzzBatchClean runs the full differential suite over a batch of fresh
// seeds and requires zero violations. This is the live generator+harness
// gate: any engine-pair divergence or soundness hole reachable within the
// batch shows up here with a shrunk reproducer in the failure message.
func TestFuzzBatchClean(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	sum := Run(Options{Seed: 1, N: n})
	if sum.Programs != n {
		t.Fatalf("ran %d programs, want %d", sum.Programs, n)
	}
	if want := int64(n * len(Invariants())); sum.Checks != want {
		t.Fatalf("ran %d checks, want %d", sum.Checks, want)
	}
	for _, f := range sum.Failures {
		t.Errorf("seed %d violates %s: %s\nshrunk reproducer:\n%s",
			f.Seed, f.Invariant, f.Detail, f.Shrunk)
	}
}

// TestRunDeterministic: with a fixed seed and N, two runs must produce
// structurally identical summaries — the property behind the CLI's
// byte-identical JSON output for `lowutil fuzz -seed 1 -n 200`.
func TestRunDeterministic(t *testing.T) {
	a := Run(Options{Seed: 7, N: 4})
	b := Run(Options{Seed: 7, N: 4})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("summaries differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestBrokenInvariantCaughtAndShrunk injects a deliberately failing
// invariant — "no program may contain a virtual .step( call" — and proves
// the driver catches it and shrinks the reproducer: the shrunk source must
// be smaller, still compile, and still contain the offending call.
func TestBrokenInvariantCaughtAndShrunk(t *testing.T) {
	extraInvariants = []Invariant{{
		Name: "synthetic-no-step-call",
		check: func(c *caseRun) error {
			if _, err := c.irProg(); err != nil {
				return errSkip
			}
			if strings.Contains(c.src, ".step(") {
				return fmt.Errorf("source contains a virtual .step( call")
			}
			return nil
		},
	}}
	defer func() { extraInvariants = nil }()

	sum := Run(Options{Seed: 3, N: 10, MaxFailures: 1})
	if len(sum.Failures) == 0 {
		t.Fatal("broken invariant was not caught within 10 programs")
	}
	f := sum.Failures[0]
	if f.Invariant != "synthetic-no-step-call" {
		t.Fatalf("caught %q, want the synthetic invariant", f.Invariant)
	}
	if !strings.Contains(f.Shrunk, ".step(") {
		t.Fatal("shrunk reproducer lost the failing property")
	}
	if len(f.Shrunk) >= len(f.Source) {
		t.Fatalf("shrinking made no progress: %d -> %d bytes", len(f.Source), len(f.Shrunk))
	}
	if failed, _ := CheckNamed("compiles", f.Shrunk); failed {
		t.Fatal("shrunk reproducer does not compile")
	}
	t.Logf("shrunk %d -> %d bytes", len(f.Source), len(f.Shrunk))
}

// TestShrinkRespectsPins: with "still compiles" as the failing property the
// shrinker deletes almost everything, but the pinned skeleton (Main.main's
// return structure, loop decrements) must keep every candidate well-formed.
func TestShrinkRespectsPins(t *testing.T) {
	p := Generate(11, DefaultConfig)
	src := p.Render()
	compiles := func(s string) bool {
		failed, _ := CheckNamed("compiles", s)
		return !failed
	}
	if !compiles(src) {
		t.Fatal("seed 11 does not compile")
	}
	shrunk := Shrink(p, compiles)
	out := shrunk.Render()
	if !compiles(out) {
		t.Fatal("shrunk program does not compile")
	}
	if len(out) >= len(src) {
		t.Fatalf("no progress: %d -> %d bytes", len(src), len(out))
	}
	if !strings.Contains(out, "class Main") {
		t.Fatal("shrinker deleted Main")
	}
}

// TestCheckNamedSkipsNonCompiling: a non-compiling source fails only the
// "compiles" invariant; every other invariant must report not-failed so the
// shrinker never trades one bug for another.
func TestCheckNamedSkipsNonCompiling(t *testing.T) {
	src := "class Main { static void main() { int x = ; } }"
	if failed, _ := CheckNamed("compiles", src); !failed {
		t.Fatal("compiles invariant passed on broken source")
	}
	for _, inv := range Invariants() {
		if inv.Name == "compiles" {
			continue
		}
		if failed, detail := CheckNamed(inv.Name, src); failed {
			t.Errorf("%s failed on a non-compiling source: %s", inv.Name, detail)
		}
	}
	vs := CheckAll(src)
	if len(vs) != 1 || vs[0].Invariant != "compiles" {
		t.Fatalf("CheckAll on broken source = %+v, want exactly the compiles violation", vs)
	}
}

// corpusSeeds are the fixed seeds behind the checked-in regression corpus.
// Regenerate the files with: go test ./internal/fuzzgen -run Corpus -update-corpus
// The last entry is a fuzzer-found regression: under this seed the dense
// profiler's fast path lost frequency increments to a stale table view
// whenever AfterCall's intern grew the table, which surfaced as a ranking
// divergence between a full and a statically pruned profile, a comparison
// since removed with the prune (see profiler.TestDenseFreqMatchesLegacyGraph).
var corpusSeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
	7665958480717146759}

// TestCorpusReplay replays every checked-in corpus program through the full
// invariant suite. The corpus pins the generator's output format (a corpus
// diff under -update-corpus flags an unintended generator change) and keeps
// the differential invariants exercised in ordinary `go test` runs even
// when the fuzz budget elsewhere is zero.
func TestCorpusReplay(t *testing.T) {
	dir := "corpus"
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, seed := range corpusSeeds {
			src := Generate(seed, DefaultConfig).Render()
			name := filepath.Join(dir, fmt.Sprintf("seed-%04d.mj", seed))
			if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-corpus)", err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mj") {
			files = append(files, e.Name())
		}
	}
	if len(files) < 10 {
		t.Fatalf("corpus has %d programs, want >= 10", len(files))
	}
	if testing.Short() {
		files = files[:5]
	}
	totalDeps := 0
	for _, name := range files {
		name := name
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range CheckAll(string(src)) {
				t.Errorf("%s: %s", v.Invariant, v.Detail)
			}
			c := newCaseRun(string(src))
			if g, err := c.dynGraph(); err == nil {
				totalDeps += g.NumDepEdges()
			}
		})
	}
	if totalDeps == 0 {
		t.Error("no corpus program produced dynamic dep edges; the containment invariants would be vacuous")
	}
}

// TestCorpusMatchesGenerator: each corpus file must be exactly what the
// generator produces for its seed today — drift means the generator changed
// and the corpus (plus any seed-based reproduction instructions) is stale.
func TestCorpusMatchesGenerator(t *testing.T) {
	for _, seed := range corpusSeeds {
		name := filepath.Join("corpus", fmt.Sprintf("seed-%04d.mj", seed))
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-corpus)", err)
		}
		if got := Generate(seed, DefaultConfig).Render(); got != string(want) {
			t.Errorf("seed %d: generator output drifted from %s (regenerate with -update-corpus if intended)", seed, name)
		}
	}
}

// TestWideHierarchy generates with up to 8 subclasses: every seed must
// yield a program that compiles, and the seeds together must reach the
// eighth subclass.
func TestWideHierarchy(t *testing.T) {
	cfg := DefaultConfig
	cfg.MaxSubclasses = 8
	widest := false
	for seed := uint64(1); seed <= 20; seed++ {
		src := Generate(seed, cfg).Render()
		if failed, detail := CheckNamed("compiles", src); failed {
			t.Fatalf("seed %d: %s", seed, detail)
		}
		widest = widest || strings.Contains(src, "class SubH extends")
	}
	if !widest {
		t.Error("no seed generated an eighth subclass")
	}
	if got := letters(27, 'A'); got != "AB" {
		t.Errorf("letters(27) = %q, want AB", got)
	}
}
