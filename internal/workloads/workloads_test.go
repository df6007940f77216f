package workloads

import (
	"slices"
	"testing"

	"lowutil/internal/deadness"
	"lowutil/internal/interp"
	"lowutil/internal/mjc"
	"lowutil/internal/profiler"
)

func TestAllEighteenRegistered(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("workloads = %d, want 18", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		if names[w.Name] {
			t.Errorf("duplicate %s", w.Name)
		}
		names[w.Name] = true
		if w.Profile == "" {
			t.Errorf("%s has no profile description", w.Name)
		}
	}
	for _, want := range []string{"antlr", "bloat", "chart", "eclipse", "sunflow", "tradesoap"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

// TestAllCompileAndRun: every workload compiles, runs to completion
// deterministically, and produces output.
func TestAllCompileAndRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile(1)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			m := interp.New(prog)
			m.MaxSteps = 200_000_000
			if err := m.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(m.Output) == 0 {
				t.Error("no output: workload result is unobservable")
			}
			if m.Steps < 1000 {
				t.Errorf("only %d steps: workload too trivial", m.Steps)
			}

			// Determinism.
			m2 := interp.New(prog)
			m2.MaxSteps = 200_000_000
			if err := m2.Run(); err != nil {
				t.Fatal(err)
			}
			if len(m.Output) != len(m2.Output) {
				t.Fatal("nondeterministic output length")
			}
			for i := range m.Output {
				if m.Output[i] != m2.Output[i] {
					t.Fatalf("nondeterministic output at %d", i)
				}
			}
		})
	}
}

// TestScaleGrowsWork: scale must increase executed instructions roughly
// proportionally.
func TestScaleGrowsWork(t *testing.T) {
	w := ByName("chart")
	steps := func(scale int) int64 {
		prog, err := w.Compile(scale)
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(prog)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Steps
	}
	s1, s4 := steps(1), steps(4)
	if s4 < 3*s1 {
		t.Errorf("scale 4 steps (%d) should be ~4x scale 1 (%d)", s4, s1)
	}
}

// TestProfilesHoldShape: the high-IPD trio (bloat, eclipse, sunflow) must
// measurably out-IPD the low-IPD fop under the dead-value analysis — the
// central Table 1(c) shape.
func TestProfilesHoldShape(t *testing.T) {
	ipd := func(name string) float64 {
		w := ByName(name)
		prog, err := w.Compile(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := profiler.New(prog, profiler.Options{Slots: 16})
		m := interp.New(prog)
		m.Tracer = p
		if err := m.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return deadness.Analyze(p.G, m.Steps).IPD()
	}
	fop := ipd("fop")
	for _, name := range []string{"bloat", "chart", "sunflow"} {
		if got := ipd(name); got <= fop {
			t.Errorf("IPD(%s) = %.1f%% should exceed IPD(fop) = %.1f%%", name, got, fop)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if ByName("nope") != nil {
		t.Error("unknown workload should be nil")
	}
}

// unplanted are the workloads that plant no low-utility structure: every
// structure they build feeds their output or their control decisions.
var unplanted = []string{"antlr", "fop", "pmd", "jython", "luindex", "lusearch", "avrora"}

// TestPlantsNameAllocations: at scales 1 and 8, every plant names a method
// that allocates on the plant's line, and only the unplanted workloads
// name no plant.
func TestPlantsNameAllocations(t *testing.T) {
	var none []string
	for _, w := range All() {
		if len(w.Plants) == 0 {
			none = append(none, w.Name)
		}
		for _, scale := range []int{1, 8} {
			prog, err := w.Compile(scale)
			if err != nil {
				t.Fatal(err)
			}
			sites, err := w.PlantSites(prog)
			if err != nil {
				t.Errorf("scale %d: %v", scale, err)
			} else if len(sites) < len(w.Plants) {
				t.Errorf("%s scale %d: %d plants name only %d sites", w.Name, scale, len(w.Plants), len(sites))
			}
		}
	}
	if !slices.Equal(none, unplanted) {
		t.Errorf("workloads without plants = %v, want %v", none, unplanted)
	}
}

// TestFixesApply: at scales 1 and 8, every edit of every fix matches its
// source exactly once and the fixed program compiles; a workload without a
// fix, and an edit that does not match, are refused.
func TestFixesApply(t *testing.T) {
	fixed := 0
	for _, w := range All() {
		if w.Fix == nil {
			if _, err := w.FixedSource(1); err == nil {
				t.Errorf("%s has no fix, but FixedSource succeeded", w.Name)
			}
			continue
		}
		fixed++
		if w.Fix.PaperResult == "" || w.Fix.Text == "" || len(w.Fix.Edits) == 0 {
			t.Errorf("%s: fix lacks its paper result, text or edits", w.Name)
		}
		for _, scale := range []int{1, 8} {
			src, err := w.FixedSource(scale)
			if err != nil {
				t.Fatalf("scale %d: %v", scale, err)
			}
			if _, err := mjc.Compile(src); err != nil {
				t.Errorf("%s scale %d: fixed program: %v", w.Name, scale, err)
			}
		}
	}
	if fixed != 6 {
		t.Errorf("%d workloads carry a fix, want §4.2's six", fixed)
	}
	twice := &Workload{Name: "twice", Source: ByName("sunflow").Source,
		Fix: &Fix{Edits: []Edit{{"this.", "that."}}}}
	if _, err := twice.FixedSource(1); err == nil {
		t.Error("an edit that matches many times was applied")
	}
}
