package lowutil

// A finished profile computes each derived view once, and a saved profile
// reloads to the same views. These pin both: a second read allocates only
// what rendering needs, and Save → LoadProfile → Report gives the live
// report byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

// raceEnabled is set by race_test.go: the race detector adds allocations
// of its own, so allocation bounds do not hold under it.
var raceEnabled bool

// Allocation bounds on a second read of one profile, over the 18 scale-1
// workloads: the worst case (eclipse: 142 and 55) plus a small margin.
// Rebuilding any view costs more than the margin: recomputing them all made
// 269 and 105.
const (
	maxSecondReportAllocs = 150
	maxSecondTopAllocs    = 60
)

// TestSecondReadAllocs: once a profile has rendered its report, a second
// Report(10) or TopStructures(10) runs no condensation, no program scan and
// no ranking, so it allocates only what rendering takes.
func TestSecondReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, w := range workloads.All() {
		pr := productProfile(t, compileWorkload(t, w, 1))
		pr.Report(10)
		report := testing.AllocsPerRun(5, func() { pr.Report(10) })
		top := testing.AllocsPerRun(5, func() { pr.TopStructures(10) })
		if report > maxSecondReportAllocs {
			t.Errorf("%s: a second Report(10) makes %.0f allocations, want at most %d", w.Name, report, maxSecondReportAllocs)
		}
		if top > maxSecondTopAllocs {
			t.Errorf("%s: a second TopStructures(10) makes %.0f allocations, want at most %d", w.Name, top, maxSecondTopAllocs)
		}
	}
}

// saveLoad saves pr and reloads it.
func saveLoad(t *testing.T, prog *Program, pr *Profile) (saved []byte, loaded *Profile) {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := prog.LoadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), loaded
}

// TestSaveLoadSameReport: a reloaded profile renders the live report byte
// for byte, average CR and Gcost size included, at scales 1 and 8 (at 8
// the runs detach when GOMAXPROCS ≥ 2) and at s ∈ {8, 16, 32}; saving the
// reloaded profile again gives the same envelope.
func TestSaveLoadSameReport(t *testing.T) {
	scales := []int{1, 8}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, w := range diffWorkloads(t) {
		for _, scale := range scales {
			prog := compileWorkload(t, w, scale)
			for _, s := range []int{8, 16, 32} {
				live, err := prog.ProfileContext(context.Background(), WithSlots(s))
				if err != nil {
					t.Fatal(err)
				}
				saved, loaded := saveLoad(t, prog, live)
				if got, want := loaded.Report(DefaultTop), live.Report(DefaultTop); got != want {
					t.Errorf("%s at scale %d, s=%d: reloaded report differs:\n%s\nwant the live report:\n%s", w.Name, scale, s, got, want)
				}
				resaved, _ := saveLoad(t, prog, loaded)
				if !bytes.Equal(resaved, saved) {
					t.Errorf("%s at scale %d, s=%d: saving a reloaded profile changes the envelope", w.Name, scale, s)
				}
			}
		}
	}
}

// legacyEnvelope strips a saved profile down to the envelope older
// versions wrote: steps and Gcost only.
func legacyEnvelope(t *testing.T, saved []byte) []byte {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(saved, &env); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(map[string]json.RawMessage{"steps": env["steps"], "graph": env["graph"]})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadLegacyEnvelope: an envelope without version, slot count or CR
// table still loads, as it did before they existed: at the default s its
// report is the live one with an average CR of 0.
func TestLoadLegacyEnvelope(t *testing.T) {
	prog := compileWorkload(t, workloads.ByName("eclipse"), 1)
	live := productProfile(t, prog)
	saved, _ := saveLoad(t, prog, live)
	loaded, err := prog.LoadProfile(bytes.NewReader(legacyEnvelope(t, saved)))
	if err != nil {
		t.Fatal(err)
	}
	if cr := live.GraphStats().AvgCR; cr == 0 {
		t.Fatal("eclipse has no context conflicts; the test cannot tell a lost CR table")
	}
	want := strings.Replace(live.Report(DefaultTop), fmt.Sprintf("avg CR %.3f", live.GraphStats().AvgCR), "avg CR 0.000", 1)
	if got := loaded.Report(DefaultTop); got != want {
		t.Errorf("legacy envelope reloads to:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadProfileRejectsBadEnvelope: run metadata that no Save writes fails
// with an error before any table is sized from it.
func TestLoadProfileRejectsBadEnvelope(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	saved, _ := saveLoad(t, prog, productProfile(t, prog))
	var env map[string]any
	if err := json.Unmarshal(saved, &env); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, field string
		value       any
		want        string
	}{
		{"future version", "version", 2, "unsupported profile version 2"},
		{"no slots", "slots", 0, "bad slot count 0"},
		{"slot bomb", "slots", 1 << 40, "1099511627776 context slots exceed"},
		{"row past the program", "cr", []any{map[string]int{"i": 1 << 20, "max": 1, "sum": 1}}, "bad CR row"},
		{"rows out of order", "cr", []any{map[string]int{"i": 2, "max": 1, "sum": 1}, map[string]int{"i": 1, "max": 1, "sum": 1}}, "bad CR row"},
		{"max over sum", "cr", []any{map[string]int{"i": 1, "max": 3, "sum": 2}}, "bad CR row"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := make(map[string]any, len(env))
			for k, v := range env {
				bad[k] = v
			}
			bad[tc.field] = tc.value
			data, err := json.Marshal(bad)
			if err != nil {
				t.Fatal(err)
			}
			_, err = prog.LoadProfile(bytes.NewReader(data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadProfile = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
