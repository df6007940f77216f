package lowutil

// A finished profile computes each derived view once, and a saved profile
// reloads to the same views. These pin both: a second read allocates only
// what rendering needs, Save → LoadProfile → Report gives the live report
// byte for byte, and the views' bytes match a golden.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

// raceEnabled is set by race_test.go: the race detector adds allocations
// of its own, so allocation bounds do not hold under it.
var raceEnabled bool

// Allocation bounds on a second read of one profile, over the 18 scale-1
// workloads: the worst case plus a small margin. A second Report(10) makes
// 12–29 allocations, TopStructures(10) and TopStructuresMultiHop(10, 1)
// 3–11 (the slice and one location string a row) and Collections(10) 0–5.
// Rendering a row through fmt, or ranking again, costs more than the
// margin: formatting each row twice made 35–142 and 12–55, and re-ranking
// for Collections(10) and TopStructuresMultiHop(10, 1) 16–65 and 17–92.
const (
	maxSecondReportAllocs      = 34
	maxSecondTopAllocs         = 12
	maxSecondCollectionsAllocs = 8
)

// TestSecondReadAllocs: once a profile has rendered its report, a second
// Report(10), TopStructures(10), Collections(10) or
// TopStructuresMultiHop(10, 1) runs no condensation, no program scan and
// no ranking, so it allocates only what rendering takes.
func TestSecondReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, w := range workloads.All() {
		pr := productProfile(t, compileWorkload(t, w, 1))
		pr.Report(10)
		for _, c := range []struct {
			name string
			read func()
			max  int
		}{
			{"Report(10)", func() { pr.Report(10) }, maxSecondReportAllocs},
			{"TopStructures(10)", func() { pr.TopStructures(10) }, maxSecondTopAllocs},
			{"TopStructuresMultiHop(10, 1)", func() { pr.TopStructuresMultiHop(10, 1) }, maxSecondTopAllocs},
			{"Collections(10)", func() { pr.Collections(10) }, maxSecondCollectionsAllocs},
		} {
			c.read()
			if n := testing.AllocsPerRun(5, c.read); n > float64(c.max) {
				t.Errorf("%s: a second %s makes %.0f allocations, want at most %d", w.Name, c.name, n, c.max)
			}
		}
	}
}

// viewQueries are the ranked and tabular views the views golden pins.
var viewQueries = []struct {
	name string
	run  func(*Profile) any
}{
	{"multihop1", func(pr *Profile) any { return pr.TopStructuresMultiHop(10, 1) }},
	{"multihop2", func(pr *Profile) any { return pr.TopStructuresMultiHop(10, 2) }},
	{"multihop3", func(pr *Profile) any { return pr.TopStructuresMultiHop(10, 3) }},
	{"collections", func(pr *Profile) any { return pr.Collections(10) }},
	{"crosscheck", func(pr *Profile) any { return pr.StaticCrossCheck() }},
	{"caches", func(pr *Profile) any { return pr.CacheReports(1) }},
}

// TestViewsGolden pins the multi-hop rankings for 1, 2 and 3 hops, the
// collection ranking, the static cross-check and the cache reports of the
// 18 workloads at scale 1: one sha256 and byte count of each view's JSON,
// which carries every float at full precision. Regenerate after an
// intended change with
//
//	go test . -run TestViewsGolden -update
func TestViewsGolden(t *testing.T) {
	var got strings.Builder
	for _, w := range workloads.All() {
		pr := productProfile(t, compileWorkload(t, w, 1))
		for _, q := range viewQueries {
			data, err := json.Marshal(q.run(pr))
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, q.name, err)
			}
			fmt.Fprintf(&got, "%-11s %-11s %x %d\n", w.Name, q.name, sha256.Sum256(data), len(data))
		}
	}

	path := filepath.Join("testdata", "views.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("profile views diverge from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
			path, got.String(), want)
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
