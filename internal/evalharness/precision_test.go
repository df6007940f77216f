package evalharness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the goldens: testdata/*.golden and EXPERIMENTS.md's blocks")

// precisionShort is the -short subset; the golden always holds all 18 rows,
// and the short run checks just these against their recorded lines.
var precisionShort = map[string]bool{
	"chart": true, "avrora": true, "hsqldb": true, "luindex": true,
}

// TestPrecisionRankCorrelation is the rank-correlation regression gate. The
// golden records, per workload, how well the unweighted and the
// frequency-weighted static bounds rank locations against the dynamic
// profile. The harness is deterministic end to end, so any drift from the
// recorded baseline — in particular a drop in rhoFreq — fails the test;
// regenerate with -update (full mode, not -short) after an intended change.
// On top of the per-row pin, the weighted model must beat the unweighted one
// on mean over the full suite — the headline claim of the loop-aware cost
// model.
func TestPrecisionRankCorrelation(t *testing.T) {
	golden := filepath.Join("testdata", "precision.golden")
	var rows []*PrecisionRow
	var sumFlat, sumFreq float64
	for _, w := range workloads.All() {
		if testing.Short() && !precisionShort[w.Name] {
			continue
		}
		r, err := Precision(w.Name, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Matched < 2 {
			t.Errorf("%s: only %d matched locations — harness degenerate", w.Name, r.Matched)
		}
		rows = append(rows, r)
		sumFlat += r.RhoFlat
		sumFreq += r.RhoFreq
	}

	if *update {
		if testing.Short() {
			t.Fatal("-update needs the full suite: rerun without -short")
		}
		var b strings.Builder
		for _, r := range rows {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		want[strings.Fields(line)[0]] = line
	}
	for _, r := range rows {
		if got := r.String(); got != want[r.Name] {
			t.Errorf("precision drift for %s:\n  got:  %s\n  want: %s\n(regenerate with -update if intended)",
				r.Name, got, want[r.Name])
		}
	}

	// The loop-aware weighted bounds must rank strictly better than the
	// frequency-blind ones on average. Holds on the -short subset too.
	if sumFreq <= sumFlat {
		t.Errorf("weighted bounds do not improve rank correlation: mean rhoFreq %.4f <= mean rhoFlat %.4f",
			sumFreq/float64(len(rows)), sumFlat/float64(len(rows)))
	}
}
