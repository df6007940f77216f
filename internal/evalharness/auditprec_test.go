package evalharness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

// TestAuditPrecisionRankCorrelation is the static-audit regression gate:
// per workload, how well the fully static audit ranks allocation sites
// against the dynamic profile. The harness is deterministic end to end, so
// any drift from the recorded baseline fails; regenerate with -update
// (full mode, not -short) after an intended change. On top of the per-row
// pin, the suite-wide mean Spearman must stay at or above +0.70 — the
// audit's headline precision claim: a purely static ranking that agrees
// with ground truth.
func TestAuditPrecisionRankCorrelation(t *testing.T) {
	golden := filepath.Join("testdata", "audit_precision.golden")
	var rows []*AuditPrecisionRow
	var sum float64
	for _, w := range workloads.All() {
		if testing.Short() && !precisionShort[w.Name] {
			continue
		}
		r, err := AuditPrecision(w.Name, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// A single-site intersection (fop) pins rho at 0 by definition;
		// only an empty intersection means the harness is degenerate.
		if r.Matched < 1 {
			t.Errorf("%s: no matched sites — harness degenerate", w.Name)
		}
		rows = append(rows, r)
		sum += r.Rho
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
			t.Errorf("audit precision drift for %s:\n  got:  %s\n  want: %s\n(regenerate with -update if intended)",
				r.Name, got, want[r.Name])
		}
	}

	// The acceptance gate: the static audit must rank sites with a mean
	// Spearman of at least +0.70 against the dynamic ground truth.
	if mean := sum / float64(len(rows)); mean < 0.70 {
		t.Errorf("static audit mean Spearman %.4f < 0.70 acceptance floor", mean)
	}
}
