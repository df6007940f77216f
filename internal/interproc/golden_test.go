package interproc

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lowutil/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the slice golden files under testdata/slice/")

// TestSliceGoldenWorkloads renders the static slice report (top 10) over
// every workload at scale 1 under two pipelines, the default RTA call graph
// with a context-insensitive heap and CHA with receiver-object context, and
// compares it against testdata/slice/<name>.<config>.golden. The goldens
// pin the call-graph, points-to and static-Gcost sizes and the ranked
// bounds byte for byte. Regenerate deliberately with:
//
//	go test ./internal/interproc -run TestSliceGoldenWorkloads -update
func TestSliceGoldenWorkloads(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"rta", Config{Mode: RTA}},
		{"cha-objctx", Config{Mode: CHA, ObjCtx: true}},
	}
	for _, c := range configs {
		for _, w := range workloads.All() {
			c, w := c, w
			t.Run(c.name+"/"+w.Name, func(t *testing.T) {
				prog, err := w.Compile(1)
				if err != nil {
					t.Fatal(err)
				}
				got := Analyze(prog, c.cfg).Report(10)
				path := filepath.Join("testdata", "slice", w.Name+"."+c.name+".golden")
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("slice report diverges from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
						path, got, want)
				}
			})
		}
	}
}
