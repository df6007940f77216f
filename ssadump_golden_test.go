package lowutil

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowutil/internal/workloads"
)

var updateSSA = flag.Bool("update", false, "rewrite testdata/ssadump.golden")

// TestSSADumpGolden pins the bytes of `lowutil ssa`: the SSA dump of every
// method of the 18 workloads at scale 1 and of the CLI's testdata
// programs, one sha256 and byte count per program. The dump prints the
// SSA names, phis, SCCP verdicts, value-numbering redundancies, loop forest
// and block weights, so any change to how they are computed shows up here.
// Regenerate after an intended change with
//
//	go test . -run TestSSADumpGolden -update
func TestSSADumpGolden(t *testing.T) {
	type entry struct{ name, src string }
	var progs []entry
	for _, w := range workloads.All() {
		progs = append(progs, entry{w.Name, w.Source(1)})
	}
	files, err := filepath.Glob(filepath.Join("cmd", "lowutil", "testdata", "*.mj"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no CLI testdata programs (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, entry{filepath.Base(path), string(src)})
	}

	var got strings.Builder
	for _, p := range progs {
		prog, err := Compile(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		dump, err := prog.SSADumpContext(context.Background(), "")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fmt.Fprintf(&got, "%-12s %x %d\n", p.name, sha256.Sum256([]byte(dump)), len(dump))
	}

	path := filepath.Join("testdata", "ssadump.golden")
	if *updateSSA {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("SSA dumps diverge from %s (regenerate with -update if intended):\n--- got\n%s--- want\n%s",
			path, got.String(), want)
	}
}
