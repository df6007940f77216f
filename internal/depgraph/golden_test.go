package depgraph_test

// Saved-profile goldens: users keep profiles written by Encode
// (`lowutil profile -save`, /v2/profile/save), so its bytes are pinned
// against files under testdata/ instead of against an encoder in the tests.
// Regenerate after an intended format change with
//
//	go test ./internal/depgraph -run TestEncodeMatchesGolden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/ir"
	"lowutil/internal/profiler"
	"lowutil/internal/testprogs"
)

var updateGolden = flag.Bool("update", false, "rewrite the saved-profile goldens under testdata/")

// goldenPrograms are the pinned programs. KitchenSink is the only test
// program that stores a reference in a static field (MJ has no static
// fields), so it is the only graph with a static-held child.
var goldenPrograms = []struct {
	name string
	prog func() *ir.Program
}{
	{"figure3", func() *ir.Program { return testprogs.Figure3(6, 4).Prog }},
	{"kitchensink", testprogs.KitchenSink},
}

// profileGraph profiles prog with the facade's profiler options.
func profileGraph(t testing.TB, prog *ir.Program) *depgraph.Graph {
	t.Helper()
	p := profiler.New(prog, profiler.Options{Slots: 16, TrackCR: true})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return p.G
}

func encode(t *testing.T, g *depgraph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeMatchesGolden: Encode reproduces the saved bytes, and a
// decoded graph encodes to them again.
func TestEncodeMatchesGolden(t *testing.T) {
	for _, c := range goldenPrograms {
		t.Run(c.name, func(t *testing.T) {
			prog := c.prog()
			got := encode(t, profileGraph(t, prog))
			path := filepath.Join("testdata", c.name+".gcost.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode differs from %s:\n got  %s\n want %s", path, got, want)
			}
			g2, err := depgraph.Decode(bytes.NewReader(want), prog)
			if err != nil {
				t.Fatal(err)
			}
			if again := encode(t, g2); !bytes.Equal(again, want) {
				t.Fatalf("decoded graph re-encodes differently:\n got  %s\n want %s", again, want)
			}
		})
	}
}

// staticChildren lists Children(nil) as field:child pairs.
func staticChildren(g *depgraph.Graph) []string {
	out := []string{}
	g.Children(nil, func(field int, child *depgraph.Node) {
		out = append(out, fmt.Sprintf("%d:%v", field, child))
	})
	return out
}

// TestStaticChildrenOnEveryGraph: Children(nil) lists KitchenSink's one
// static-held child on the profiled graph, after Freeze, and after a
// save/load round trip.
func TestStaticChildrenOnEveryGraph(t *testing.T) {
	prog := testprogs.KitchenSink()
	g := profileGraph(t, prog)
	live := staticChildren(g)
	if len(live) != 1 {
		t.Fatalf("Children(nil) = %v, want one static-held child", live)
	}
	g.Freeze()
	if frozen := staticChildren(g); !reflect.DeepEqual(frozen, live) {
		t.Fatalf("Children(nil) after Freeze = %v, want %v", frozen, live)
	}
	g2, err := depgraph.Decode(bytes.NewReader(encode(t, g)), prog)
	if err != nil {
		t.Fatal(err)
	}
	if decoded := staticChildren(g2); !reflect.DeepEqual(decoded, live) {
		t.Fatalf("Children(nil) after Decode = %v, want %v", decoded, live)
	}
}
