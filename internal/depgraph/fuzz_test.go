package depgraph_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lowutil/internal/costben"
	"lowutil/internal/deadness"
	"lowutil/internal/depgraph"
	"lowutil/internal/ir"
)

// FuzzDecode feeds saved profiles, as /v2/profile/load accepts them from
// clients, to Decode against one of the golden programs. Decoding must
// never panic and may fail only with a *DecodeError or a wrapped JSON
// error; a graph it accepts must survive cost/benefit ranking, the
// deadness analysis and Encode.
func FuzzDecode(f *testing.F) {
	for i, c := range goldenPrograms {
		saved, err := os.ReadFile(filepath.Join("testdata", c.name+".gcost.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), saved)
		f.Add(uint8(i), saved[:len(saved)/2])
		f.Add(uint8(i), saved[:len(saved)-2])
	}
	for _, garbage := range []string{
		"", "{", "null", "[]", `{"version":1}`, `{"version":2}`,
		`{"version":1,"numInstrs":31,"numSites":3,"nodes":[{"i":99}]}`,
		`{"version":1,"numInstrs":31,"numSites":3,"nodes":[{"i":0,"d":-7,"f":-1,"e":9,"ea":5,"ef":-4}]}`,
		`{"version":1,"numInstrs":31,"numSites":3,"nodes":[{"i":0}],"dep":[[0,3]]}`,
	} {
		f.Add(uint8(0), []byte(garbage))
	}
	progs := make([]*ir.Program, len(goldenPrograms))
	for i, c := range goldenPrograms {
		progs[i] = c.prog()
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		prog := progs[int(which)%len(progs)]
		g, err := depgraph.Decode(bytes.NewReader(data), prog)
		if err != nil {
			var de *depgraph.DecodeError
			var se *json.SyntaxError
			var te *json.UnmarshalTypeError
			if !errors.As(err, &de) && !errors.As(err, &se) && !errors.As(err, &te) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		costben.NewAnalysis(g).RankBySite(costben.DefaultTreeHeight)
		deadness.Analyze(g, g.TotalFreq())
		if err := g.Encode(io.Discard); err != nil {
			t.Fatalf("Encode of a decoded graph: %v", err)
		}
	})
}
