package staticanalysis

import (
	"strings"
	"testing"

	"lowutil/internal/interproc"
)

// clobberSrc seeds a callee-clobbered store: every use of x hands it to the
// second parameter of S.sink, which no override reads. y is the control — it
// also flows only into sink, but at a position the callee does read.
const clobberSrc = `
class S {
  int keep;
  void sink(int a, int b) { this.keep = a; }
}
class Main {
  static void main() {
    S s = new S();
    int x = 41;
    int y = 9;
    s.sink(y, x);
    print(s.keep);
  }
}`

func TestVetCalleeClobberedStore(t *testing.T) {
	prog := compileMJ(t, clobberSrc)
	fs := Vet(prog)
	var hits []Finding
	for _, f := range fs {
		if f.Kind == KindCalleeClobbered {
			hits = append(hits, f)
		}
	}
	// The SSA engine walks through the move, so both the store of x and the
	// constant feeding it are flagged (the dense engine finds only the store
	// of x — see the differential test).
	if len(hits) != 2 {
		t.Fatalf("want two callee-clobbered findings, got %v", fs)
	}
	if hits[1].Method != "main" || !strings.Contains(hits[1].Detail, "x") {
		t.Errorf("finding anchored wrong: %v", hits[1])
	}
	var denseHits []Finding
	for _, f := range VetDense(prog) {
		if f.Kind == KindCalleeClobbered {
			denseHits = append(denseHits, f)
		}
	}
	if len(denseHits) != 1 || !strings.Contains(denseHits[0].Detail, "x") {
		t.Errorf("dense engine should flag exactly the store of x, got %v", denseHits)
	}
	// Without a whole-program analysis the check must stay silent.
	for _, f := range VetWith(prog, nil) {
		if f.Kind == KindCalleeClobbered {
			t.Errorf("nil analysis must disable the check, got %v", f)
		}
	}
}

// escapeSrc seeds an allocation the per-method check cannot condemn: the Box
// escapes through a return and a field store, yet no reachable instruction
// ever reads through any alias of it. (No native call in main: the front end
// reuses temp slots, and the flow-insensitive points-to would conservatively
// count a print argument sharing the call-result temp as a read.)
const escapeSrc = `
class Box { int v; }
class Keep { Box slot; }
class Main {
  static Box make() {
    Box b = new Box();
    b.v = 1;
    return b;
  }
  static void main() {
    Keep k = new Keep();
    Box r = make();
    k.slot = r;
  }
}`

func TestVetInterprocUnusedAlloc(t *testing.T) {
	prog := compileMJ(t, escapeSrc)
	fs := Vet(prog)
	found := false
	for _, f := range fs {
		if f.Kind == KindUnusedAlloc && f.Method == "make" &&
			strings.Contains(f.Detail, "never read through any alias") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing interprocedural unused-alloc on make's Box in %v", fs)
	}
	// The per-method rule alone must not flag it — the Box escapes.
	for _, f := range VetWith(prog, nil) {
		if f.Kind == KindUnusedAlloc && f.Method == "make" {
			t.Errorf("nil analysis flagged the escaping Box: %v", f)
		}
	}
}

// ghostSrc seeds a field whose only load sits in a method no call path
// reaches; the reachability-aware write-only check must report it with the
// distinguishing message, and the nil-analysis fallback must stay silent.
const ghostSrc = `
class T { int f; }
class Main {
  static int ghost(T t) { return t.f; }
  static void main() {
    T t = new T();
    t.f = 5;
    print(1);
  }
}`

func TestVetWriteOnlyUnreachableLoad(t *testing.T) {
	prog := compileMJ(t, ghostSrc)
	found := false
	for _, f := range Vet(prog) {
		if f.Kind == KindWriteOnlyField &&
			strings.Contains(f.Detail, "loaded only in unreachable code") {
			found = true
		}
	}
	if !found {
		t.Error("missing write-only finding for field loaded only in dead code")
	}
	for _, f := range VetWith(prog, nil) {
		if f.Kind == KindWriteOnlyField {
			t.Errorf("nil analysis counts ghost's load, got %v", f)
		}
	}
}

// TestVetCleanUnderInterproc: the clean program must stay clean with the full
// interprocedural pipeline in both call-graph modes.
func TestVetCleanUnderInterproc(t *testing.T) {
	prog := compileMJ(t, cleanSrc)
	for _, cfg := range []interproc.Config{{Mode: interproc.CHA}, {Mode: interproc.RTA, ObjCtx: true}} {
		an := interproc.Analyze(prog, cfg)
		if fs := VetWith(prog, an); len(fs) != 0 {
			t.Errorf("mode %s: clean program produced findings: %v", cfg.Mode, fs)
		}
	}
}
