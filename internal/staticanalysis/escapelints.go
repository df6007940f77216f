package staticanalysis

import (
	"fmt"

	"lowutil/internal/escape"
	"lowutil/internal/ir"
)

// escapeLints converts the escape/lifetime analysis's shape verdicts into
// vet findings: confined-alloc-in-loop for non-escaping allocations renewed
// every iteration of the loop they never leave, and copy-chain for alloc →
// populate → copy-out → drop containers. Both engines call this helper
// unchanged, so the two kinds are identical across the dense and SSA vet
// pipelines by construction. A nil result (no analysis) disables the checks:
// they are inherently whole-program.
func escapeLints(r *escape.Result) []Finding {
	if r == nil {
		return nil
	}
	var out []Finding
	for i := range r.Sites {
		si := &r.Sites[i]
		site := si.Site
		if si.InLoop {
			out = append(out, Finding{
				Kind:   KindConfinedAllocInLoop,
				Class:  site.Method.Class.Name,
				Method: site.Method.Name,
				PC:     site.PC,
				Line:   site.Line,
				Detail: fmt.Sprintf("allocation of %s never leaves its loop iteration: hoist or reuse one instance", allocLintName(site)),
			})
		}
		if si.CopyChain {
			out = append(out, Finding{
				Kind:   KindCopyChain,
				Class:  site.Method.Class.Name,
				Method: site.Method.Name,
				PC:     site.PC,
				Line:   site.Line,
				Detail: fmt.Sprintf("%s is a copy chain: populated, copied out into another structure, then dropped", allocLintName(site)),
			})
		}
	}
	return out
}

func allocLintName(site *ir.Instr) string {
	if site.Op == ir.OpNew {
		return "new " + site.Class.Name
	}
	return "new " + site.Elem.String() + "[]"
}
