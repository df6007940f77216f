package interproc

import (
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// Built returns m's SSA form if some pass has asked the analysis for it,
// else nil; unlike Func it never builds one.
func (a *Analysis) Built(m *ir.Method) *ssa.Func { return a.funcs[m.ID] }
