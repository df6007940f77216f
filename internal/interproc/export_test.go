package interproc

import (
	"lowutil/internal/ir"
	"lowutil/internal/ssa"
)

// Built returns m's SSA form if some pass has asked the analysis for it,
// else nil; unlike Func it never builds one.
func (a *Analysis) Built(m *ir.Method) *ssa.Func { return a.funcs[m.ID] }

// Unseeded returns the fixpoint's SCCP run that SCCP hands out for m, or
// nil when SCCP would run its own.
func (a *Analysis) Unseeded(m *ir.Method) *ssa.SCCP { return a.unseeded[m.ID] }
