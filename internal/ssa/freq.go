package ssa

import "lowutil/internal/ir"

// The symbolic cost model: per-instruction static execution-frequency
// weights. PR 3's static Gcost bounds count every instruction once; the
// paper's dynamic RAC/RAB are dominated by loop-resident instructions, so
// ranking by frequency-blind bounds misorders structures badly. The weight
// of an instruction here is
//
//	0                                  when it can never execute
//	                                   (CFG-unreachable or SCCP-proven dead),
//	Π trip(L) over enclosing loops L   otherwise,
//
// with trip(L) the exact SCCP-derived trip count where the loop is counted
// with constant bounds, and DefaultTrip for unknown loops — the "loop
// depth^k" heuristic of the issue, exact where trip counts are constant.
// Only the 0 case claims soundness (those instructions provably never run);
// positive weights are ranking heuristics.

// DefaultTrip is the assumed trip count of a loop whose bounds SCCP cannot
// resolve.
const DefaultTrip = 10

// MaxWeight caps the frequency product so pathological nests cannot
// overflow or drown the ranking.
const MaxWeight = 1e12

// MethodInfo bundles the per-method SSA products the weight computation
// (and its dump/debug clients) derive.
type MethodInfo struct {
	F      *Func
	SCCP   *SCCP
	Forest *Forest
}

// AnalyzeMethod builds SSA, SCCP and the loop forest for one method.
func AnalyzeMethod(m *ir.Method) *MethodInfo {
	f := Build(m, nil)
	sc := RunSCCP(f)
	return &MethodInfo{F: f, SCCP: sc, Forest: BuildForest(f, sc)}
}

// BlockWeight returns the static frequency weight of block b.
func (mi *MethodInfo) BlockWeight(b int) float64 {
	if !mi.F.CFG.Reachable(b) || !mi.SCCP.BlockExec[b] {
		return 0
	}
	w := 1.0
	for li := mi.Forest.LoopOf[b]; li >= 0; li = mi.Forest.Loops[li].Parent {
		switch trip := mi.Forest.Loops[li].Trip; {
		case trip < 0:
			w *= DefaultTrip // unknown bounds
		case trip > 1:
			w *= float64(trip)
			// trip 0 or 1: the header still runs; weigh the pass once.
		}
		if w > MaxWeight {
			return MaxWeight
		}
	}
	return w
}
