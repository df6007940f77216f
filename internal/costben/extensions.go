package costben

// This file implements the design alternatives §3.2 of the paper discusses
// but leaves to future work:
//
//   - multi-hop relative cost/benefit ("costs and benefits for an
//     instruction can be recomputed by traversing multiple heap-to-heap hops
//     on Gcost backward and forward")
//   - cache-effectiveness analysis ("the cost of the cache should include
//     only the instructions executed to create the data structure itself …
//     and the benefit should be (re-)defined as a function of the amount of
//     work cached and the number of times the cached values are used")

import (
	"fmt"

	"lowutil/internal/depgraph"
)

// hopTables computes the location tables of s at hops > 1: the mean k-hop
// HRAC of each location's stores and the mean k-hop HRAB of its loads
// (depgraph.HRACK and HRABK, one bounded walk per node).
func hopTables(s *depgraph.Snapshot, hops int) *locTables {
	t := &locTables{}
	t.rac, t.rab = locMeans(s,
		func(id int32) int64 { return depgraph.HRACK(s.Nodes[id], hops) },
		func(id int32) (int64, bool) { return depgraph.HRABK(s.Nodes[id], hops) })
	return t
}

// ---- Cache effectiveness ----

// CacheReport assesses one abstract heap location used as a cache.
//
// Following §3.2: the cache's own cost is the insertion work (the store
// instances themselves), separated from the cost of computing the cached
// values (the rest of the one-hop RAC); the benefit is the recomputation
// avoided — each read returns a value that cost CachedWorkPerStore to
// produce once.
type CacheReport struct {
	Loc depgraph.Loc

	// Stores and Loads are dynamic access counts.
	Stores, Loads int64
	// InsertCost is the frequency mass of the store instructions — the
	// structure-maintenance cost.
	InsertCost int64
	// CachedWork is the one-hop production cost of the stored values,
	// excluding the stores themselves.
	CachedWork float64
}

// CachedWorkPerStore is the mean production cost per cached value.
func (c *CacheReport) CachedWorkPerStore() float64 {
	if c.Stores == 0 {
		return 0
	}
	return c.CachedWork / float64(c.Stores)
}

// AvoidedWork is the total recomputation the cache saved: every load beyond
// the first use of each stored value returns a value that did not have to be
// recomputed.
func (c *CacheReport) AvoidedWork() float64 {
	reuse := c.Loads - c.Stores
	if reuse < 0 {
		reuse = 0
	}
	return float64(reuse) * c.CachedWorkPerStore()
}

// Effectiveness is avoided work divided by total investment (production plus
// insertion). > 1 means the cache pays for itself; ≪ 1 means the location is
// a poor cache — written more than read, or caching cheap values.
func (c *CacheReport) Effectiveness() float64 {
	invest := c.CachedWork + float64(c.InsertCost)
	if invest <= 0 {
		return 0
	}
	return c.AvoidedWork() / invest
}

func (c *CacheReport) String() string {
	return fmt.Sprintf("%s: %d stores, %d loads, cached work %.0f (%.1f/value), avoided %.0f, effectiveness %.2f",
		c.Loc, c.Stores, c.Loads, c.CachedWork, c.CachedWorkPerStore(), c.AvoidedWork(), c.Effectiveness())
}

// CacheAnalysis assesses loc as a cache.
func (a *Analysis) CacheAnalysis(loc depgraph.Loc) *CacheReport {
	rep := &CacheReport{Loc: loc}
	var hracSum int64
	a.G.StoresOf(loc, func(s *depgraph.Node) {
		rep.Stores += s.Freq()
		rep.InsertCost += s.Freq()
		hracSum += a.HRAC(s)
	})
	a.G.LoadsOf(loc, func(l *depgraph.Node) {
		rep.Loads += l.Freq()
	})
	// HRAC includes the store nodes themselves; the cached values' own
	// production cost is the remainder.
	cached := float64(hracSum) - float64(rep.InsertCost)
	if cached < 0 {
		cached = 0
	}
	rep.CachedWork = cached
	return rep
}
