package evalharness

import (
	"fmt"
	"sort"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/escape"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// The audit-precision harness: how well does the fully static audit rank
// allocation sites compared to the dynamic profile's ground truth? Both
// sides score a site as the sum of per-field cost/(1+benefit) ratios over
// every field the site owns — the granularity `lowutil audit` ranks at —
// with consumed fields contributing an exact 0. The harness
// reports the Spearman rank correlation between the two orderings. This is
// the static analogue of the per-location precision harness, one level
// coarser: an audit user never sees fields, only sites.

// AuditPrecisionRow is the audit-precision result for one workload.
type AuditPrecisionRow struct {
	Name    string
	Matched int     // allocation sites present in both rankings
	Rho     float64 // Spearman(dynamic site scores, static audit scores)
}

// String renders the row in the fixed-width form the audit golden pins.
func (r *AuditPrecisionRow) String() string {
	return fmt.Sprintf("%-12s matched=%-3d rho=%+.4f", r.Name, r.Matched, r.Rho)
}

// AuditPrecision runs the harness for one workload at the given scale.
func AuditPrecision(name string, scale int) (*AuditPrecisionRow, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	prog, err := w.Compile(scale)
	if err != nil {
		return nil, err
	}

	// Dynamic ground truth: profile the run, score every stored
	// (site, field) key exactly as the per-location harness does, and sum
	// the per-field scores onto the owning allocation site — mirroring how
	// the audit folds per-field bound aggregates into SiteInfo.
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		return nil, err
	}
	ca := costben.NewAnalysis(p.G)
	perField := make(map[siteKey]*locScore)
	p.G.Locs(func(l depgraph.Loc) {
		if l.Alloc == nil {
			return // static fields belong to no allocation site
		}
		stores := 0
		p.G.StoresOf(l, func(*depgraph.Node) { stores++ })
		if stores == 0 {
			return
		}
		k := siteKey{Site: l.Alloc.In.AllocSite, Field: l.Field}
		s := perField[k]
		if s == nil {
			s = &locScore{}
			perField[k] = s
		}
		s.cost += ca.RAC(l, 1)
		if rab := ca.RAB(l, 1); rab == costben.InfiniteRAB {
			s.consumed = true
		} else {
			s.benefit += rab
		}
	})
	dyn := make(map[int]float64)
	for k, s := range perField {
		dyn[k.Site] += s.score()
	}

	// The fully static side: escape/lifetime audit over the
	// frequency-weighted interprocedural bounds, no execution.
	res := escape.Analyze(interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA}))

	// Rank the intersection of sites both sides scored.
	var sites []int
	for i := range res.Sites {
		if site := res.Sites[i].Site.AllocSite; site >= 0 {
			if _, ok := dyn[site]; ok {
				sites = append(sites, site)
			}
		}
	}
	sort.Ints(sites)
	dScores := make([]float64, len(sites))
	sScores := make([]float64, len(sites))
	for i, site := range sites {
		dScores[i] = dyn[site]
		sScores[i] = res.Site(site).Score()
	}
	return &AuditPrecisionRow{Name: name, Matched: len(sites), Rho: spearman(dScores, sScores)}, nil
}
