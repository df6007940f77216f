package evalharness

import (
	"fmt"
	"math"
	"sort"

	"lowutil/internal/costben"
	"lowutil/internal/depgraph"
	"lowutil/internal/interp"
	"lowutil/internal/interproc"
	"lowutil/internal/profiler"
	"lowutil/internal/workloads"
)

// The static-precision harness: how well do the static cost/benefit bounds
// rank heap locations compared to the dynamic profile's ground truth? Both
// sides score a location as cost/(1+benefit); the harness aggregates scores
// per (allocation-site, field) key — the granularity the two sides share —
// and reports the Spearman rank correlation between the dynamic ranking and
// the static one, unweighted (PR 3 bounds) and frequency-weighted (loop
// forest + SCCP trip counts). The weighted column is the headline number the
// loop-aware cost model must move.

// siteKey identifies a heap location at the granularity both the dynamic and
// the static analysis can name: the allocation-site instruction (-1 for a
// static field) plus the field (interproc.ElemField for array elements).
type siteKey struct {
	Site  int
	Field int
}

// locScore accumulates cost and benefit sums for one key.
type locScore struct {
	cost, benefit float64
	consumed      bool
}

// score is the low-utility ranking score. A consumed location is, by
// Definition 6, never low-utility, so it scores an exact 0: every consumed
// location ties at the bottom of its ranking rather than injecting an
// arbitrary internal order into the correlation.
func (s locScore) score() float64 {
	if s.consumed {
		return 0
	}
	return s.cost / (1 + s.benefit)
}

// PrecisionRow is the harness result for one workload.
type PrecisionRow struct {
	Name    string
	Matched int     // keys present in both rankings
	RhoFlat float64 // Spearman(dynamic, unweighted static bounds)
	RhoFreq float64 // Spearman(dynamic, frequency-weighted static bounds)
}

// String renders the row in the fixed-width form the precision golden pins.
func (r *PrecisionRow) String() string {
	return fmt.Sprintf("%-12s matched=%-3d rhoFlat=%+.4f rhoFreq=%+.4f",
		r.Name, r.Matched, r.RhoFlat, r.RhoFreq)
}

// Precision runs the harness for one workload at the given scale.
func Precision(name string, scale int) (*PrecisionRow, error) {
	w := workloads.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	prog, err := w.Compile(scale)
	if err != nil {
		return nil, err
	}

	// Dynamic ground truth: profile the run, score every stored location.
	p := profiler.New(prog, profiler.Options{Slots: 16})
	m := interp.New(prog)
	m.Tracer = p
	if err := m.Run(); err != nil {
		return nil, err
	}
	ca := costben.NewAnalysis(p.G)
	dyn := make(map[siteKey]*locScore)
	p.G.Locs(func(l depgraph.Loc) {
		stores := 0
		p.G.StoresOf(l, func(*depgraph.Node) { stores++ })
		if stores == 0 {
			return
		}
		k := siteKey{Site: -1, Field: l.Field}
		if l.Alloc != nil {
			k.Site = l.Alloc.In.ID
		}
		s := dyn[k]
		if s == nil {
			s = &locScore{}
			dyn[k] = s
		}
		s.cost += ca.RAC(l, 1)
		if rab := ca.RAB(l, 1); rab == costben.InfiniteRAB {
			s.consumed = true
		} else {
			s.benefit += rab
		}
	})

	// Static bounds, unweighted and frequency-weighted, on the same program.
	an := interproc.Analyze(prog, interproc.Config{Mode: interproc.RTA})
	collect := func(bounds []interproc.LocBound, weighted bool) map[siteKey]*locScore {
		out := make(map[siteKey]*locScore)
		for i := range bounds {
			b := &bounds[i]
			k := siteKey{Site: -1, Field: b.Key.Field}
			if !b.Key.Static {
				k.Site = an.PT.Objects[b.Key.Obj].Site.ID
			}
			s := out[k]
			if s == nil {
				s = &locScore{}
				out[k] = s
			}
			if weighted {
				s.cost += b.WCost
				s.benefit += b.WBenefit
			} else {
				s.cost += float64(b.CostBound)
				s.benefit += float64(b.BenefitBound)
			}
			if b.Consumed {
				s.consumed = true
			}
		}
		return out
	}
	flat := collect(an.Slice.Bounds(), false)
	freq := collect(an.Bounds(), true)

	// Rank the intersection.
	var keys []siteKey
	for k := range dyn {
		if flat[k] != nil && freq[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Field < keys[j].Field
	})
	dScores := make([]float64, len(keys))
	fScores := make([]float64, len(keys))
	wScores := make([]float64, len(keys))
	for i, k := range keys {
		dScores[i] = dyn[k].score()
		fScores[i] = flat[k].score()
		wScores[i] = freq[k].score()
	}
	return &PrecisionRow{
		Name:    name,
		Matched: len(keys),
		RhoFlat: spearman(dScores, fScores),
		RhoFreq: spearman(dScores, wScores),
	}, nil
}

// spearman computes the Spearman rank correlation with tie-averaged ranks.
// Degenerate inputs (fewer than two points, or a constant vector) return 0.
func spearman(x, y []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	mx, my := mean(rx), mean(ry)
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks assigns 1-based ranks, averaging ties.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	out := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		r := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = r
		}
		i = j
	}
	return out
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
