package contextenc

// MapModel is the map-backed conflict tracker the dense ConflictTracker
// replaced, kept as a test model: per instruction, a map from slot to the
// set of distinct contexts seen there, with CR computed straight from the
// set sizes. (The replaced tracker also memoized each instruction's last
// context; the model drops the memo, which never changed a result.) The
// seeded test below and the workload test in workloads_test.go drive the
// dense tracker and the model with the same observations and compare every
// figure the reports read.

import (
	"fmt"
	"math/rand"
	"testing"
)

type MapModel struct {
	slots    Slots
	perInstr []map[int]map[Encoded]struct{}
}

func NewMapModel(slots Slots, numInstrs int) *MapModel {
	return &MapModel{slots: slots, perInstr: make([]map[int]map[Encoded]struct{}, numInstrs)}
}

func (m *MapModel) Observe(instrID int, g Encoded) {
	sets := m.perInstr[instrID]
	if sets == nil {
		sets = make(map[int]map[Encoded]struct{})
		m.perInstr[instrID] = sets
	}
	slot := m.slots.Slot(g)
	if sets[slot] == nil {
		sets[slot] = make(map[Encoded]struct{})
	}
	sets[slot][g] = struct{}{}
}

func (m *MapModel) CR(instrID int) float64 {
	maxDC, sumDC := 0, 0
	for _, set := range m.perInstr[instrID] {
		maxDC = max(maxDC, len(set))
		sumDC += len(set)
	}
	if maxDC <= 1 {
		return 0
	}
	return float64(maxDC) / float64(sumDC)
}

func (m *MapModel) AverageCR() float64 {
	sum, n := 0.0, 0
	for id, sets := range m.perInstr {
		if len(sets) == 0 {
			continue
		}
		sum += m.CR(id)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (m *MapModel) DistinctContexts() int {
	total := 0
	for _, sets := range m.perInstr {
		for _, set := range sets {
			total += len(set)
		}
	}
	return total
}

// Visited reports whether the model saw instruction instrID in slot.
func (m *MapModel) Visited(instrID, slot int) bool {
	return len(m.perInstr[instrID][slot]) > 0
}

// VisitedPairs returns how many (instruction, slot) pairs the model saw.
func (m *MapModel) VisitedPairs() int {
	n := 0
	for _, sets := range m.perInstr {
		n += len(sets)
	}
	return n
}

// DiffModel returns the first figure on which ct and m disagree: CR of any
// instruction, AverageCR, or DistinctContexts. Floats must match exactly.
func DiffModel(ct *ConflictTracker, m *MapModel) error {
	for id := range m.perInstr {
		if got, want := ct.CR(id), m.CR(id); got != want {
			return fmt.Errorf("CR(%d) = %v, model %v", id, got, want)
		}
	}
	if got, want := ct.AverageCR(), m.AverageCR(); got != want {
		return fmt.Errorf("AverageCR = %v, model %v", got, want)
	}
	if got, want := ct.DistinctContexts(), m.DistinctContexts(); got != want {
		return fmt.Errorf("DistinctContexts = %d, model %d", got, want)
	}
	return nil
}

// streamContext draws the next context for a seeded observation stream.
// The pools are chosen so a stream both collides and alternates: few
// distinct contexts that share one slot, an alternating pair in one slot,
// and arbitrary 64-bit encodings including the two ends of the range.
func streamContext(r *rand.Rand, s, mode, i int) Encoded {
	switch mode {
	case 0: // collide: a handful of contexts, all in slot 1 % s
		return Encoded(uint64(r.Intn(5))*uint64(s) + uint64(1%s))
	case 1: // alternate two contexts of one slot, with runs of repeats
		if r.Intn(4) == 0 {
			return Encoded(uint64(s) * uint64(i%2+2))
		}
		return Encoded(uint64(s) * uint64((i/3)%2+2))
	case 2: // the encoding range's ends, the empty chain and real chains
		switch r.Intn(4) {
		case 0:
			return EmptyContext
		case 1:
			return ^Encoded(0)
		case 2:
			return Extend(Extend(EmptyContext, r.Intn(3)), r.Intn(3))
		}
		return Encoded(r.Uint64())
	}
	return Encoded(r.Intn(3 * s)) // mixed: spread over every slot
}

// TestDenseMatchesMapModel drives the dense tracker and the model through
// seeded observation streams and compares CR for every instruction,
// AverageCR and DistinctContexts at checkpoints along each stream.
func TestDenseMatchesMapModel(t *testing.T) {
	const numInstrs = 6
	for _, s := range []int{1, 2, 3, 16} {
		for seed := int64(1); seed <= 60; seed++ {
			r := rand.New(rand.NewSource(seed))
			ct := NewConflictTracker(NewSlots(s), numInstrs)
			m := NewMapModel(NewSlots(s), numInstrs)
			mode := int(seed % 4)
			for i := 0; i < 400; i++ {
				id := r.Intn(numInstrs)
				g := streamContext(r, s, mode, i)
				ct.Observe(id, g)
				m.Observe(id, g)
				if i%50 == 49 {
					if err := DiffModel(ct, m); err != nil {
						t.Fatalf("s=%d seed=%d after %d observations: %v", s, seed, i+1, err)
					}
				}
			}
		}
	}
}
