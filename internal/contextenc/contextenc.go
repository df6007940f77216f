// Package contextenc implements the object-sensitivity context machinery of
// the paper: calling contexts are chains of receiver-object allocation
// sites, encoded probabilistically with the Bond–McKinley function
//
//	g_i = 3*g_{i-1} + o_i
//
// and folded into a user-chosen number of slots s with a mod operation.
// Domain Dcost is therefore the integers [0, s).
//
// The package also tracks, per static instruction, which distinct encoded
// contexts fall into each slot, so the context conflict ratio CR-s of §4.1
// can be reported:
//
//	CR-s(i) = 0                         if max_j dc[j] <= 1
//	        = max_j dc[j] / Σ_j dc[j]   otherwise
package contextenc

// Encoded is a probabilistically-unique encoding of an allocation-site
// chain.
type Encoded uint64

// EmptyContext is the encoding of the empty chain (static entry points).
const EmptyContext Encoded = 0

// Extend returns the encoding of the chain g with allocation site o
// appended: 3*g + o. Allocation-site IDs are offset by 1 so that extending
// the empty context with site 0 is distinguishable from not extending it.
func Extend(g Encoded, allocSite int) Encoded {
	return Encoded(3*uint64(g) + uint64(allocSite) + 1)
}

// Slots is the per-run context-slot configuration: the paper's parameter s.
type Slots struct {
	S int
}

// NewSlots returns a Slots configuration; s must be positive.
func NewSlots(s int) Slots {
	if s <= 0 {
		panic("contextenc: s must be positive")
	}
	return Slots{S: s}
}

// Slot maps an encoded context to its slot in [0, S).
func (sl Slots) Slot(g Encoded) int { return int(uint64(g) % uint64(sl.S)) }

// ConflictTracker records the distinct encoded contexts observed per
// (instruction, slot) pair, for CR computation. It is exact and dense: its
// tables hold one entry per (instruction, slot), laid out like the
// dependence graph's intern index for the same s (depgraph.DenseTables) —
// the entry for instruction i, slot j sits at i*(S+1) + j+1, and column 0,
// the intern index's context-free column, is unused. Only a slot that sees
// a second distinct context also gets a set of them.
type ConflictTracker struct {
	slots Slots
	width int
	// last holds the context most recently observed in each slot;
	// meaningful only where dc is non-zero.
	last []Encoded
	// dc counts the distinct contexts observed in each slot (the dc[j] of
	// the CR definition); 0 means the slot was never visited.
	dc []int32
	// sets holds, by table offset, the distinct contexts of every slot that
	// has seen more than one.
	sets map[int]map[Encoded]struct{}
}

// NewConflictTracker returns a tracker for a program with numInstrs static
// instructions.
func NewConflictTracker(slots Slots, numInstrs int) *ConflictTracker {
	width := slots.S + 1
	return &ConflictTracker{
		slots: slots,
		width: width,
		last:  make([]Encoded, numInstrs*width),
		dc:    make([]int32, numInstrs*width),
		sets:  make(map[int]map[Encoded]struct{}),
	}
}

// Last returns the last-context table, for callers that filter repeat
// observations inline: observing g at instruction i is a no-op when slot
// j = Slot(g) was visited before and Last()[i*(S+1)+j+1] == g. The table
// never reallocates.
func (ct *ConflictTracker) Last() []Encoded { return ct.last }

// Observe records that instruction instrID executed under encoded context g.
func (ct *ConflictTracker) Observe(instrID int, g Encoded) {
	off := instrID*ct.width + ct.slots.Slot(g) + 1
	switch {
	case ct.dc[off] == 0:
		ct.dc[off] = 1
	case ct.last[off] == g:
		return
	default:
		set := ct.sets[off]
		if set == nil {
			set = map[Encoded]struct{}{ct.last[off]: {}}
			ct.sets[off] = set
		}
		if _, dup := set[g]; !dup {
			set[g] = struct{}{}
			ct.dc[off]++
		}
	}
	ct.last[off] = g
}

// InstrContexts is one instruction's row of a finished run's conflict
// table: the largest and the total distinct-context count over its slots,
// which is all CR reads. A saved profile keeps these rows, one for each
// instruction observed at least once.
type InstrContexts struct {
	Instr int `json:"i"`
	Max   int `json:"max"`
	Sum   int `json:"sum"`
}

// CR returns the row's context conflict ratio, per §4.1.
func (r InstrContexts) CR() float64 {
	if r.Max <= 1 {
		return 0
	}
	return float64(r.Max) / float64(r.Sum)
}

// row returns the instruction's row of the conflict table.
func (ct *ConflictTracker) row(instrID int) InstrContexts {
	r := InstrContexts{Instr: instrID}
	base := instrID * ct.width
	for _, n := range ct.dc[base+1 : base+ct.width] {
		r.Max = max(r.Max, int(n))
		r.Sum += int(n)
	}
	return r
}

// CR returns the context conflict ratio for one instruction, per §4.1.
// Instructions never observed have CR 0.
func (ct *ConflictTracker) CR(instrID int) float64 { return ct.row(instrID).CR() }

// Table returns the rows of every instruction observed at least once, in
// instruction order.
func (ct *ConflictTracker) Table() Table {
	var t Table
	for id := 0; id < len(ct.dc)/ct.width; id++ {
		if r := ct.row(id); r.Sum > 0 {
			t = append(t, r)
		}
	}
	return t
}

// AverageCR returns the mean CR over all instructions that were observed at
// least once (the "average CR for all instructions in Gcost" of Table 1).
func (ct *ConflictTracker) AverageCR() float64 { return ct.Table().AverageCR() }

// Table is a finished run's conflict table: the rows of the instructions
// observed at least once, in instruction order.
type Table []InstrContexts

// AverageCR returns the mean CR over the table's rows.
func (t Table) AverageCR() float64 {
	if len(t) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t {
		sum += r.CR()
	}
	return sum / float64(len(t))
}

// DistinctContexts returns the total number of distinct (instruction,
// context) pairs observed — an upper bound on what an unbounded
// context-sensitive analysis would have to store.
func (ct *ConflictTracker) DistinctContexts() int {
	total := 0
	for _, n := range ct.dc {
		total += int(n)
	}
	return total
}
