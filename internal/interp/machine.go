package interp

import (
	"context"
	"fmt"
	"math/bits"

	"lowutil/internal/ir"
)

const (
	// DefaultMaxSteps bounds runaway programs.
	DefaultMaxSteps = int64(1) << 34
	// DefaultMaxDepth bounds call-stack depth.
	DefaultMaxDepth = 1 << 16
	// DBQueryCost is the synthetic work (in virtual instructions) charged
	// for each NativeDBQuery call; it models the database round-trip the
	// tradebeans/derby case studies pay per query.
	DBQueryCost = 500
	// cancelCheckMask gates the cancellation poll in the main loop: the
	// machine consults Ctx.Done() once every cancelCheckMask+1 executed
	// steps. 8192 steps is microseconds of interpretation, so cancellation
	// is prompt while the per-step cost stays one masked compare on the
	// already-maintained step counter (benchmarked at well under 2%
	// overhead on the profiler hot path).
	cancelCheckMask = 1<<13 - 1
	// MaxHeapCells bounds the cells one machine may keep over a run: a
	// cell per object field, array element and printed value, and
	// headerCells per object or array header. A cell is 24 bytes, a Value,
	// so the budget keeps what one machine keeps under about 400 MB, while
	// the largest workload run (xalan at scale 32: 201,600 field and
	// element cells and 67,202 allocations, 470,409 cells in all) fits 35
	// times over. The check runs before anything is kept: an allocation
	// bomb or a print loop fails with ErrHeapLimit instead of ending the
	// process with an out-of-memory fatal error, which no recover catches.
	MaxHeapCells = 1 << 24
	// headerCells is what one object or array header costs against
	// MaxHeapCells: an Object takes 96 bytes, four cells, before its fields
	// or elements.
	headerCells = 4
	// DetachSteps is how many steps a traced loop runs before it offers
	// its hook work to a Detacher. A detach's fixed cost, starting the
	// consumer plus draining the batches queued when the loop ends,
	// measured 0.3 ms at the median and 0.6 ms at the 90th percentile
	// (DESIGN.md §11); this is the smallest power of two at which 0.6 ms is
	// at most a tenth of the synchronous profiled time already spent, at
	// about 35 ns a step (10 × 0.6 ms / 35 ns ≈ 171K steps).
	DetachSteps = 1 << 18
)

// Machine executes an ir.Program. A Machine is single-use per Run but its
// configuration fields may be set freely before Run.
type Machine struct {
	Prog *ir.Program
	// Tracer, when non-nil, observes every executed instruction, or those
	// inside the Window.
	Tracer Tracer
	// Window, when non-nil, confines the Tracer's instruction hooks, and
	// the values AfterCall reports, to the steps in it; outside it the
	// machine runs its plain handlers, and the call hooks alone keep the
	// tracer's stack and contexts exact. It tracks one phase of a run,
	// such as a server's steady state.
	Window *StepWindow
	// Ctx, when non-nil, is polled periodically by the main loop; once it
	// is done the run stops with a VMError of kind ErrCanceled whose Cause
	// is the context error. A nil Ctx costs nothing per step.
	Ctx context.Context
	// MaxSteps and MaxDepth bound execution; zero means the defaults.
	MaxSteps int64
	MaxDepth int
	// Seed seeds the deterministic PRNG behind NativeRand.
	Seed uint64

	// Statics holds static-field storage, indexed by StaticField.Slot.
	Statics []Value
	// Output collects values written by NativePrint/NativePrintChar.
	Output []int64

	// Steps counts executed instruction instances — the paper's #I.
	Steps int64
	// Allocs counts object and array allocations.
	Allocs int64
	// AllocsBySite counts allocations per allocation site.
	AllocsBySite []int64
	// NativeWork accumulates synthetic native cost (DB queries).
	NativeWork int64
	// AssertFailures counts NativeAssert calls with a zero argument.
	AssertFailures int64
	// ICHits/ICMisses count virtual dispatches resolved by the inline
	// caches vs. through the method-name lookup (handler-table engine only).
	ICHits   int64
	ICMisses int64
	// Detached reports whether a loop handed its hook work to a Detacher.
	Detached bool

	frames     []*Frame
	rng        uint64
	clock      int64
	seq        int64
	lastReturn Value
	// cells counts kept cells against MaxHeapCells.
	cells int64

	// Handler-table engine state: machine-local views of the per-method
	// dispatch tables of the kind the machine runs and of the other kind
	// (shared per program via ir.Program.TabCache), the per-method
	// inline-cache slices (machine-private — the only mutable dispatch
	// state — and shared by both kinds), the base frame index of the
	// innermost loopUntil, the tracer the handlers call (the Tracer, or
	// after a detach the tracer Detach returned), the detach's join, the
	// step count from which the loop offers one, and stop, the step count
	// past which the loop leaves its fast path: MaxSteps, or the next edge
	// of the Window. tabs, spare and ics are indexed by Method.ID, built
	// lazily.
	tabs     [][]dinstr
	spare    [][]dinstr
	ics      [][]icSite
	kind     tabKind
	tracer   Tracer
	join     func()
	detachAt int64
	stop     int64
	loopBase int

	// framePool recycles frames popped by the return handlers. A popped
	// frame is never revisited, so pushCall reuses the record and its locals
	// slice; frames abandoned on error paths are simply dropped.
	framePool []*Frame
}

// New returns a Machine for prog with default limits.
func New(prog *ir.Program) *Machine {
	return &Machine{
		Prog:         prog,
		MaxSteps:     DefaultMaxSteps,
		MaxDepth:     DefaultMaxDepth,
		Seed:         0x9E3779B97F4A7C15,
		Statics:      make([]Value, len(prog.Statics)),
		AllocsBySite: make([]int64, prog.NumAllocSites()),
	}
}

// Depth returns the current call-stack depth.
func (m *Machine) Depth() int { return len(m.frames) }

// Frames returns the live call stack, innermost last. The returned slice is
// the machine's own; callers must not mutate it.
func (m *Machine) Frames() []*Frame { return m.frames }

// charge counts the n cells and the header cells that in is about to
// keep, failing with ErrHeapLimit before anything is kept when the run
// would pass MaxHeapCells.
func (m *Machine) charge(in *ir.Instr, fr *Frame, n, header int64) error {
	if n > MaxHeapCells-header-m.cells {
		return m.fail(ErrHeapLimit, in, fr, "%d more cells and %d header cells with %d kept (budget %d)", n, header, m.cells, int64(MaxHeapCells))
	}
	m.cells += n + header
	return nil
}

// newObject allocates the class instance of OpNew in.
func (m *Machine) newObject(in *ir.Instr, fr *Frame) (*Object, error) {
	c := in.Class()
	if err := m.charge(in, fr, int64(c.NumFieldSlots()), headerCells); err != nil {
		return nil, err
	}
	m.seq++
	m.Allocs++
	m.AllocsBySite[in.AllocSite]++
	fields := make([]Value, c.NumFieldSlots())
	for slot, isRef := range c.RefSlots() {
		if isRef {
			fields[slot] = Null
		}
	}
	return &Object{Class: c, Fields: fields, Site: int(in.AllocSite), Seq: m.seq}, nil
}

// initStatics allocates static storage and nulls reference-typed slots.
func (m *Machine) initStatics() {
	if m.Statics != nil {
		return
	}
	m.Statics = make([]Value, len(m.Prog.Statics))
	for _, sf := range m.Prog.Statics {
		if sf.Type.IsRef() {
			m.Statics[sf.Slot] = Null
		}
	}
}

// newArray allocates the array of OpNewArray in, its length taken from
// operand A.
func (m *Machine) newArray(in *ir.Instr, fr *Frame) (*Object, error) {
	n := fr.Locals[in.A]
	switch {
	case n.K == ir.KindRef:
		return nil, m.fail(ErrType, in, fr, "array length is a reference")
	case n.I < 0:
		return nil, m.fail(ErrBounds, in, fr, "negative array length %d", n.I)
	}
	if err := m.charge(in, fr, n.I, headerCells); err != nil {
		return nil, err
	}
	m.seq++
	m.Allocs++
	m.AllocsBySite[in.AllocSite]++
	o := &Object{Elems: make([]Value, n.I), ElemT: in.Elem(), Site: int(in.AllocSite), Seq: m.seq}
	if in.Elem().IsRef() {
		for i := range o.Elems {
			o.Elems[i] = Null
		}
	}
	return o, nil
}

func (m *Machine) fail(kind ErrKind, in *ir.Instr, fr *Frame, format string, args ...any) error {
	return &VMError{Kind: kind, In: in, Frame: fr, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) nextRand() uint64 {
	// xorshift64*: deterministic, fast, good enough for workload shaping.
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	return x * 0x2545F4914F6CDD1D
}

const floatBitsKey = 0x5A5A_C3C3_0F0F_9696

// packFloatBits is the NativeFloatToBits transform; it is a bijection so
// NativeBitsToFloat can invert it exactly, modelling
// Float.floatToIntBits/intBitsToFloat round-trips.
func packFloatBits(x int64) int64 {
	return int64(bits.RotateLeft64(uint64(x), 17) ^ floatBitsKey)
}

func unpackFloatBits(y int64) int64 {
	return int64(bits.RotateLeft64(uint64(y)^floatBitsKey, -17))
}

// Run executes the program's main method to completion and returns the VM
// error, if any.
func (m *Machine) Run() error {
	entry := m.start()
	entry.tab, entry.ics = m.methodTab(entry.Method)
	return m.loopUntil(0)
}

// start readies a run of main: default limits, statics, the PRNG, the
// handler table, and the entry frame, pushed as the whole call stack and
// reported to the tracer.
func (m *Machine) start() *Frame {
	m.applyDefaults()
	m.rng = m.Seed | 1
	entry := &Frame{
		Method: m.Prog.Main,
		Locals: make([]Value, m.Prog.Main.NumLocals),
		RetDst: -1,
	}
	m.frames = append(m.frames[:0], entry)
	if m.tracer != nil {
		m.tracer.EnterMethod(entry, nil)
	}
	return entry
}

// applyDefaults fills zero limits, allocates the per-run tables and routes
// the run to its handler table.
func (m *Machine) applyDefaults() {
	m.tracer = m.Tracer
	if m.MaxSteps == 0 {
		m.MaxSteps = DefaultMaxSteps
	}
	if m.MaxDepth == 0 {
		m.MaxDepth = DefaultMaxDepth
	}
	m.schedule(m.Steps)
	m.initStatics()
	if m.AllocsBySite == nil {
		m.AllocsBySite = make([]int64, m.Prog.NumAllocSites())
	}
}

// schedule picks the handler table for step k, the next to run: the
// hooked table when a tracer observes k, the plain table otherwise. It
// sets stop to the step count past which the loop must look again: the
// next edge of the Window, or else MaxSteps.
func (m *Machine) schedule(k int64) {
	on, stop := m.tracer != nil, m.MaxSteps
	if w := m.Window; on && w != nil {
		on = w.contains(k)
		switch {
		case on:
			stop = min(stop, w.Hi)
		case k < w.Lo && w.Lo < w.Hi:
			stop = min(stop, w.Lo)
		}
	}
	m.stop = stop
	kind := plainTab
	if on {
		kind = hookedTab
	}
	if kind == m.kind {
		return
	}
	// Switch kinds, and re-point every live frame at its method's table
	// of the new kind.
	m.kind = kind
	m.tabs, m.spare = m.spare, m.tabs
	for _, fr := range m.frames {
		fr.tab, fr.ics = m.methodTab(fr.Method)
	}
}

// pastStop runs when the loop counts a step past stop, for the instruction
// at fr.PC: it fails a run past MaxSteps, and otherwise crosses a Window
// edge.
func (m *Machine) pastStop(fr *Frame) error {
	if m.Steps > m.MaxSteps {
		return m.fail(ErrStepLimit, fr.tab[fr.PC].in, fr, "after %d steps", m.Steps-1)
	}
	m.schedule(m.Steps - 1)
	return nil
}

// CallMethod invokes an arbitrary method with the given arguments and runs
// it to completion, returning the result. It is used by tests and by
// harnesses that drive individual methods.
func (m *Machine) CallMethod(method *ir.Method, args ...Value) (Value, error) {
	m.applyDefaults()
	if m.rng == 0 {
		m.rng = m.Seed | 1
	}
	if len(args) != method.Params {
		return Null, fmt.Errorf("interp: %s takes %d args, got %d", method.QualifiedName(), method.Params, len(args))
	}
	fr := &Frame{Method: method, Locals: make([]Value, method.NumLocals), RetDst: -1}
	fr.tab, fr.ics = m.methodTab(method)
	copy(fr.Locals, args)
	base := len(m.frames)
	m.frames = append(m.frames, fr)
	var recv *Object
	if !method.Static && len(args) > 0 && args[0].K == ir.KindRef {
		recv = args[0].Ref
	}
	if m.tracer != nil {
		m.tracer.EnterMethod(fr, recv)
	}
	if err := m.loopUntil(base); err != nil {
		return Null, err
	}
	return m.lastReturn, nil
}

// loopUntil runs until the frame stack shrinks below base, polling the
// context and offering a detach (see Detacher) every cancelCheckMask+1 steps.
func (m *Machine) loopUntil(base int) error {
	prevBase := m.loopBase
	m.loopBase = base
	defer func() {
		m.loopBase = prevBase
		if join := m.join; join != nil {
			m.join = nil
			m.tracer = m.Tracer
			join()
		}
	}()
	var done <-chan struct{}
	if m.Ctx != nil {
		done = m.Ctx.Done()
	}
	m.detachAt = m.Steps + DetachSteps
	for len(m.frames) > base {
		fr := m.frames[len(m.frames)-1]
		if uint(fr.PC) >= uint(len(fr.tab)) {
			return m.fail(ErrType, nil, fr, "pc %d out of range in %s", fr.PC, fr.Method.QualifiedName())
		}
		d := &fr.tab[fr.PC]
		m.Steps++
		if m.Steps > m.stop {
			if err := m.pastStop(fr); err != nil {
				return err
			}
			d = &fr.tab[fr.PC]
		}
		if m.Steps&cancelCheckMask == 0 {
			select {
			case <-done:
				err := m.fail(ErrCanceled, d.in, fr, "after %d steps", m.Steps)
				err.(*VMError).Cause = m.Ctx.Err()
				return err
			default:
			}
			if dt, ok := m.tracer.(Detacher); ok && m.join == nil && m.Steps >= m.detachAt {
				if t, join := dt.Detach(m.frames[base:]); t != nil {
					m.tracer, m.join, m.Detached = t, join, true
				}
			}
		}
		if err := d.fn(m, fr, d); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) compare(in *ir.Instr, fr *Frame) (bool, error) {
	a, b := fr.Locals[in.A], fr.Locals[in.B]
	if a.K == ir.KindRef || b.K == ir.KindRef {
		// Reference comparison: only identity equality is defined.
		if in.Cmp() != ir.Eq && in.Cmp() != ir.Ne {
			return false, m.fail(ErrType, in, fr, "ordered comparison of references")
		}
		var ar, br *Object
		if a.K == ir.KindRef {
			ar = a.Ref
		}
		if b.K == ir.KindRef {
			br = b.Ref
		}
		if a.K != b.K {
			// Comparing ref with int: only null-vs-0 idiom is tolerated as
			// inequality.
			return in.Cmp() == ir.Ne, nil
		}
		eq := ar == br
		if in.Cmp() == ir.Eq {
			return eq, nil
		}
		return !eq, nil
	}
	switch in.Cmp() {
	case ir.Eq:
		return a.I == b.I, nil
	case ir.Ne:
		return a.I != b.I, nil
	case ir.Lt:
		return a.I < b.I, nil
	case ir.Le:
		return a.I <= b.I, nil
	case ir.Gt:
		return a.I > b.I, nil
	case ir.Ge:
		return a.I >= b.I, nil
	}
	return false, m.fail(ErrType, in, fr, "bad comparison")
}

// doNative runs the native method of in over the argument slots args.
func (m *Machine) doNative(fr *Frame, in *ir.Instr, args []int32) (Value, error) {
	arg := func(i int) Value {
		if i < len(args) {
			return fr.Locals[args[i]]
		}
		return IntVal(0)
	}
	argInt := func(i int) int64 {
		v := arg(i)
		if v.K == ir.KindRef {
			if v.Ref == nil {
				return 0
			}
			return v.Ref.Seq
		}
		return v.I
	}
	switch in.Native() {
	case ir.NativePrint, ir.NativePrintChar:
		if err := m.charge(in, fr, 1, 0); err != nil {
			return IntVal(0), err
		}
		m.Output = append(m.Output, argInt(0))
		return IntVal(0), nil
	case ir.NativeRand:
		n := argInt(0)
		if n <= 0 {
			return IntVal(0), nil
		}
		return IntVal(int64(m.nextRand() % uint64(n))), nil
	case ir.NativeTime:
		m.clock++
		return IntVal(m.clock), nil
	case ir.NativeFloatToBits:
		return IntVal(packFloatBits(argInt(0))), nil
	case ir.NativeBitsToFloat:
		return IntVal(unpackFloatBits(argInt(0))), nil
	case ir.NativeAssert:
		if argInt(0) == 0 {
			m.AssertFailures++
		}
		return IntVal(0), nil
	case ir.NativeDBQuery:
		m.NativeWork += DBQueryCost
		var h uint64 = 0x9E3779B97F4A7C15
		for i := range args {
			h = mix64(h ^ uint64(argInt(i)))
		}
		return IntVal(int64(h >> 1)), nil
	case ir.NativeHash:
		return IntVal(int64(mix64(uint64(argInt(0))) >> 1)), nil
	default:
		return IntVal(0), m.fail(ErrNative, in, fr, "unknown native %v", in.Native())
	}
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
