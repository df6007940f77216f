package profiler

// Detached profiling. Past the machine's step threshold, Detach moves Gcost
// construction off the machine's goroutine: the machine calls logHooks,
// which append each event to a compact log, and a consumer goroutine
// replays the log in order onto the Profiler's own hooks. Gcost is a
// deterministic fold over the events, so the graph is the synchronous one.

import (
	"runtime"
	"sync"

	"lowutil/internal/interp"
	"lowutil/internal/ir"
)

// The log. An event is one word, its kind in the low kindBits bits and
// its instruction's ID above them, plus a word for an array index or for
// the callee, named by its entry instruction's ID. The objects an event
// names (nil for a stored non-reference or a static call's receiver) go
// to a separate pointer stream, so the collector sees them.
const (
	kindBits = 5
	maxLogID = 1<<(32-kindBits) - 1
	// A slot's batches, allocated once: smaller ones wake the consumer more
	// often, and fewer of them make the machine wait.
	logBatches = 4
	batchWords = 8192
	batchObjs  = 4096
	maxEvent   = 2 // the most words, and the most pointers, an event adds
)

// logKind is an event's kind: the hook the consumer replays it onto.
type logKind uint32

const (
	logConst logKind = iota
	logUnary
	logBinary
	logNew
	logNewArray
	logLoadField
	logStoreField
	logLoadStatic
	logStoreStatic
	logLoadElem
	logStoreElem
	logArrayLen
	logBranch
	logNative
	logCall // BeforeCall and the callee's EnterMethod
	logReturn
	logAfterCall
	logAfterCallValue
)

// batch is one chunk of the log; w and o are its used words and pointers.
type batch struct {
	w []uint32
	o []*interp.Object
}

// slot is one consumer slot. Its batches go from free to the producer,
// which fills one and sends it on full, to the consumer, which replays it
// and returns it to free; a nil batch ends the run, and the consumer then
// answers on done. Both channels hold every batch, so only the producer
// ever waits for room: on free, when the consumer is behind.
type slot struct {
	full, free chan *batch
	done       chan struct{}
}

// slots is the process-wide set of consumer slots. At most GOMAXPROCS−1
// are busy, so consumers never take the last processor from the machines;
// an idle slot keeps its batches for the next detach.
var slots struct {
	sync.Mutex
	idle []*slot
	busy int
}

// acquireSlot takes a free slot, or returns nil when none is.
func acquireSlot() *slot {
	slots.Lock()
	defer slots.Unlock()
	if slots.busy >= runtime.GOMAXPROCS(0)-1 {
		return nil
	}
	slots.busy++
	if n := len(slots.idle); n > 0 {
		s := slots.idle[n-1]
		slots.idle = slots.idle[:n-1]
		return s
	}
	s := &slot{full: make(chan *batch, logBatches), free: make(chan *batch, logBatches), done: make(chan struct{})}
	for range logBatches {
		s.free <- &batch{w: make([]uint32, batchWords), o: make([]*interp.Object, batchObjs)}
	}
	return s
}

// Detach implements interp.Detacher. It declines when no slot is free or
// the program's instruction IDs do not fit the log's words.
func (p *Profiler) Detach(frames []*interp.Frame) (interp.Tracer, func()) {
	if p.Prog.NumInstrs() > maxLogID+1 {
		return nil, nil
	}
	s := acquireSlot()
	if s == nil {
		return nil, nil
	}
	c := &consumer{p: p, instrs: p.Prog.Instrs, frames: []*interp.Frame{nil}}
	for _, fr := range frames {
		c.push(fr.Method).Shadow = p.fshadow(fr)
	}
	l := &logHooks{s: s, c: c}
	l.take()
	go c.run(s)
	return l, l.join
}

// logHooks is the producer: the tracer a detached machine calls. Each hook
// appends its event to the current batch and reads no frame. It shares no
// allocation with the consumer, whose fields would otherwise sit on the
// cache line the producer writes on every event. NopTracer supplies
// EnterMethod, logged with BeforeCall.
type logHooks struct {
	interp.NopTracer
	w      []uint32
	o      []*interp.Object
	nw, no int
	cur    *batch
	s      *slot
	c      *consumer
}

func (l *logHooks) event(k logKind, in *ir.Instr) {
	l.w[l.nw] = uint32(in.ID)<<kindBits | uint32(k)
	l.nw++
}

func (l *logHooks) obj(o *interp.Object) {
	l.o[l.no] = o
	l.no++
}

// put logs an event; put1 and putWord first log an object it names, and
// putWord follows its word with x.
func (l *logHooks) put(k logKind, in *ir.Instr) {
	l.event(k, in)
	l.end()
}

func (l *logHooks) put1(k logKind, in *ir.Instr, o *interp.Object) {
	l.obj(o)
	l.put(k, in)
}

func (l *logHooks) putWord(k logKind, in *ir.Instr, x uint32, o *interp.Object) {
	l.obj(o)
	l.event(k, in)
	l.w[l.nw] = x
	l.nw++
	l.end()
}

// end hands the batch to the consumer once the next event might not fit.
func (l *logHooks) end() {
	if l.nw > batchWords-maxEvent || l.no > batchObjs-maxEvent {
		l.cur.w, l.cur.o = l.w[:l.nw], l.o[:l.no]
		l.s.full <- l.cur
		l.take()
	}
}

// take makes a free batch current.
func (l *logHooks) take() {
	b := <-l.s.free
	l.cur, l.w, l.o, l.nw, l.no = b, b.w[:batchWords], b.o[:batchObjs], 0, 0
}

// join sends the last batch and the end of the run, waits until the
// consumer has replayed everything, releases the slot, and re-raises the
// consumer's panic, if any.
func (l *logHooks) join() {
	l.cur.w, l.cur.o = l.w[:l.nw], l.o[:l.no]
	l.s.full <- l.cur
	l.s.full <- nil
	<-l.s.done
	slots.Lock()
	slots.idle = append(slots.idle, l.s)
	slots.busy--
	slots.Unlock()
	if r := l.c.panicked; r != nil {
		panic(r)
	}
}

// The hooks log a stored value as the object it references, the only part
// of it they read; an array index fits a word, being below MaxHeapCells.
func (l *logHooks) Const(in *ir.Instr, _ *interp.Frame)  { l.put(logConst, in) }
func (l *logHooks) Unary(in *ir.Instr, _ *interp.Frame)  { l.put(logUnary, in) }
func (l *logHooks) Binary(in *ir.Instr, _ *interp.Frame) { l.put(logBinary, in) }
func (l *logHooks) New(in *ir.Instr, _ *interp.Frame, o *interp.Object) {
	l.put1(logNew, in, o)
}
func (l *logHooks) NewArray(in *ir.Instr, _ *interp.Frame, o *interp.Object) {
	l.put1(logNewArray, in, o)
}
func (l *logHooks) LoadField(in *ir.Instr, _ *interp.Frame, base *interp.Object) {
	l.put1(logLoadField, in, base)
}
func (l *logHooks) StoreField(in *ir.Instr, _ *interp.Frame, base *interp.Object, v interp.Value) {
	l.obj(base)
	l.put1(logStoreField, in, v.Ref)
}
func (l *logHooks) LoadStatic(in *ir.Instr, _ *interp.Frame) { l.put(logLoadStatic, in) }
func (l *logHooks) StoreStatic(in *ir.Instr, _ *interp.Frame, v interp.Value) {
	l.put1(logStoreStatic, in, v.Ref)
}
func (l *logHooks) LoadElem(in *ir.Instr, _ *interp.Frame, arr *interp.Object, idx int64) {
	l.putWord(logLoadElem, in, uint32(idx), arr)
}
func (l *logHooks) StoreElem(in *ir.Instr, _ *interp.Frame, arr *interp.Object, idx int64, v interp.Value) {
	l.obj(arr)
	l.putWord(logStoreElem, in, uint32(idx), v.Ref)
}
func (l *logHooks) ArrayLen(in *ir.Instr, _ *interp.Frame, arr *interp.Object) {
	l.put1(logArrayLen, in, arr)
}
func (l *logHooks) Branch(in *ir.Instr, _ *interp.Frame, _ bool) { l.put(logBranch, in) }
func (l *logHooks) Native(in *ir.Instr, _ *interp.Frame)         { l.put(logNative, in) }
func (l *logHooks) BeforeCall(in *ir.Instr, _ *interp.Frame, callee *ir.Method, recv *interp.Object) {
	l.putWord(logCall, in, uint32(callee.Code[0].ID), recv)
}
func (l *logHooks) BeforeReturn(in *ir.Instr, _ *interp.Frame) { l.put(logReturn, in) }
func (l *logHooks) AfterCall(in *ir.Instr, _ *interp.Frame, hasValue bool) {
	if hasValue {
		l.put(logAfterCallValue, in)
	} else {
		l.put(logAfterCall, in)
	}
}

// consumer replays the log onto its Profiler. frames is its shadow stack of
// records of its own, each with a machine frame's method and shadow (the
// machine recycles popped frames, so the consumer never reads one), above a
// nil bottom that stands for the frame the loop returns to.
type consumer struct {
	p        *Profiler
	instrs   []*ir.Instr
	frames   []*interp.Frame
	panicked any
}

// run replays batches until the end of the run. After a panic it keeps
// returning batches unreplayed, so the machine runs on to its join.
func (c *consumer) run(s *slot) {
	for b := <-s.full; b != nil; b = <-s.full {
		if c.panicked == nil {
			func() {
				defer func() { c.panicked = recover() }()
				c.replay(b)
			}()
		}
		clear(b.o)
		s.free <- b
	}
	s.done <- struct{}{}
}

// replay calls, for each event of b, the hook the synchronous machine
// called, with the same operands, on the consumer's frame for the machine's.
func (c *consumer) replay(b *batch) {
	p, w, objs := c.p, b.w, b.o
	fr := c.frames[len(c.frames)-1]
	j := 0
	for i := 0; i < len(w); i++ {
		k, in := logKind(w[i]&(1<<kindBits-1)), c.instrs[w[i]>>kindBits]
		switch k {
		case logConst:
			p.Const(in, fr)
		case logUnary:
			p.Unary(in, fr)
		case logBinary:
			p.Binary(in, fr)
		case logNew:
			p.New(in, fr, objs[j])
			j++
		case logNewArray:
			p.NewArray(in, fr, objs[j])
			j++
		case logLoadField:
			p.LoadField(in, fr, objs[j])
			j++
		case logStoreField:
			p.StoreField(in, fr, objs[j], interp.RefVal(objs[j+1]))
			j += 2
		case logLoadStatic:
			p.LoadStatic(in, fr)
		case logStoreStatic:
			p.StoreStatic(in, fr, interp.RefVal(objs[j]))
			j++
		case logLoadElem:
			i++
			p.LoadElem(in, fr, objs[j], int64(w[i]))
			j++
		case logStoreElem:
			i++
			p.StoreElem(in, fr, objs[j], int64(w[i]), interp.RefVal(objs[j+1]))
			j += 2
		case logArrayLen:
			p.ArrayLen(in, fr, objs[j])
			j++
		case logBranch:
			p.Branch(in, fr, false) // the profiler reads no outcome, so the log keeps none
		case logNative:
			p.Native(in, fr)
		case logCall:
			i++
			callee, recv := c.instrs[w[i]].Method, objs[j]
			j++
			p.BeforeCall(in, fr, callee, recv)
			fr = c.push(callee)
			p.EnterMethod(fr, recv)
		case logReturn:
			p.BeforeReturn(in, fr)
			fr = c.pop()
		case logAfterCall, logAfterCallValue:
			p.AfterCall(in, fr, k == logAfterCallValue)
		}
	}
}

// push pushes a frame record for m, reusing the one last pushed at its
// depth, as the machine reuses popped frames.
func (c *consumer) push(m *ir.Method) *interp.Frame {
	n := len(c.frames)
	if n == cap(c.frames) || c.frames[:n+1][n] == nil {
		c.frames = append(c.frames, new(interp.Frame))
	} else {
		c.frames = c.frames[:n+1]
	}
	fr := c.frames[n]
	fr.Method, fr.Shadow = m, nil
	return fr
}

// pop pops a frame record and returns the innermost one left.
func (c *consumer) pop() *interp.Frame {
	c.frames = c.frames[:len(c.frames)-1]
	return c.frames[len(c.frames)-1]
}
