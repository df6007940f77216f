package ir

import "fmt"

// Op enumerates the three-address instruction opcodes. Every opcode costs
// one unit when executed, matching the paper's "each instruction is treated
// as having unit cost".
type Op uint8

const (
	// OpConst: Dst = Imm (an int constant) or null when Imm==0 and IsNull.
	OpConst Op = iota
	// OpMove: Dst = A (a copy assignment "a = b").
	OpMove
	// OpBin: Dst = A <BinOp> B (a computation with exactly one operator).
	OpBin
	// OpNeg: Dst = -A.
	OpNeg
	// OpNot: Dst = !A (logical not over 0/1).
	OpNot
	// OpNew: Dst = new Class. AllocSite is the dense allocation-site index.
	OpNew
	// OpNewArray: Dst = new Elem[A]. AllocSite set as for OpNew.
	OpNewArray
	// OpLoadField: Dst = A.Field (A holds the base reference).
	OpLoadField
	// OpStoreField: A.Field = B.
	OpStoreField
	// OpLoadStatic: Dst = Static.
	OpLoadStatic
	// OpStoreStatic: Static = A.
	OpStoreStatic
	// OpALoad: Dst = A[B].
	OpALoad
	// OpAStore: A[B] = C2 (C2 is the stored value).
	OpAStore
	// OpArrayLen: Dst = len(A).
	OpArrayLen
	// OpIf: if A <Cmp> B goto Target. This is the paper's predicate
	// instruction: it consumes its operands at a context-free node.
	OpIf
	// OpGoto: unconditional jump to Target. Gotos perform no data flow and
	// create no dependence node.
	OpGoto
	// OpCall: Dst = Callee(args...) — static call or, when Callee is an
	// instance method, virtual dispatch on the receiver (Args[0]).
	OpCall
	// OpReturn: return A (or return void when HasA is false).
	OpReturn
	// OpNative: Dst = Native(args...). Native methods are consumers: their
	// dependence node has no context and consumes every argument, modelling
	// "a native node is created for each call site that invokes a native
	// method".
	OpNative
	// OpInstanceOf: Dst = (A instanceof Class) as 0/1.
	OpInstanceOf
)

var opNames = [...]string{
	OpConst:       "const",
	OpMove:        "move",
	OpBin:         "bin",
	OpNeg:         "neg",
	OpNot:         "not",
	OpNew:         "new",
	OpNewArray:    "newarray",
	OpLoadField:   "getfield",
	OpStoreField:  "putfield",
	OpLoadStatic:  "getstatic",
	OpStoreStatic: "putstatic",
	OpALoad:       "aload",
	OpAStore:      "astore",
	OpArrayLen:    "arraylen",
	OpIf:          "if",
	OpGoto:        "goto",
	OpCall:        "call",
	OpReturn:      "return",
	OpNative:      "native",
	OpInstanceOf:  "instanceof",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// BinOp enumerates binary arithmetic/logic operators for OpBin.
type BinOp uint8

const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And // bitwise and (also logical over 0/1)
	Or
	Xor
	Shl
	Shr
)

var binNames = [...]string{Add: "+", Sub: "-", Mul: "*", Div: "/", Rem: "%",
	And: "&", Or: "|", Xor: "^", Shl: "<<", Shr: ">>"}

func (b BinOp) String() string {
	if int(b) < len(binNames) {
		return binNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// Cmp enumerates comparison operators for OpIf.
type Cmp uint8

const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var cmpNames = [...]string{Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}

func (c Cmp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("cmp(%d)", uint8(c))
}

// NativeFn identifies a built-in native method. Natives model the JVM's
// native boundary: values passed to them are consumed (they "benefit the
// overall execution").
type NativeFn uint8

const (
	// NativePrint writes its single int argument to the machine's output.
	NativePrint NativeFn = iota
	// NativePrintChar writes its argument as a character.
	NativePrintChar
	// NativeRand returns a deterministic pseudo-random int in [0, A).
	NativeRand
	// NativeTime returns a monotonically increasing virtual clock value.
	NativeTime
	// NativeFloatToBits packs a fixed-point "float" into an int (sunflow's
	// Float.floatToIntBits stand-in).
	NativeFloatToBits
	// NativeBitsToFloat is the inverse of NativeFloatToBits.
	NativeBitsToFloat
	// NativeAssert consumes its argument; the harness counts assertions.
	NativeAssert
	// NativeDBQuery models a database round-trip (derby/tradebeans): it
	// consumes its arguments and returns a value derived from them after a
	// configurable amount of synthetic work.
	NativeDBQuery
	// NativeHash returns a mixed hash of its argument.
	NativeHash
)

var nativeNames = [...]string{
	NativePrint:       "print",
	NativePrintChar:   "printChar",
	NativeRand:        "rand",
	NativeTime:        "time",
	NativeFloatToBits: "floatToIntBits",
	NativeBitsToFloat: "intBitsToFloat",
	NativeAssert:      "assert",
	NativeDBQuery:     "dbQuery",
	NativeHash:        "hash",
}

func (n NativeFn) String() string {
	if int(n) < len(nativeNames) {
		return nativeNames[n]
	}
	return fmt.Sprintf("native(%d)", uint8(n))
}

// NativeByName maps an MJ-source native name to its NativeFn.
func NativeByName(name string) (NativeFn, bool) {
	for i, n := range nativeNames {
		if n == name {
			return NativeFn(i), true
		}
	}
	return 0, false
}

// Instr is a single three-address instruction. Operand meaning depends on Op
// (see the Op constants). Local operands are frame-local slot indices.
//
// An Instr is 64 bytes, one cache line: its pointers and the immediate
// first, nine int32 fields, then four bytes. The op-specific operator (Bin,
// Cmp or Native) shares one byte, the one entity an op names (Class, Elem,
// Field, Static or Callee) sits behind one pointer to a record the Builder
// interns per entity, and call and native arguments are a window of the
// method's argument slab held in A and B, which those ops use for no slot.
type Instr struct {
	// Method is the containing method (set when the body is built).
	Method *Method
	sym    *sym  // the named entity; nil for ops that name none
	Imm    int64 // OpConst immediate

	Dst int32 // destination local slot (-1 when unused)
	// A is the first operand local slot (-1 when unused); for OpCall and
	// OpNative it is where the argument window starts (see Args).
	A int32
	// B is the second operand local slot (-1 when unused); for OpCall and
	// OpNative it is the number of arguments.
	B      int32
	C2     int32 // third operand local slot (OpAStore value; -1 when unused)
	Target int32 // OpIf / OpGoto: index into Method.Code

	// ID is the globally unique static-instruction identifier — the element
	// of domain I that this instruction contributes.
	ID int32
	// AllocSite is the dense allocation-site index for OpNew/OpNewArray
	// (domain O); -1 otherwise.
	AllocSite int32
	// PC is the instruction's index within Method.Code.
	PC int32
	// Line is an optional source line for diagnostics (0 when unknown).
	Line int32

	Op     Op
	opr    uint8 // OpBin's BinOp, OpIf's Cmp or OpNative's NativeFn
	IsNull bool  // OpConst: produce null instead of Imm
	HasA   bool  // OpReturn: returns a value
}

// sym is the one entity an instruction names. The Builder interns one per
// class, element type, field, static and callee, so every instruction that
// names the same entity shares it; an Instr's accessors read through it.
type sym struct {
	class  *Class       // OpNew / OpInstanceOf
	elem   *Type        // OpNewArray element type
	field  *Field       // OpLoadField / OpStoreField
	static *StaticField // OpLoadStatic / OpStoreStatic
	callee *Method      // OpCall (virtual dispatch re-resolves by name)
}

// Class returns the class of an OpNew or OpInstanceOf, or nil.
func (in *Instr) Class() *Class {
	if in.sym == nil {
		return nil
	}
	return in.sym.class
}

// Elem returns the element type of an OpNewArray, or nil.
func (in *Instr) Elem() *Type {
	if in.sym == nil {
		return nil
	}
	return in.sym.elem
}

// Field returns the field of an OpLoadField or OpStoreField, or nil.
func (in *Instr) Field() *Field {
	if in.sym == nil {
		return nil
	}
	return in.sym.field
}

// Static returns the static field of an OpLoadStatic or OpStoreStatic, or
// nil.
func (in *Instr) Static() *StaticField {
	if in.sym == nil {
		return nil
	}
	return in.sym.static
}

// Callee returns the declared callee of an OpCall, or nil.
func (in *Instr) Callee() *Method {
	if in.sym == nil {
		return nil
	}
	return in.sym.callee
}

// Bin returns an OpBin's operator.
func (in *Instr) Bin() BinOp { return BinOp(in.opr) }

// Cmp returns an OpIf's comparison.
func (in *Instr) Cmp() Cmp { return Cmp(in.opr) }

// Native returns an OpNative's native method.
func (in *Instr) Native() NativeFn { return NativeFn(in.opr) }

// Args returns the argument local slots of an OpCall or OpNative, and nil
// for every other op. The slice is a window of the method's argument slab:
// a pass that renames slots may write through it, but not append to it.
func (in *Instr) Args() []int32 {
	if in.Op != OpCall && in.Op != OpNative {
		return nil
	}
	end := in.A + in.B
	return in.Method.args[in.A:end:end]
}

// IsPredicate reports whether the instruction is an if predicate.
func (in *Instr) IsPredicate() bool { return in.Op == OpIf }

// IsConsumer reports whether the instruction's dependence node is a consumer
// node (predicate or native) in the sense of the paper.
func (in *Instr) IsConsumer() bool { return in.Op == OpIf || in.Op == OpNative }

// IsAlloc reports whether the instruction allocates an object or array
// (an "underlined" node).
func (in *Instr) IsAlloc() bool { return in.Op == OpNew || in.Op == OpNewArray }

// ReadsHeap reports whether the instruction reads a static or object field
// or an array element (a "circled" node). Heap readers terminate HRAC
// traversals.
func (in *Instr) ReadsHeap() bool {
	switch in.Op {
	case OpLoadField, OpLoadStatic, OpALoad, OpArrayLen:
		return true
	}
	return false
}

// WritesHeap reports whether the instruction writes a static or object field
// or an array element (a "boxed" node). Heap writers terminate HRAB
// traversals.
func (in *Instr) WritesHeap() bool {
	switch in.Op {
	case OpStoreField, OpStoreStatic, OpAStore:
		return true
	}
	return false
}

// Def returns the local slot the instruction writes, or -1. For OpCall the
// destination is assigned when the callee returns, but it is still this
// instruction's definition for dataflow purposes.
func (in *Instr) Def() int { return int(in.Dst) }

// Uses calls f for every local slot the instruction reads. base is true for
// base-pointer operands — the object/array reference of a field or element
// access — which thin slicing excludes from value flow; every other operand
// is a value use. A slot read twice (e.g. v0[v0]) is reported twice.
func (in *Instr) Uses(f func(slot int, base bool)) {
	a, b := int(in.A), int(in.B)
	switch in.Op {
	case OpMove, OpNeg, OpNot, OpNewArray, OpInstanceOf:
		f(a, false)
	case OpBin:
		f(a, false)
		f(b, false)
	case OpLoadField:
		f(a, true)
	case OpStoreField:
		f(a, true)
		f(b, false)
	case OpStoreStatic:
		f(a, false)
	case OpALoad:
		f(a, true)
		f(b, false)
	case OpAStore:
		f(a, true)
		f(b, false)
		f(int(in.C2), false)
	case OpArrayLen:
		f(a, true)
	case OpIf:
		f(a, false)
		f(b, false)
	case OpCall, OpNative:
		for _, s := range in.Args() {
			f(int(s), false)
		}
	case OpReturn:
		if in.HasA {
			f(a, false)
		}
	}
}

// String renders the instruction in a compact disassembly form.
func (in *Instr) String() string {
	switch in.Op {
	case OpConst:
		if in.IsNull {
			return fmt.Sprintf("v%d = null", in.Dst)
		}
		return fmt.Sprintf("v%d = %d", in.Dst, in.Imm)
	case OpMove:
		return fmt.Sprintf("v%d = v%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("v%d = v%d %s v%d", in.Dst, in.A, in.Bin(), in.B)
	case OpNeg:
		return fmt.Sprintf("v%d = -v%d", in.Dst, in.A)
	case OpNot:
		return fmt.Sprintf("v%d = !v%d", in.Dst, in.A)
	case OpNew:
		return fmt.Sprintf("v%d = new %s [site %d]", in.Dst, in.Class().Name, in.AllocSite)
	case OpNewArray:
		return fmt.Sprintf("v%d = new %s[v%d] [site %d]", in.Dst, in.Elem(), in.A, in.AllocSite)
	case OpLoadField:
		return fmt.Sprintf("v%d = v%d.%s", in.Dst, in.A, in.Field().Name)
	case OpStoreField:
		return fmt.Sprintf("v%d.%s = v%d", in.A, in.Field().Name, in.B)
	case OpLoadStatic:
		return fmt.Sprintf("v%d = %s", in.Dst, in.Static().QualifiedName())
	case OpStoreStatic:
		return fmt.Sprintf("%s = v%d", in.Static().QualifiedName(), in.A)
	case OpALoad:
		return fmt.Sprintf("v%d = v%d[v%d]", in.Dst, in.A, in.B)
	case OpAStore:
		return fmt.Sprintf("v%d[v%d] = v%d", in.A, in.B, in.C2)
	case OpArrayLen:
		return fmt.Sprintf("v%d = len(v%d)", in.Dst, in.A)
	case OpIf:
		return fmt.Sprintf("if v%d %s v%d goto %d", in.A, in.Cmp(), in.B, in.Target)
	case OpGoto:
		return fmt.Sprintf("goto %d", in.Target)
	case OpCall:
		return fmt.Sprintf("v%d = call %s %v", in.Dst, in.Callee().QualifiedName(), in.Args())
	case OpReturn:
		if in.HasA {
			return fmt.Sprintf("return v%d", in.A)
		}
		return "return"
	case OpNative:
		return fmt.Sprintf("v%d = native %s %v", in.Dst, in.Native(), in.Args())
	case OpInstanceOf:
		return fmt.Sprintf("v%d = v%d instanceof %s", in.Dst, in.A, in.Class().Name)
	default:
		return in.Op.String()
	}
}
