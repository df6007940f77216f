package ir

import "fmt"

// Builder incrementally constructs a Program. Typical use:
//
//	b := ir.NewBuilder()
//	cls := b.Class("List", nil)
//	f := b.Field(cls, "head", b.RefType(nodeCls))
//	m := b.Method(cls, "add", false, 2, ir.IntType)
//	mb := b.Body(m)
//	mb.Move(2, 1)
//	...
//	prog, err := b.Seal("Main", "main")
//
// The Builder assigns instruction IDs, allocation-site IDs and field slots;
// Seal validates the result.
type Builder struct {
	syms        map[any]*sym // interned per entity an instruction names
	classes     []*Class
	statics     []*StaticField
	classByName map[string]*Class
	refTypes    map[*Class]*Type
	arrTypes    map[*Type]*Type
	nextField   int

	// Bodies are built one at a time, each appending to one log of
	// instructions and one of call and native arguments; cur is the body
	// being built.
	log  [][]Instr // chunks of logChunk instructions, never re-copied
	n    int       // instructions in the log
	args []int32
	cur  *BodyBuilder
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		syms:        make(map[any]*sym),
		classByName: make(map[string]*Class),
		refTypes:    make(map[*Class]*Type),
		arrTypes:    make(map[*Type]*Type),
	}
}

// Class declares a new class with the given superclass (nil for none).
// Declaring two classes with the same name panics: builder misuse is a
// programming error, not an input error.
func (b *Builder) Class(name string, super *Class) *Class {
	if _, dup := b.classByName[name]; dup {
		panic(fmt.Sprintf("ir: duplicate class %q", name))
	}
	c := &Class{Name: name, Super: super, ID: len(b.classes), methods: make(map[string]*Method)}
	b.classes = append(b.classes, c)
	b.classByName[name] = c
	return c
}

// RefType returns the interned reference type for class c.
func (b *Builder) RefType(c *Class) *Type {
	if t, ok := b.refTypes[c]; ok {
		return t
	}
	t := &Type{Kind: KindRef, Class: c}
	b.refTypes[c] = t
	return t
}

// ArrayType returns the interned array type with the given element type.
func (b *Builder) ArrayType(elem *Type) *Type {
	if t, ok := b.arrTypes[elem]; ok {
		return t
	}
	t := &Type{Kind: KindRef, Elem: elem}
	b.arrTypes[elem] = t
	return t
}

// Field declares an instance field on c.
func (b *Builder) Field(c *Class, name string, typ *Type) *Field {
	f := &Field{Name: name, Type: typ, Class: c, ID: b.nextField}
	b.nextField++
	c.Fields = append(c.Fields, f)
	return f
}

// StaticField declares a static field on c.
func (b *Builder) StaticField(c *Class, name string, typ *Type) *StaticField {
	f := &StaticField{Name: name, Type: typ, Class: c, Slot: len(b.statics)}
	f.ID = f.Slot
	b.statics = append(b.statics, f)
	return f
}

// Method declares a method on c. params includes the receiver for instance
// methods (slot 0 = this). returns may be nil for void.
func (b *Builder) Method(c *Class, name string, static bool, params int, returns *Type) *Method {
	if _, dup := c.methods[name]; dup {
		panic(fmt.Sprintf("ir: duplicate method %s.%s", c.Name, name))
	}
	m := &Method{Name: name, Class: c, Static: static, Params: params, NumLocals: params, Returns: returns}
	c.Methods = append(c.Methods, m)
	c.methods[name] = m
	return m
}

// BodyBuilder emits instructions into a method. It also tracks the high-water
// mark of local slots so NumLocals is maintained automatically.
//
// A body is a run of the Builder's log, which grows in chunks that are
// never re-copied. Seal copies the log once into exactly sized storage, so
// no *Instr exists before then; until Seal, an instruction is addressed by
// its PC (Patch).
type BodyBuilder struct {
	b      *Builder
	m      *Method
	line   int
	start  int // the body's first instruction in the log
	n      int // instructions emitted
	allocs int // of which OpNew or OpNewArray
	arg0   int // the body's first argument in the argument log
	nargs  int
}

// logChunk is the number of instructions in a chunk of the log. 63
// instructions and the allocator's 8-byte header fill a 4 KB size class
// (64 would take a 4,864-byte one), and a small program leaves little of
// its last chunk empty.
const logChunk = 63

// Body returns a BodyBuilder for m. A method may only be built once.
func (b *Builder) Body(m *Method) *BodyBuilder {
	if len(m.Code) != 0 || m.body != nil {
		panic(fmt.Sprintf("ir: method %s already has a body", m.QualifiedName()))
	}
	m.body = &BodyBuilder{b: b, m: m, start: b.n, arg0: len(b.args)}
	b.cur = m.body
	return m.body
}

// Line sets the source line recorded on subsequently emitted instructions.
func (bb *BodyBuilder) Line(line int) *BodyBuilder { bb.line = line; return bb }

// PC returns the index the next emitted instruction will have.
func (bb *BodyBuilder) PC() int { return bb.n }

func (bb *BodyBuilder) touch(slots ...int) {
	for _, s := range slots {
		if s >= bb.m.NumLocals {
			bb.m.NumLocals = s + 1
		}
	}
}

func (bb *BodyBuilder) emit(in Instr) int {
	b := bb.b
	if b.cur != bb {
		panic(fmt.Sprintf("ir: emitting into %s after the body of %s began", bb.m.QualifiedName(), b.cur.m.QualifiedName()))
	}
	if b.n%logChunk == 0 {
		b.log = append(b.log, make([]Instr, 0, logChunk))
	}
	pc := bb.n
	in.Method = bb.m
	in.Line = int32(bb.line)
	in.PC = int32(pc)
	in.AllocSite = -1
	if in.IsAlloc() {
		bb.allocs++
	}
	k := len(b.log) - 1
	b.log[k] = append(b.log[k], in)
	b.n++
	bb.n++
	return pc
}

// slots returns an instruction of op over local slots dst, a, b2 and c2,
// each -1 when unused.
func slots(op Op, dst, a, b2, c2 int) Instr {
	return Instr{Op: op, Dst: int32(dst), A: int32(a), B: int32(b2), C2: int32(c2)}
}

// sym returns the record interned for the entity s names.
func (b *Builder) sym(key any, s sym) *sym {
	if p, ok := b.syms[key]; ok {
		return p
	}
	p := &s
	b.syms[key] = p
	return p
}

// Const emits dst = imm.
func (bb *BodyBuilder) Const(dst int, imm int64) int {
	bb.touch(dst)
	in := slots(OpConst, dst, -1, -1, -1)
	in.Imm = imm
	return bb.emit(in)
}

// Null emits dst = null.
func (bb *BodyBuilder) Null(dst int) int {
	bb.touch(dst)
	in := slots(OpConst, dst, -1, -1, -1)
	in.IsNull = true
	return bb.emit(in)
}

// Move emits dst = src.
func (bb *BodyBuilder) Move(dst, src int) int {
	bb.touch(dst, src)
	return bb.emit(slots(OpMove, dst, src, -1, -1))
}

// Bin emits dst = a op b2.
func (bb *BodyBuilder) Bin(dst int, op BinOp, a, b2 int) int {
	bb.touch(dst, a, b2)
	in := slots(OpBin, dst, a, b2, -1)
	in.opr = uint8(op)
	return bb.emit(in)
}

// Neg emits dst = -a.
func (bb *BodyBuilder) Neg(dst, a int) int {
	bb.touch(dst, a)
	return bb.emit(slots(OpNeg, dst, a, -1, -1))
}

// Not emits dst = !a.
func (bb *BodyBuilder) Not(dst, a int) int {
	bb.touch(dst, a)
	return bb.emit(slots(OpNot, dst, a, -1, -1))
}

// New emits dst = new cls. The allocation-site index is assigned at Seal.
func (bb *BodyBuilder) New(dst int, cls *Class) int {
	bb.touch(dst)
	in := slots(OpNew, dst, -1, -1, -1)
	in.sym = bb.b.sym(cls, sym{class: cls})
	return bb.emit(in)
}

// NewArray emits dst = new elem[lenSlot].
func (bb *BodyBuilder) NewArray(dst int, elem *Type, lenSlot int) int {
	bb.touch(dst, lenSlot)
	in := slots(OpNewArray, dst, lenSlot, -1, -1)
	in.sym = bb.b.sym(elem, sym{elem: elem})
	return bb.emit(in)
}

// LoadField emits dst = obj.f.
func (bb *BodyBuilder) LoadField(dst, obj int, f *Field) int {
	bb.touch(dst, obj)
	in := slots(OpLoadField, dst, obj, -1, -1)
	in.sym = bb.b.sym(f, sym{field: f})
	return bb.emit(in)
}

// StoreField emits obj.f = src.
func (bb *BodyBuilder) StoreField(obj int, f *Field, src int) int {
	bb.touch(obj, src)
	in := slots(OpStoreField, -1, obj, src, -1)
	in.sym = bb.b.sym(f, sym{field: f})
	return bb.emit(in)
}

// LoadStatic emits dst = sf.
func (bb *BodyBuilder) LoadStatic(dst int, sf *StaticField) int {
	bb.touch(dst)
	in := slots(OpLoadStatic, dst, -1, -1, -1)
	in.sym = bb.b.sym(sf, sym{static: sf})
	return bb.emit(in)
}

// StoreStatic emits sf = src.
func (bb *BodyBuilder) StoreStatic(sf *StaticField, src int) int {
	bb.touch(src)
	in := slots(OpStoreStatic, -1, src, -1, -1)
	in.sym = bb.b.sym(sf, sym{static: sf})
	return bb.emit(in)
}

// ALoad emits dst = arr[idx].
func (bb *BodyBuilder) ALoad(dst, arr, idx int) int {
	bb.touch(dst, arr, idx)
	return bb.emit(slots(OpALoad, dst, arr, idx, -1))
}

// AStore emits arr[idx] = src.
func (bb *BodyBuilder) AStore(arr, idx, src int) int {
	bb.touch(arr, idx, src)
	return bb.emit(slots(OpAStore, -1, arr, idx, src))
}

// ArrayLen emits dst = len(arr).
func (bb *BodyBuilder) ArrayLen(dst, arr int) int {
	bb.touch(dst, arr)
	return bb.emit(slots(OpArrayLen, dst, arr, -1, -1))
}

// If emits "if a cmp b2 goto target". The target may be patched later with
// Patch.
func (bb *BodyBuilder) If(a int, cmp Cmp, b2, target int) int {
	bb.touch(a, b2)
	in := slots(OpIf, -1, a, b2, -1)
	in.opr = uint8(cmp)
	in.Target = int32(target)
	return bb.emit(in)
}

// Goto emits an unconditional jump.
func (bb *BodyBuilder) Goto(target int) int {
	in := slots(OpGoto, -1, -1, -1, -1)
	in.Target = int32(target)
	return bb.emit(in)
}

// Patch rewrites the jump target of the branch instruction at pc.
func (bb *BodyBuilder) Patch(pc, target int) {
	if pc < 0 || pc >= bb.n {
		panic(fmt.Sprintf("ir: patching pc %d outside the %d instructions of %s", pc, bb.n, bb.m.QualifiedName()))
	}
	at := bb.start + pc
	in := &bb.b.log[at/logChunk][at%logChunk]
	if in.Op != OpIf && in.Op != OpGoto {
		panic(fmt.Sprintf("ir: patching non-branch at pc %d in %s", pc, bb.m.QualifiedName()))
	}
	in.Target = int32(target)
}

// call emits an OpCall or OpNative whose arguments are the next window of
// the method's argument slab.
func (bb *BodyBuilder) call(in Instr, args []int) int {
	bb.touch(args...)
	if in.Dst >= 0 {
		bb.touch(int(in.Dst))
	}
	in.A, in.B = int32(bb.nargs), int32(len(args))
	for _, a := range args {
		bb.b.args = append(bb.b.args, int32(a))
	}
	bb.nargs += len(args)
	return bb.emit(in)
}

// Call emits dst = callee(args...). dst may be -1 for void calls. For
// instance methods, args[0] is the receiver.
func (bb *BodyBuilder) Call(dst int, callee *Method, args ...int) int {
	in := slots(OpCall, dst, -1, -1, -1)
	in.sym = bb.b.sym(callee, sym{callee: callee})
	return bb.call(in, args)
}

// Native emits dst = native(args...). dst may be -1.
func (bb *BodyBuilder) Native(dst int, fn NativeFn, args ...int) int {
	in := slots(OpNative, dst, -1, -1, -1)
	in.opr = uint8(fn)
	return bb.call(in, args)
}

// Return emits return src.
func (bb *BodyBuilder) Return(src int) int {
	bb.touch(src)
	in := slots(OpReturn, -1, src, -1, -1)
	in.HasA = true
	return bb.emit(in)
}

// ReturnVoid emits a void return.
func (bb *BodyBuilder) ReturnVoid() int {
	return bb.emit(slots(OpReturn, -1, -1, -1, -1))
}

// InstanceOf emits dst = a instanceof cls.
func (bb *BodyBuilder) InstanceOf(dst, a int, cls *Class) int {
	bb.touch(dst, a)
	in := slots(OpInstanceOf, dst, a, -1, -1)
	in.sym = bb.b.sym(cls, sym{class: cls})
	return bb.emit(in)
}

// Seal finalizes the program: assigns field slots (including inheritance),
// numbers instructions and allocation sites, resolves the entry point, and
// validates every method body.
func (b *Builder) Seal(mainClass, mainMethod string) (*Program, error) {
	p := &Program{
		Classes:     b.classes,
		Statics:     b.statics,
		classByName: b.classByName,
	}

	// Assign field slots in superclass-first order. Detect inheritance
	// cycles while we are at it.
	sealed := make(map[*Class]bool)
	var sealClass func(c *Class, trail map[*Class]bool) error
	sealClass = func(c *Class, trail map[*Class]bool) error {
		if sealed[c] {
			return nil
		}
		if trail[c] {
			return fmt.Errorf("ir: inheritance cycle through class %s", c.Name)
		}
		trail[c] = true
		base := 0
		if c.Super != nil {
			if err := sealClass(c.Super, trail); err != nil {
				return err
			}
			base = c.Super.fieldsN
		}
		for i, f := range c.Fields {
			f.Slot = base + i
		}
		c.fieldsN = base + len(c.Fields)
		c.refSlots = make([]bool, c.fieldsN)
		if c.Super != nil {
			copy(c.refSlots, c.Super.refSlots)
		}
		for _, f := range c.Fields {
			c.refSlots[f.Slot] = f.Type.IsRef()
		}
		sealed[c] = true
		delete(trail, c)
		return nil
	}
	for _, c := range b.classes {
		if err := sealClass(c, make(map[*Class]bool)); err != nil {
			return nil, err
		}
	}

	p.fieldsByID = make([]*Field, b.nextField)
	for _, c := range b.classes {
		for _, f := range c.Fields {
			p.fieldsByID[f.ID] = f
		}
	}
	p.NumFields = b.nextField

	// Copy the log once into one exactly sized slab of instructions, and
	// the arguments into one of arguments; give each method its run of
	// both, then number methods, instructions and allocation sites, the
	// last two into exactly sized tables.
	code := make([]Instr, 0, b.n)
	for _, ch := range b.log {
		code = append(code, ch...)
	}
	args := make([]int32, len(b.args))
	copy(args, b.args)
	b.log, b.args, b.cur = nil, nil, nil
	var nAllocs, nextMethod int
	for _, c := range b.classes {
		for _, m := range c.Methods {
			m.ID = nextMethod
			nextMethod++
			bb := m.body
			if bb == nil {
				continue
			}
			end := bb.start + bb.n
			m.Code = code[bb.start:end:end]
			end = bb.arg0 + bb.nargs
			m.args = args[bb.arg0:end:end]
			nAllocs += bb.allocs
			m.body = nil
		}
	}
	p.Instrs = make([]*Instr, 0, len(code))
	p.AllocSites = make([]*Instr, 0, nAllocs)
	p.number()

	mc := b.classByName[mainClass]
	if mc == nil {
		return nil, fmt.Errorf("ir: main class %q not found", mainClass)
	}
	p.Main = mc.LookupMethod(mainMethod)
	if p.Main == nil {
		return nil, fmt.Errorf("ir: main method %s.%s not found", mainClass, mainMethod)
	}
	if !p.Main.Static || p.Main.Params != 0 {
		return nil, fmt.Errorf("ir: main method %s must be static with no parameters", p.Main.QualifiedName())
	}

	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}
