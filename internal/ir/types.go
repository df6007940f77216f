// Package ir defines the three-address-code intermediate representation that
// the whole system is built on.
//
// The PLDI 2010 paper states its algorithms over "a three-address-code
// representation of the program. In this representation, each statement
// corresponds to a bytecode instruction (i.e., it is either a copy assignment
// a=b or a computation a=b+c that contains only one operator)." This package
// is that representation: a Program holds Classes, Classes hold Fields and
// Methods, and a Method body is a flat slice of Instrs, each carrying a
// globally unique ID and costing one unit when executed.
//
// Programs are constructed either by the MJ front end
// (internal/lexer → internal/parser → internal/sem → internal/codegen)
// or directly through the Builder in this package.
package ir

import (
	"fmt"
	"sync/atomic"
)

// Kind classifies the runtime type of a value, field, or local slot.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never appears in a validated Program.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer. MJ's int and boolean types both
	// lower to KindInt (booleans use 0 and 1), mirroring how the JVM treats
	// booleans as ints in bytecode.
	KindInt
	// KindRef is a reference to a heap object (class instance or array) or
	// the null reference.
	KindRef
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindRef:
		return "ref"
	default:
		return "invalid"
	}
}

// Type describes a static MJ type. Elem is only meaningful for arrays.
type Type struct {
	Kind  Kind
	Class *Class // non-nil for class types
	Elem  *Type  // non-nil for array types
}

// IsArray reports whether t denotes an array type.
func (t *Type) IsArray() bool { return t != nil && t.Elem != nil }

// IsRef reports whether t is a reference type (class or array).
func (t *Type) IsRef() bool { return t != nil && t.Kind == KindRef }

func (t *Type) String() string {
	switch {
	case t == nil:
		return "void"
	case t.IsArray():
		return t.Elem.String() + "[]"
	case t.Class != nil:
		return t.Class.Name
	default:
		return t.Kind.String()
	}
}

// IntType and BoolType are the canonical primitive types shared by all
// programs; reference types are interned per Program.
var (
	IntType  = &Type{Kind: KindInt}
	BoolType = &Type{Kind: KindInt}
)

// Field is a member field of a Class. Fields are addressed by slot index at
// run time; the index is assigned when the class is sealed and includes
// superclass fields, so a subclass object's field slice embeds its parents'.
type Field struct {
	Name  string
	Type  *Type
	Class *Class // declaring class
	Slot  int    // index into Object.Fields
	ID    int    // globally unique field identifier (for copy profiling)
}

// QualifiedName returns "Class.field".
func (f *Field) QualifiedName() string { return f.Class.Name + "." + f.Name }

// StaticField is a class-level (static) field. Static fields live in
// Program-wide storage indexed by Slot.
type StaticField struct {
	Name  string
	Type  *Type
	Class *Class
	Slot  int // index into Machine.Statics
	ID    int
}

// QualifiedName returns "Class.field".
func (f *StaticField) QualifiedName() string { return f.Class.Name + "." + f.Name }

// Class is an MJ class: a named collection of fields and methods with single
// inheritance. The zero Class is not usable; create classes through
// Builder.Class.
type Class struct {
	Name     string
	Super    *Class
	Fields   []*Field  // declared fields only (not inherited)
	Methods  []*Method // declared methods only
	ID       int       // dense class index within the Program
	fieldsN  int       // total field slots incl. inherited (after seal)
	refSlots []bool    // per-slot: is the field reference-typed? (after seal)
	methods  map[string]*Method
}

// RefSlots reports, per runtime field slot, whether the field holds a
// reference (and therefore must be initialized to null on allocation).
func (c *Class) RefSlots() []bool { return c.refSlots }

// NumFieldSlots returns the number of runtime field slots an instance of c
// carries, including inherited fields.
func (c *Class) NumFieldSlots() int { return c.fieldsN }

// LookupMethod resolves name against c and its superclasses, implementing
// virtual dispatch: the most-derived declaration wins.
func (c *Class) LookupMethod(name string) *Method {
	for cl := c; cl != nil; cl = cl.Super {
		if m, ok := cl.methods[name]; ok {
			return m
		}
	}
	return nil
}

// LookupField resolves a field name against c and its superclasses.
func (c *Class) LookupField(name string) *Field {
	for cl := c; cl != nil; cl = cl.Super {
		for _, f := range cl.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// IsSubclassOf reports whether c equals or derives from other.
func (c *Class) IsSubclassOf(other *Class) bool {
	for cl := c; cl != nil; cl = cl.Super {
		if cl == other {
			return true
		}
	}
	return false
}

func (c *Class) String() string { return c.Name }

// Method is a callable MJ method. Params counts formal parameters; for
// instance methods slot 0 is the receiver ("this") and is included in Params.
// NumLocals is the total number of local slots (params first).
type Method struct {
	Name      string
	Class     *Class
	Static    bool
	Params    int
	NumLocals int
	Returns   *Type // nil for void
	Code      []Instr
	ID        int // dense method index within the Program

	args []int32      // argument slab: calls' and natives' Args windows
	body *BodyBuilder // the body under construction, until Seal

	// LocalNames optionally names local slots for diagnostics; may be short.
	LocalNames []string
}

// QualifiedName returns "Class.method".
func (m *Method) QualifiedName() string { return m.Class.Name + "." + m.Name }

// LocalName returns a human-readable name for local slot i.
func (m *Method) LocalName(i int) string {
	if i < len(m.LocalNames) && m.LocalNames[i] != "" {
		return m.LocalNames[i]
	}
	return fmt.Sprintf("v%d", i)
}

// Program is a sealed, validated IR program ready for interpretation.
type Program struct {
	Classes    []*Class
	Statics    []*StaticField
	Main       *Method  // entry point: a static, zero-argument method
	Instrs     []*Instr // all instructions, indexed by Instr.ID
	AllocSites []*Instr // instructions with Op OpNew or OpNewArray, by AllocSite index

	classByName map[string]*Class
	fieldsByID  []*Field
	NumFields   int // total instance-field declarations (for field ID space)

	// TabCache holds the interpreter's pre-decoded dispatch tables, keyed to
	// this program's lifetime so they are shared across machines and freed
	// with the program. Owned by internal/interp; other packages must not
	// touch it.
	TabCache atomic.Value
}

// ClassByName returns the class with the given name, or nil.
func (p *Program) ClassByName(name string) *Class { return p.classByName[name] }

// NumInstrs returns the number of static instructions in the program — the
// size of domain I in the paper.
func (p *Program) NumInstrs() int { return len(p.Instrs) }

// NumAllocSites returns the number of allocation sites (domain O).
func (p *Program) NumAllocSites() int { return len(p.AllocSites) }

// NumMethods returns the number of declared methods — the size of the dense
// Method.ID space (interpreter dispatch tables are indexed by it).
func (p *Program) NumMethods() int {
	n := 0
	for _, c := range p.Classes {
		n += len(c.Methods)
	}
	return n
}

// FieldByID returns the instance field with the given dense ID.
func (p *Program) FieldByID(id int) *Field { return p.fieldsByID[id] }
