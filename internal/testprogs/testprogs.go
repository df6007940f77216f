// Package testprogs provides small hand-built IR programs that reproduce the
// paper's running examples. They are shared by unit tests, the experiment
// harness, and the documentation examples.
package testprogs

import (
	"fmt"

	"lowutil/internal/ir"
)

// Figure1 is the paper's Figure 1 example, adapted to the IR's granularity:
//
//	a = 0
//	c = f(a)        where int f(int e) { return e >> 2; }
//	d = c * 3
//	b = c + d
//
// Markers identify the instructions whose costs the test inspects.
type Figure1Markers struct {
	Prog *ir.Program
	// BInstr computes b = c + d.
	BInstr *ir.Instr
	// BSlot is the local slot holding b in main.
	BSlot int
	// DistinctCost is the number of instructions in b's backward thin
	// slice (the correct, non-double-counted cost).
	DistinctCost int64
}

// Figure1 builds the example.
func Figure1() *Figure1Markers {
	b := ir.NewBuilder()
	cls := b.Class("Main", nil)

	f := b.Method(cls, "f", true, 1, ir.IntType)
	fb := b.Body(f)
	fb.Const(1, 2)          // two = 2
	fb.Bin(2, ir.Shr, 0, 1) // r = e >> two
	fb.Return(2)

	main := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(main)
	const (
		vA = 0
		vC = 1
		vD = 2
		vB = 3
		vT = 4
	)
	mb.Const(vA, 0)                   // a = 0
	mb.Call(vC, f, vA)                // c = f(a)
	mb.Const(vT, 3)                   // t = 3
	mb.Bin(vD, ir.Mul, vC, vT)        // d = c * t
	bPC := mb.Bin(vB, ir.Add, vC, vD) // b = c + d
	mb.ReturnVoid()

	prog, err := b.Seal("Main", "main")
	if err != nil {
		panic(fmt.Sprintf("testprogs: %v", err))
	}
	// Backward thin slice of b: {b-add, d-mul, const3, call, f-shr, f-const2,
	// const0} = 7 instruction instances, each executed once.
	return &Figure1Markers{
		Prog:         prog,
		BInstr:       &main.Code[bPC],
		BSlot:        vB,
		DistinctCost: 7,
	}
}

// Figure3Markers identifies the pieces of the IntList example of Figure 3:
// objects created at SiteA (the paper's O33) carry an expensively computed
// field t whose value is immediately copied into an int array (the paper's
// O32/O24), and the array elements are never read.
type Figure3Markers struct {
	Prog *ir.Program

	// SiteList, SiteArr, SiteA are the allocation-site indices of the
	// IntList, its int[] backing array, and the A temporaries.
	SiteList int
	SiteArr  int
	SiteA    int

	// FieldT is A.t; FieldData and FieldSize are IntList's fields.
	FieldT, FieldData, FieldSize *ir.Field

	// N is the loop trip count, K the inner (expensive-compute) trip count.
	N, K int64
}

// Figure3 builds the IntList example. n is the outer trip count and k the
// per-iteration computation effort.
func Figure3(n, k int64) *Figure3Markers {
	b := ir.NewBuilder()

	aCls := b.Class("A", nil)
	fieldT := b.Field(aCls, "t", ir.IntType)

	listCls := b.Class("IntList", nil)
	intArr := b.ArrayType(ir.IntType)
	fieldData := b.Field(listCls, "data", intArr)
	fieldSize := b.Field(listCls, "size", ir.IntType)

	// IntList.add(this, v): data[size] = v; size = size + 1
	add := b.Method(listCls, "add", false, 2, nil)
	ab := b.Body(add)
	const (
		aThis = 0
		aV    = 1
		aArr  = 2
		aSz   = 3
		aOne  = 4
	)
	ab.LoadField(aArr, aThis, fieldData)
	ab.LoadField(aSz, aThis, fieldSize)
	ab.AStore(aArr, aSz, aV)
	ab.Const(aOne, 1)
	ab.Bin(aSz, ir.Add, aSz, aOne)
	ab.StoreField(aThis, fieldSize, aSz)
	ab.ReturnVoid()

	mainCls := b.Class("Main", nil)
	main := b.Method(mainCls, "main", true, 0, nil)
	mb := b.Body(main)
	const (
		vList = 0
		vArr  = 1
		vN    = 2
		vI    = 3
		vA    = 4
		vS    = 5
		vK    = 6
		vJ    = 7
		vTmp  = 8
		vOne  = 9
		vZero = 10
		vT    = 11
	)
	mb.Const(vN, n)
	mb.Const(vK, k)
	mb.Const(vOne, 1)
	mb.Const(vZero, 0)
	siteListPC := mb.New(vList, listCls)
	siteArrPC := mb.NewArray(vArr, ir.IntType, vN)
	mb.StoreField(vList, fieldData, vArr)
	mb.StoreField(vList, fieldSize, vZero)
	mb.Move(vI, vZero)
	loopHead := mb.If(vI, ir.Ge, vN, -1) // patched to exit
	siteAPC := mb.New(vA, aCls)
	// s = 0; for j < k: s = s + i*j  (the expensive computation)
	mb.Move(vS, vZero)
	mb.Move(vJ, vZero)
	innerHead := mb.If(vJ, ir.Ge, vK, -1)
	mb.Bin(vTmp, ir.Mul, vI, vJ)
	mb.Bin(vS, ir.Add, vS, vTmp)
	mb.Bin(vJ, ir.Add, vJ, vOne)
	mb.Goto(innerHead)
	innerExit := mb.PC()
	mb.Patch(innerHead, innerExit)
	mb.StoreField(vA, fieldT, vS) // a.t = s
	mb.LoadField(vT, vA, fieldT)  // t = a.t
	mb.Call(-1, add, vList, vT)   // list.add(t)
	mb.Bin(vI, ir.Add, vI, vOne)
	mb.Goto(loopHead)
	exit := mb.PC()
	mb.Patch(loopHead, exit)
	mb.ReturnVoid()

	prog, err := b.Seal("Main", "main")
	if err != nil {
		panic(fmt.Sprintf("testprogs: %v", err))
	}
	return &Figure3Markers{
		Prog:      prog,
		SiteList:  int(main.Code[siteListPC].AllocSite),
		SiteArr:   int(main.Code[siteArrPC].AllocSite),
		SiteA:     int(main.Code[siteAPC].AllocSite),
		FieldT:    fieldT,
		FieldData: fieldData,
		FieldSize: fieldSize,
		N:         n,
		K:         k,
	}
}

// Figure6Markers identifies the eclipse isPackage/directoryList idiom of
// Figure 6: a List is expensively populated and then used only for a
// null/size check.
type Figure6Markers struct {
	Prog     *ir.Program
	SiteList int // the "problematic" ArrayList allocation site
	SiteArr  int
}

// Figure6 builds the idiom: directoryList(n) constructs a list and fills it
// with n expensively computed entries; isPackage calls it and only compares
// the result against null; main calls isPackage m times.
func Figure6(n, m int64) *Figure6Markers {
	b := ir.NewBuilder()

	listCls := b.Class("List", nil)
	intArr := b.ArrayType(ir.IntType)
	fData := b.Field(listCls, "data", intArr)
	fSize := b.Field(listCls, "size", ir.IntType)

	add := b.Method(listCls, "add", false, 2, nil)
	ab := b.Body(add)
	ab.LoadField(2, 0, fData)
	ab.LoadField(3, 0, fSize)
	ab.AStore(2, 3, 1)
	ab.Const(4, 1)
	ab.Bin(3, ir.Add, 3, 4)
	ab.StoreField(0, fSize, 3)
	ab.ReturnVoid()

	cpCls := b.Class("ClasspathDirectory", nil)
	listRef := b.RefType(listCls)

	// directoryList(this, pkg): ret = new List; fill with n entries each
	// requiring real work; return ret.
	dirList := b.Method(cpCls, "directoryList", false, 2, listRef)
	var pcList, pcArr int
	{
		db := b.Body(dirList)
		const (
			dThis = 0
			dPkg  = 1
			dRet  = 2
			dArr  = 3
			dN    = 4
			dI    = 5
			dV    = 6
			dOne  = 7
			dZero = 8
			dT    = 9
		)
		_ = dThis
		pcL := db.New(dRet, listCls) // the problematic allocation
		db.Const(dN, n)
		pcA := db.NewArray(dArr, ir.IntType, dN)
		db.StoreField(dRet, fData, dArr)
		db.Const(dZero, 0)
		db.StoreField(dRet, fSize, dZero)
		db.Const(dOne, 1)
		db.Move(dI, dZero)
		head := db.If(dI, ir.Ge, dN, -1)
		// v = (pkg*31 + i) ^ (i<<3): the "find files" work
		db.Const(dT, 31)
		db.Bin(dV, ir.Mul, dPkg, dT)
		db.Bin(dV, ir.Add, dV, dI)
		db.Const(dT, 3)
		db.Bin(dT, ir.Shl, dI, dT)
		db.Bin(dV, ir.Xor, dV, dT)
		db.Call(-1, add, dRet, dV)
		db.Bin(dI, ir.Add, dI, dOne)
		db.Goto(head)
		db.Patch(head, db.PC())
		db.Return(dRet)
		pcList, pcArr = pcL, pcA
	}

	// isPackage(this, pkg): return directoryList(pkg) != null
	isPkg := b.Method(cpCls, "isPackage", false, 2, ir.BoolType)
	{
		pb := b.Body(isPkg)
		const (
			pThis = 0
			pPkg  = 1
			pL    = 2
			pR    = 3
			pNull = 4
		)
		pb.Call(pL, dirList, pThis, pPkg)
		pb.Null(pNull)
		pb.Const(pR, 1)
		t := pb.If(pL, ir.Ne, pNull, -1)
		pb.Const(pR, 0)
		pb.Patch(t, pb.PC())
		pb.Return(pR)
	}

	mainCls := b.Class("Main", nil)
	main := b.Method(mainCls, "main", true, 0, nil)
	{
		mb := b.Body(main)
		const (
			vCP  = 0
			vM   = 1
			vI   = 2
			vOne = 3
			vR   = 4
		)
		mb.New(vCP, cpCls)
		mb.Const(vM, m)
		mb.Const(vOne, 1)
		mb.Const(vI, 0)
		head := mb.If(vI, ir.Ge, vM, -1)
		mb.Call(vR, isPkg, vCP, vI)
		mb.Native(-1, ir.NativeAssert, vR)
		mb.Bin(vI, ir.Add, vI, vOne)
		mb.Goto(head)
		mb.Patch(head, mb.PC())
		mb.ReturnVoid()
	}

	prog, err := b.Seal("Main", "main")
	if err != nil {
		panic(fmt.Sprintf("testprogs: %v", err))
	}
	return &Figure6Markers{
		Prog:     prog,
		SiteList: int(dirList.Code[pcList].AllocSite),
		SiteArr:  int(dirList.Code[pcArr].AllocSite),
	}
}

// KitchenSink builds a program that executes every opcode at least once —
// including the ones MJ's front end never emits directly (static fields) —
// so tracers can be exercised for full instruction coverage.
func KitchenSink() *ir.Program {
	b := ir.NewBuilder()
	base := b.Class("Base", nil)
	fv := b.Field(base, "v", ir.IntType)
	derived := b.Class("Derived", base)

	holder := b.Class("Holder", nil)
	sCount := b.StaticField(holder, "count", ir.IntType)
	sLast := b.StaticField(holder, "last", b.RefType(base))

	twice := b.Method(base, "twice", false, 1, ir.IntType)
	{
		tb := b.Body(twice)
		tb.LoadField(1, 0, fv)
		tb.Const(2, 2)
		tb.Bin(3, ir.Mul, 1, 2)
		tb.Return(3)
	}

	cls := b.Class("Main", nil)
	m := b.Method(cls, "main", true, 0, nil)
	mb := b.Body(m)
	const (
		vObj, vArr, vI, vTmp, vTmp2, vRes, vNil = 0, 1, 2, 3, 4, 5, 6
	)
	mb.Const(vI, 4)                   // const
	mb.New(vObj, derived)             // new (subclass)
	mb.StoreField(vObj, fv, vI)       // putfield
	mb.LoadField(vTmp, vObj, fv)      // getfield
	mb.Neg(vTmp2, vTmp)               // neg
	mb.Not(vTmp2, vTmp2)              // not (on nonzero -> 0)
	mb.NewArray(vArr, ir.IntType, vI) // newarray
	mb.ArrayLen(vTmp2, vArr)          // arraylen
	mb.Const(vTmp2, 1)
	mb.AStore(vArr, vTmp2, vI)           // astore
	mb.ALoad(vRes, vArr, vTmp2)          // aload
	mb.StoreStatic(sCount, vRes)         // putstatic
	mb.LoadStatic(vTmp, sCount)          // getstatic
	mb.StoreStatic(sLast, vObj)          // putstatic (ref)
	mb.InstanceOf(vTmp2, vObj, base)     // instanceof
	br := mb.If(vTmp2, ir.Ne, vTmp2, -1) // if (never taken: x != x)
	mb.Call(vRes, twice, vObj)           // virtual call
	mb.Patch(br, mb.PC())
	mb.Null(vNil)                  // null const
	mb.Move(vTmp, vRes)            // move
	mb.Bin(vTmp, ir.Div, vTmp, vI) // bin with div
	mb.Bin(vTmp, ir.Rem, vTmp, vI)
	mb.Bin(vTmp, ir.Shl, vTmp, vI)
	mb.Bin(vTmp, ir.Shr, vTmp, vI)
	mb.Bin(vTmp, ir.And, vTmp, vI)
	mb.Bin(vTmp, ir.Or, vTmp, vI)
	mb.Bin(vTmp, ir.Xor, vTmp, vI)
	mb.Bin(vTmp, ir.Sub, vTmp, vI)
	mb.Native(vTmp2, ir.NativeRand, vI) // natives
	mb.Native(vTmp2, ir.NativeTime)
	mb.Native(vTmp2, ir.NativeFloatToBits, vI)
	mb.Native(vTmp2, ir.NativeBitsToFloat, vTmp2)
	mb.Native(vTmp2, ir.NativeHash, vI)
	mb.Native(vTmp2, ir.NativeDBQuery, vI, vTmp)
	mb.Native(-1, ir.NativeAssert, vI)
	mb.Native(-1, ir.NativePrintChar, vI)
	mb.Native(-1, ir.NativePrint, vTmp)
	mb.Goto(mb.PC() + 1) // goto
	mb.ReturnVoid()

	prog, err := b.Seal("Main", "main")
	if err != nil {
		panic(fmt.Sprintf("testprogs: %v", err))
	}
	return prog
}
