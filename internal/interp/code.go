package interp

import (
	"go/ast"
	"go/token"

	"patty/internal/source"
)

// This file defines the bytecode form the VM engine executes: a flat
// op stream per compilation unit (one per function or method, one per
// function literal, plus the package-level initializer), in the style
// of a classic stack machine. The compiler (compile.go) lowers the same
// AST the tree-walker interprets; the VM (vm.go) executes it with
// preallocated stacks and the identical virtual-time cost model, so
// profiles and memory traces are bit-for-bit those of the tree-walker.
//
// Every identifier binds at compile time through the enclosing
// function's deps.Resolution, which the tree-walker binds through too:
// a local variable is one frame slot, the names deps leaves to the
// package level are a global, a program function, an intrinsic or
// undefined. Closures capture Lua-style: a slot that a function literal
// names lives in a heap cell, which the closure value shares with its
// frame.

// OpCode enumerates the VM instructions.
type OpCode uint8

const (
	opInvalid OpCode = iota

	// Stack shuffling. None of these touch the clock or emit events.
	opConst   // A: const index — push Consts[A]
	opDrop    // pop one value
	opDropN   // A: pop A values
	opRes1    // pop one value into the result register
	opExpect1 // exactly one call result required: push it
	opExpectN // A: required result count — check, then push all results

	// Virtual time and statement attribution.
	opTick    // A: advance the virtual clock by A
	opPushRef // A: local stmt id — enter a statement (count + tick 1)
	opPopRefs // A: leave A statements (epilogue or unwind)

	// Control flow.
	opJump     // A: target pc
	opJfalse   // A: target — pop condition (must be bool), jump when false
	opAndShort // A: target — &&: pop bool; when false push false and jump
	opOrShort  // A: target — ||: pop bool; when true push true and jump
	opBool     // the top of stack must be a bool (&&/|| right operand)

	// Variables. Each local variable is one frame slot; each define
	// allocates a fresh traced address, exactly like the tree-walker's
	// defines.
	opLoadName       // A: binding idx — load event + push
	opNameLVGet      // A: binding idx — lvalue get: the variable's load
	opStoreName      // A: binding idx — pop + store event
	opStoreNameAt    // A: binding idx, B: depth of the value from the top
	opDefineSlot     // A: slot — pop, allocate a fresh address, store event
	opDefineSlotAt   // A: slot, B: depth of the value
	opStoreSlotAt    // A: slot, B: depth of the value — := redeclaration
	opDefineCell     // opDefineSlot for a captured slot: fills its heap cell
	opDefineCellAt   // opDefineSlotAt for a captured slot
	opStoreCellAt    // opStoreSlotAt for a captured slot
	opClosure        // A: index into Lits — push a closure over its captured cells
	opDefineGlobal   // A: global index — pop, allocate (no event: init semantics)
	opDefineGlobalAt // A: global index, B: depth of the value — allocate (no event)
	opIntrFuncVal    // A: name idx — fresh *Func for a qualified intrinsic
	opZeroVal        // A: type expr idx — push zero value (allocates for structs)

	// Operators (shared with the tree-walker's binop/truthy helpers).
	opBinop // A: token.Token
	opNeg
	opNot
	opBitNot
	opToInt   // pop, toInt, push
	opToFloat // pop, toFloat, push
	opConvStr // pop, string conversion, push
	opIncDec  // A: +1 / -1 — pop (toInt), adjust, push

	// Indexing, fields, slicing.
	opIndex        // pop index, base → push element (load event)
	opIndexLVCheck // validate base[index] as an assignment target (keeps both)
	opIndexLVGet   // load current value, push it (keeps base, index below)
	opIndexSetAt   // A: depth of the value, B: depth of the base (index at B-1)
	opSelect       // A: name idx — pop base → field (load event) or method value
	opFieldLVCheck // A: name idx — validate assignment target (keeps base)
	opFieldLVGet   // A: name idx — load field, push it (keeps base below)
	opFieldSetAt   // A: name idx, B: depth of the value, C: depth of the base
	opSliceExpr    // A: 1 when low is present, B: 1 when high is present

	// Composite construction (all stack-valued).
	opNewStruct    // A: type name idx, B|C<<32: fields the literal sets — allocate struct, push
	opSetField     // A: field name idx, B: field index — pop value, peek struct, store event
	opMakeSliceLit // A: element count, B: 1 + type index of an array — pop elements, pad an array (arrayLit), allocate, push
	opNewMap       // push an empty map
	opMapLitSet    // pop value, key; peek map; insert + allocate entry address

	// Builtins. B is the argument count; -1 means "the last call's
	// results" (single-call argument fan-out). Results land in the
	// result register like every other call.
	opLen       // pop 1
	opCap       // pop 1
	opAppend    // B: arg count
	opCopy      // B: arg count
	opDelete    // B: arg count — result register emptied
	opMin       // A: 1 for max, 0 for min; B: arg count
	opPrintln   // B: arg count — result register emptied
	opPanic     // B: arg count — always fails
	opMakeSlice // A: 1 when a length argument is present
	opMakeMap   //
	opNewNamed  // A: type name idx — new(T) for declared struct types

	// Calls. Callees are pushed below the arguments; results go to the
	// result register, consumed by opExpect1/opExpectN/opRes-aware ops.
	opLoadCallee    // A: binding idx — a called identifier
	opCheckFunc     // peek: an arbitrary callee expression must be a *Func
	opMethodResolve // A: method name idx — pop base, push bound callee
	opCallValue     // B: arg count (-1: fan-out) — args above the callee
	opCallIntrinsic // A: intrinsic table idx, B: arg count (-1: fan-out)
	opReturnValues  // B: value count popped from the stack
	opReturnRes     // return the last call's results (return f() fan-out)
	opReturnBare    // collect named results (no load events)

	// Loops and target-loop tracing. Loop indices are static nesting
	// depths within the unit.
	opLoopEnter  // A: local stmt id, B: loop index — open the loop's trace, if traced
	opLoopLeave  // A: loop index — close the loop's trace, if traced
	opIterInc    // A: loop index
	opSetTop     // A: loop index, B: top-level stmt id (-1 resets)
	opRangeStart // A: loop index, B: key slot or -1, C: value slot or -1
	opRangeNext  // A: exit target, B: loop index — step or jump out
	opRangeKey   // A: loop index — push the current key
	opRangeVal   // A: loop index — push the current value (a range over an int has none)

	// Switch dispatch: pop the case value, compare to the tag below it;
	// on a match pop the tag too and jump.
	opCaseEq // A: target

	// Lazy failure: constructs the tree-walker rejects at execution
	// time compile to a fail op with the identical message.
	opFail // A: message idx
)

// Op is one VM instruction. Operand meaning depends on Code.
type Op struct {
	Code    OpCode
	A, B, C int32
}

// Binding kinds: what an identifier denotes.
type bindKind uint8

const (
	bindSlot   bindKind = iota
	bindCell            // a captured slot, through its heap cell
	bindUpval           // a cell the running closure captured
	bindGlobal          // a package-level var or const; fails until initialized
	bindFunc
	bindIntrinsic
	bindUndef
)

// binding is the one thing an identifier denotes in a unit.
type binding struct {
	kind bindKind
	idx  int32 // slot / cell / global / unit / intrinsic index
	name string
}

// variable reports whether b can hold a value: functions, intrinsics
// and undefined names cannot be assigned.
func (b binding) variable() bool { return b.kind <= bindGlobal }

// Code is one compiled unit: a function, a method, or the
// package-level variable initializer.
type Code struct {
	Name string           // diagnostic name ("F", "T.M", "closure", "init")
	fn   *source.Function // statement-id context; nil for the initializer

	Ops    []Op
	Consts []Value
	Names  []string
	Msgs   []string
	Types  []ast.Expr // opZeroVal / named-result zero values
	Res    []binding  // identifier bindings

	NumSlots  int
	NumLoops  int      // concurrently live loops (static nesting depth)
	SlotNames []string // per slot, for disassembly

	// Frame setup plan, replicating callFunction's allocation order.
	recvSlots   []int32
	paramSlots  []int32
	resultSlots []int32
	resultTypes []int32 // indices into Types, aligned with resultSlots
	boxedFrame  []int32 // frame slots a closure captures

	Lits     []*Code   // closures this unit creates, by opClosure A
	captures []capture // for a closure: where each of its cells comes from

	refBase int // program-wide ref id = refBase + local stmt id
}

func (c *Code) constIdx(v Value) int32 {
	c.Consts = append(c.Consts, v)
	return int32(len(c.Consts) - 1)
}

func (c *Code) nameIdx(s string) int32 {
	for i, n := range c.Names {
		if n == s {
			return int32(i)
		}
	}
	c.Names = append(c.Names, s)
	return int32(len(c.Names) - 1)
}

func (c *Code) msgIdx(s string) int32 {
	for i, m := range c.Msgs {
		if m == s {
			return int32(i)
		}
	}
	c.Msgs = append(c.Msgs, s)
	return int32(len(c.Msgs) - 1)
}

func (c *Code) typeIdx(t ast.Expr) int32 {
	c.Types = append(c.Types, t)
	return int32(len(c.Types) - 1)
}

func (c *Code) resIdx(b binding) int32 {
	c.Res = append(c.Res, b)
	return int32(len(c.Res) - 1)
}

// vmCompiled is the whole program in bytecode form, cached on the
// Machine after the first compile.
type vmCompiled struct {
	initCode *Code
	units    []*Code // program functions, in Functions() order
	byName   map[string]*Code

	globalNames []string

	intrinsics []*Intrinsic // opCallIntrinsic table

	refs []Ref // dense ref table; refBase+stmt indexes into it
}

// calleeFunc is an internal callee produced by opLoadCallee and
// opMethodResolve; it never escapes the value stack.
type calleeFunc struct {
	code *Code
	recv Value
}

// calleeIntr wraps an intrinsic callee resolved from an identifier.
type calleeIntr struct{ in *Intrinsic }

// Range iterator kinds.
const (
	rangeSlice = iota
	rangeMap
	rangeString
	rangeInt
	rangeEmpty
)

// rangeIter is the runtime state of one range-loop activation.
type rangeIter struct {
	kind  int
	s     *Slice
	mp    *Map
	keys  []Value
	runes []strIdx
	n     int64
	i     int
	curK  Value
	curV  Value
}

type strIdx struct {
	i int64
	r int64
}

// compoundOp maps an op= token to the underlying operator, mirroring
// execAssign's switch.
func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	case token.AND_ASSIGN:
		return token.AND, true
	case token.OR_ASSIGN:
		return token.OR, true
	case token.XOR_ASSIGN:
		return token.XOR, true
	case token.SHL_ASSIGN:
		return token.SHL, true
	case token.SHR_ASSIGN:
		return token.SHR, true
	}
	return token.ILLEGAL, false
}
