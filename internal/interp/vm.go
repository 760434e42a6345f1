package interp

import (
	"go/ast"
	"go/token"
	"strings"

	"patty/internal/source"
)

// The bytecode VM. It executes the op stream produced by compile.go
// with preallocated value/slot/loop arenas, reusing the Machine's
// clock, budget and memory-trace plumbing so that virtual time,
// per-statement profile and load/store trace are bit-for-bit identical
// to the tree-walker. The tree-walker remains the differential oracle
// (internal/difftest exercises both engines over the generator space).

// slotCell is one variable cell: a frame slot, a global, or the heap
// cell of a captured slot (held in the slot's val). Addresses start at
// 1, so a global whose cell has none is not initialized yet.
type slotCell struct {
	val  Value
	addr uint64
}

// loopState is the per-activation state of one loop (indexed by static
// nesting depth within the unit).
type loopState struct {
	trace *loopTrace // this activation's trace state; nil when untraced
	rng   rangeIter
}

// vmClosure is a closure the VM created: its unit and captured cells.
type vmClosure struct {
	code  *Code
	cells []*slotCell
}

func (*vmClosure) isDecl() {}

// vmState is the reusable execution state of the bytecode engine; it
// lives on the Machine so repeated runs reuse the arenas.
type vmState struct {
	m   *Machine
	vmc *vmCompiled

	stk   []Value    // shared value stack
	slots []slotCell // frame-slot arena
	loops []loopState

	res  []Value  // result register of the last call
	res1 [1]Value // allocation-free backing for single results

	gSlots []slotCell // globals, indexed like vmc.globalNames

	// Per-statement profiling over the dense ref table. pend batches
	// ticks between ref-stack changes; flushing on every push/pop keeps
	// attribution identical to the tree-walker's per-tick bookkeeping
	// because no observable event separates merged ticks.
	count    []uint64
	self     []uint64
	incl     []uint64
	occurs   []uint32 // per ref: live occurrences on refStack
	distinct []int32  // refs with occurs > 0, in first-push order
	refStack []int32
	pend     uint64

	// traceOf maps each dense ref id to its trace state in this run
	// (nil when the statement is not a traced loop).
	traceOf []*loopTrace
}

func newVMState(m *Machine, vmc *vmCompiled) *vmState {
	n := len(vmc.refs)
	return &vmState{
		m:       m,
		vmc:     vmc,
		gSlots:  make([]slotCell, len(vmc.globalNames)),
		count:   make([]uint64, n),
		self:    make([]uint64, n),
		incl:    make([]uint64, n),
		occurs:  make([]uint32, n),
		traceOf: make([]*loopTrace, n),
	}
}

// reset clears all run state, including anything a panicked previous
// run may have left behind.
func (vm *vmState) reset() {
	vm.stk = clearValues(vm.stk)
	vm.slots = vm.slots[:cap(vm.slots)]
	for i := range vm.slots {
		vm.slots[i] = slotCell{}
	}
	vm.slots = vm.slots[:0]
	vm.loops = vm.loops[:cap(vm.loops)]
	for i := range vm.loops {
		vm.loops[i] = loopState{}
	}
	vm.loops = vm.loops[:0]
	vm.res = nil
	vm.res1[0] = nil
	for i := range vm.gSlots {
		vm.gSlots[i] = slotCell{}
	}
	for i := range vm.count {
		vm.count[i] = 0
		vm.self[i] = 0
		vm.incl[i] = 0
		vm.occurs[i] = 0
	}
	vm.distinct = vm.distinct[:0]
	vm.refStack = vm.refStack[:0]
	vm.pend = 0
	clear(vm.traceOf)
}

// resolveTraces points each traced loop's dense ref id at its trace
// state, once per run, so loop entry needs no name lookup.
func (vm *vmState) resolveTraces() {
	for i := range vm.m.traces {
		lt := &vm.m.traces[i]
		code := vm.vmc.byName[lt.ref.Fn]
		if code == nil || lt.ref.Stmt < 0 || lt.ref.Stmt >= code.fn.NumStmts() {
			continue
		}
		vm.traceOf[code.refBase+lt.ref.Stmt] = lt
	}
}

func clearValues(s []Value) []Value {
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
	return s[:0]
}

// runVM executes fnName on the bytecode engine. The Machine-level run
// state is initialized exactly as in runTree; m.stack stays empty so
// m.tick skips its per-ref attribution (the VM keeps its own dense
// counters) while still advancing the clock and checking the budget.
func (m *Machine) runVM(vmc *vmCompiled, fnName string, args []Value, opts Options) (results []Value, prof *Profile, err error) {
	m.clock = 0
	m.maxTicks = opts.MaxTicks
	if m.maxTicks == 0 {
		m.maxTicks = 200_000_000
	}
	m.output = opts.Output
	m.prof = &Profile{}
	m.beginTrace(opts.TargetLoop)
	m.stack = m.stack[:0]

	vm := m.vm
	if vm == nil || vm.vmc != vmc {
		vm = newVMState(m, vmc)
		m.vm = vm
	}
	vm.reset()
	vm.resolveTraces()

	savedDepth := m.depth
	defer func() {
		if r := recover(); r != nil {
			m.depth = savedDepth
			if re, ok := r.(*RuntimeError); ok {
				results, prof, err = nil, nil, re
				return
			}
			panic(r)
		}
	}()

	vm.runUnit(vmc.initCode, nil, nil, nil, true)
	ret := vm.runUnit(vmc.byName[fnName], nil, nil, args, false)

	vm.flushPend()
	m.prof.Total = m.clock
	m.prof.Incl, m.prof.Self, m.prof.Count = vm.profileMaps()
	return ret, m.prof, nil
}

// profileMaps converts the dense counters to the tree-walker's map
// form. Every executed statement has count ≥ 1, and its entry push
// ticks at least once, so the three key sets coincide exactly as they
// do in the tree-walker.
func (vm *vmState) profileMaps() (incl, self, count map[Ref]uint64) {
	n := 0
	for _, c := range vm.count {
		if c > 0 {
			n++
		}
	}
	incl = make(map[Ref]uint64, n)
	self = make(map[Ref]uint64, n)
	count = make(map[Ref]uint64, n)
	for i, c := range vm.count {
		if c == 0 {
			continue
		}
		r := vm.vmc.refs[i]
		count[r] = c
		self[r] = vm.self[i]
		incl[r] = vm.incl[i]
	}
	return incl, self, count
}

// tick/load/store wrap the Machine's clock and trace plumbing, also
// accumulating the pending self/incl attribution.
func (vm *vmState) tick(cost uint64) {
	vm.m.tick(cost)
	vm.pend += cost
}

func (vm *vmState) load(addr uint64) {
	vm.m.load(addr)
	vm.pend++
}

func (vm *vmState) store(addr uint64) {
	vm.m.store(addr)
	vm.pend++
}

func (vm *vmState) flushPend() {
	if vm.pend == 0 {
		return
	}
	if n := len(vm.refStack); n > 0 {
		vm.self[vm.refStack[n-1]] += vm.pend
		for _, id := range vm.distinct {
			vm.incl[id] += vm.pend
		}
	}
	vm.pend = 0
}

func (vm *vmState) pushRef(id int32) {
	vm.flushPend()
	vm.count[id]++
	vm.refStack = append(vm.refStack, id)
	vm.occurs[id]++
	if vm.occurs[id] == 1 {
		vm.distinct = append(vm.distinct, id)
	}
	vm.tick(1) // statement entry, as in execStmt
}

func (vm *vmState) popRefs(n int32) {
	vm.flushPend()
	for ; n > 0; n-- {
		top := vm.refStack[len(vm.refStack)-1]
		vm.refStack = vm.refStack[:len(vm.refStack)-1]
		vm.occurs[top]--
		if vm.occurs[top] == 0 {
			// A ref's first occurrence is its deepest, so the zeroed
			// ref is always the most recently added distinct entry.
			vm.distinct = vm.distinct[:len(vm.distinct)-1]
		}
	}
}

func (vm *vmState) push(v Value) { vm.stk = append(vm.stk, v) }

func (vm *vmState) pop() Value {
	v := vm.stk[len(vm.stk)-1]
	vm.stk = vm.stk[:len(vm.stk)-1]
	return v
}

// callArgs yields the argument list for a call-like op: the top n stack
// values, or the last call's results when n is -1 (fan-out). The
// returned slice may alias the stack or the result register; callees
// consume it before pushing anything.
func (vm *vmState) callArgs(n int32) []Value {
	if n < 0 {
		return vm.res
	}
	if n == 0 {
		return nil
	}
	return vm.stk[len(vm.stk)-int(n):]
}

// dropCallArgs truncates fan-in arguments after the call consumed them.
func (vm *vmState) dropCallArgs(n int32) {
	if n > 0 {
		vm.stk = vm.stk[:len(vm.stk)-int(n)]
	}
}

func (vm *vmState) setRes1(v Value) {
	vm.res1[0] = v
	vm.res = vm.res1[:1]
}

// variable returns the cell b denotes, or nil when b is no variable or
// an uninitialized global.
func (vm *vmState) variable(b *binding, sbase int, cells []*slotCell) *slotCell {
	switch b.kind {
	case bindSlot:
		return &vm.slots[sbase+int(b.idx)]
	case bindCell:
		return vm.cell(sbase + int(b.idx))
	case bindUpval:
		return cells[b.idx]
	case bindGlobal:
		if c := &vm.gSlots[b.idx]; c.addr != 0 {
			return c
		}
	}
	return nil
}

// loadName evaluates an identifier in value position: a variable (with
// load event), a program function, an intrinsic function value, or
// failure — the compiled image of evalIdent.
func (vm *vmState) loadName(b *binding, sbase int, cells []*slotCell) Value {
	if c := vm.variable(b, sbase, cells); c != nil {
		vm.load(c.addr)
		return c.val
	}
	switch b.kind {
	case bindFunc:
		u := vm.vmc.units[b.idx]
		return &Func{Name: b.name, decl: funcDecl{u.fn.Decl}}
	case bindIntrinsic:
		return &Func{Name: vm.vmc.intrinsics[b.idx].Name}
	}
	fail("undefined identifier %q", b.name)
	return nil
}

// storeTarget returns the cell an identifier in assignment position
// denotes; functions and intrinsics are not cells.
func (vm *vmState) storeTarget(b *binding, sbase int, cells []*slotCell) *slotCell {
	c := vm.variable(b, sbase, cells)
	if c == nil {
		fail("assignment to undefined variable %q", b.name)
	}
	return c
}

// resolveCallee evaluates a called identifier: the compiled image of
// evalCallMulti's plain-ident dispatch, including the "value is not a
// function" check firing before the load event.
func (vm *vmState) resolveCallee(b *binding, sbase int, cells []*slotCell) Value {
	if c := vm.variable(b, sbase, cells); c != nil {
		f, ok := c.val.(*Func)
		if !ok {
			fail("%q is not a function", b.name)
		}
		vm.load(c.addr)
		return f
	}
	switch b.kind {
	case bindFunc:
		return calleeFunc{code: vm.vmc.units[b.idx]}
	case bindIntrinsic:
		return calleeIntr{in: vm.vmc.intrinsics[b.idx]}
	}
	fail("undefined function %q", b.name)
	return nil
}

// cell returns the heap cell of the captured slot i, nil before the
// slot's declaration has run.
func (vm *vmState) cell(i int) *slotCell {
	c, _ := vm.slots[i].val.(*slotCell)
	return c
}

// newCell gives the captured slot i a fresh heap cell: each execution
// of a declaration makes a new variable, which the closures created
// after it share.
func (vm *vmState) newCell(i int) *slotCell {
	c := &slotCell{}
	vm.slots[i].val = c
	return c
}

// callValue invokes a resolved callee. Intrinsic results go through the
// result register without allocation.
func (vm *vmState) callValue(callee Value, args []Value) []Value {
	m := vm.m
	switch c := callee.(type) {
	case calleeFunc:
		return vm.runUnit(c.code, c.recv, nil, args, false)
	case calleeIntr:
		vm.tick(c.in.Cost)
		vm.setRes1(c.in.Fn(args))
		return vm.res
	case *Func:
		switch d := c.decl.(type) {
		case *vmClosure:
			return vm.runUnit(d.code, nil, d.cells, args, false)
		case funcDecl:
			pf := m.prog.Func(source.FuncName(d.d))
			if pf == nil {
				fail("dangling function value %s", c.Name)
			}
			return vm.runUnit(vm.vmc.byName[pf.Name], c.recv, nil, args, false)
		default:
			if in, ok := m.intrinsics[c.Name]; ok {
				vm.tick(in.Cost)
				vm.setRes1(in.Fn(args))
				return vm.res
			}
			fail("cannot call %s", c.Name)
			return nil
		}
	default:
		fail("cannot call %s", formatValue(callee))
		return nil
	}
}

// runUnit executes one compiled unit to completion and returns its
// results. Program-level calls recurse through the Go stack, bounded by
// the interpreter's own 4096-frame guard. cells are a closure's
// captured cells. isInit marks the package initializer, which runs
// without call overhead or a depth frame (initGlobals is not a call in
// the tree-walker).
func (vm *vmState) runUnit(code *Code, recv Value, cells []*slotCell, args []Value, isInit bool) []Value {
	m := vm.m

	sbase := len(vm.slots)
	for i := 0; i < code.NumSlots; i++ {
		vm.slots = append(vm.slots, slotCell{})
	}
	lbase := len(vm.loops)
	for i := 0; i < code.NumLoops; i++ {
		vm.loops = append(vm.loops, loopState{})
	}
	vbase := len(vm.stk)

	// Frame setup replays call's allocation order: receiver,
	// parameters, then named results (cell address before zero value).
	for _, si := range code.recvSlots {
		vm.slots[sbase+int(si)] = slotCell{val: recv, addr: m.alloc(1)}
	}
	idx := 0
	for _, si := range code.paramSlots {
		if idx >= len(args) {
			fail("too few arguments calling %s", code.Name)
		}
		vm.slots[sbase+int(si)] = slotCell{val: args[idx], addr: m.alloc(1)}
		idx++
	}
	if !isInit && idx != len(args) {
		fail("argument count mismatch calling %s: have %d, want %d", code.Name, len(args), idx)
	}
	for i, si := range code.resultSlots {
		a := m.alloc(1)
		vm.slots[sbase+int(si)] = slotCell{val: m.zeroValueFor(code.Types[code.resultTypes[i]]), addr: a}
	}
	for _, si := range code.boxedFrame {
		c := vm.slots[sbase+int(si)]
		vm.slots[sbase+int(si)] = slotCell{val: &c}
	}
	if !isInit {
		m.depth++
		if m.depth > 4096 {
			fail("call depth exceeds 4096 (runaway recursion in %s?)", code.Name)
		}
		vm.tick(5) // call overhead
	}

	ops := code.Ops
	pc := 0
	var rets []Value

loop:
	for {
		op := ops[pc]
		pc++
		switch op.Code {
		case opConst:
			vm.push(code.Consts[op.A])
		case opDrop:
			vm.stk = vm.stk[:len(vm.stk)-1]
		case opDropN:
			vm.stk = vm.stk[:len(vm.stk)-int(op.A)]
		case opRes1:
			vm.setRes1(vm.pop())
		case opExpect1:
			if len(vm.res) != 1 {
				fail("expression yields %d values where one is required", len(vm.res))
			}
			vm.push(vm.res[0])
		case opExpectN:
			if len(vm.res) != int(op.A) {
				fail("assignment mismatch: %d values, %d targets", len(vm.res), int(op.A))
			}
			vm.stk = append(vm.stk, vm.res...)

		case opTick:
			vm.tick(uint64(op.A))
		case opPushRef:
			vm.pushRef(int32(code.refBase) + op.A)
		case opPopRefs:
			vm.popRefs(op.A)

		case opJump:
			pc = int(op.A)
		case opJfalse:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if !b {
				pc = int(op.A)
			}
		case opAndShort:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if !b {
				vm.push(false)
				pc = int(op.A)
			}
		case opOrShort:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if b {
				vm.push(true)
				pc = int(op.A)
			}
		case opBool:
			b, err := truthy(vm.stk[len(vm.stk)-1])
			if err != nil {
				fail("%v", err)
			}
			vm.stk[len(vm.stk)-1] = b

		case opLoadName:
			vm.push(vm.loadName(&code.Res[op.A], sbase, cells))
		case opNameLVGet:
			c := vm.storeTarget(&code.Res[op.A], sbase, cells)
			vm.load(c.addr)
			vm.push(c.val)
		case opStoreName:
			vm.assign(vm.storeTarget(&code.Res[op.A], sbase, cells), vm.pop())
		case opStoreNameAt:
			vm.assign(vm.storeTarget(&code.Res[op.A], sbase, cells), vm.stk[len(vm.stk)-1-int(op.B)])
		case opDefineSlot:
			vm.define(&vm.slots[sbase+int(op.A)], vm.pop())
		case opDefineSlotAt:
			vm.define(&vm.slots[sbase+int(op.A)], vm.stk[len(vm.stk)-1-int(op.B)])
		case opStoreSlotAt:
			vm.assign(&vm.slots[sbase+int(op.A)], vm.stk[len(vm.stk)-1-int(op.B)])
		case opDefineCell:
			vm.define(vm.newCell(sbase+int(op.A)), vm.pop())
		case opDefineCellAt:
			vm.define(vm.newCell(sbase+int(op.A)), vm.stk[len(vm.stk)-1-int(op.B)])
		case opStoreCellAt:
			vm.assign(vm.cell(sbase+int(op.A)), vm.stk[len(vm.stk)-1-int(op.B)])
		case opClosure:
			lit := code.Lits[op.A]
			clo := &vmClosure{code: lit, cells: make([]*slotCell, len(lit.captures))}
			for i, c := range lit.captures {
				if c.upval {
					clo.cells[i] = cells[c.idx]
				} else {
					clo.cells[i] = vm.cell(sbase + int(c.idx))
				}
			}
			vm.push(&Func{Name: lit.Name, decl: clo})
		case opDefineGlobal:
			v := vm.pop()
			vm.gSlots[op.A] = slotCell{val: v, addr: m.alloc(1)}
		case opIntrFuncVal:
			vm.push(&Func{Name: code.Names[op.A]})
		case opZeroVal:
			vm.push(m.zeroValueFor(code.Types[op.A]))

		case opBinop:
			b := vm.pop()
			a := vm.pop()
			vm.push(m.binop(token.Token(op.A), a, b))
		case opNeg:
			switch x := vm.stk[len(vm.stk)-1].(type) {
			case int64:
				vm.stk[len(vm.stk)-1] = -x
			case float64:
				vm.stk[len(vm.stk)-1] = -x
			default:
				fail("cannot negate %s", formatValue(x))
			}
		case opNot:
			b, err := truthy(vm.stk[len(vm.stk)-1])
			if err != nil {
				fail("%v", err)
			}
			vm.stk[len(vm.stk)-1] = !b
		case opBitNot:
			vm.stk[len(vm.stk)-1] = ^toInt(vm.stk[len(vm.stk)-1])
		case opToInt:
			vm.stk[len(vm.stk)-1] = toInt(vm.stk[len(vm.stk)-1])
		case opToFloat:
			vm.stk[len(vm.stk)-1] = toFloat(vm.stk[len(vm.stk)-1])
		case opConvStr:
			vm.stk[len(vm.stk)-1] = toString(vm.stk[len(vm.stk)-1])
		case opIncDec:
			vm.stk[len(vm.stk)-1] = toInt(vm.stk[len(vm.stk)-1]) + int64(op.A)

		case opIndex:
			idx := vm.pop()
			base := vm.pop()
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b.Elems) {
					fail("slice index %d out of range [0:%d)", i, len(b.Elems))
				}
				vm.load(b.base + uint64(i))
				vm.push(b.Elems[i])
			case *Map:
				if b.M == nil {
					vm.push(nil)
					break
				}
				if a, ok := b.addrs[idx]; ok {
					vm.load(a)
				}
				v, ok := b.M[idx]
				if !ok {
					v = mapZero(v)
				}
				vm.push(v)
			case string:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b) {
					fail("string index out of range")
				}
				vm.push(int64(b[i]))
			case nil:
				fail("index of nil value")
			default:
				fail("cannot index %s", formatValue(base))
			}
		case opIndexLVCheck:
			idx := vm.stk[len(vm.stk)-1]
			base := vm.stk[len(vm.stk)-2]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b.Elems) {
					fail("slice index %d out of range [0:%d)", i, len(b.Elems))
				}
			case *Map:
				if b.M == nil {
					fail("assignment to entry of nil map")
				}
			default:
				fail("cannot index-assign %s", formatValue(base))
			}
		case opIndexLVGet:
			idx := vm.stk[len(vm.stk)-1]
			base := vm.stk[len(vm.stk)-2]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				vm.load(b.base + uint64(i))
				vm.push(b.Elems[i])
			case *Map:
				if a, ok := b.addrs[idx]; ok {
					vm.load(a)
				}
				v, ok := b.M[idx]
				if !ok {
					v = mapZero(nil)
				}
				vm.push(v)
			}
		case opIndexSetAt:
			v := vm.stk[len(vm.stk)-1-int(op.A)]
			base := vm.stk[len(vm.stk)-1-int(op.B)]
			idx := vm.stk[len(vm.stk)-int(op.B)]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				b.Elems[i] = v
				vm.store(b.base + uint64(i))
			case *Map:
				if _, ok := b.addrs[idx]; !ok {
					b.addrs[idx] = m.alloc(1)
				}
				b.M[idx] = v
				vm.store(b.addrs[idx])
			}
		case opSelect:
			name := code.Names[op.A]
			base := vm.pop()
			st, ok := base.(*Struct)
			if !ok {
				fail("cannot select %s from %s", name, formatValue(base))
			}
			if i, ok := st.typ.index[name]; ok {
				vm.load(st.base + uint64(i))
				vm.push(st.fields[i])
				break
			}
			if mf := m.prog.Func(st.Type + "." + name); mf != nil {
				vm.push(&Func{Name: mf.Name, decl: funcDecl{mf.Decl}, recv: st})
				break
			}
			fail("type %s has no field or method %s", st.Type, name)
		case opFieldLVCheck:
			name := code.Names[op.A]
			st, ok := vm.stk[len(vm.stk)-1].(*Struct)
			if !ok {
				fail("cannot assign field %s of %s", name, formatValue(vm.stk[len(vm.stk)-1]))
			}
			if _, ok := st.typ.index[name]; !ok {
				fail("type %s has no field %s", st.Type, name)
			}
		case opFieldLVGet:
			st := vm.stk[len(vm.stk)-1].(*Struct)
			i := st.typ.index[code.Names[op.A]]
			vm.load(st.base + uint64(i))
			vm.push(st.fields[i])
		case opFieldSetAt:
			st := vm.stk[len(vm.stk)-1-int(op.C)].(*Struct)
			i := st.typ.index[code.Names[op.A]]
			st.fields[i] = vm.stk[len(vm.stk)-1-int(op.B)]
			vm.store(st.base + uint64(i))
		case opSliceExpr:
			var lo, hi int64 = 0, -1
			if op.B == 1 {
				hi = vm.pop().(int64)
			}
			if op.A == 1 {
				lo = vm.pop().(int64)
			}
			base := vm.pop()
			switch b := base.(type) {
			case *Slice:
				if hi < 0 {
					hi = int64(len(b.Elems))
				}
				if lo < 0 || hi > int64(len(b.Elems)) || lo > hi {
					fail("slice bounds out of range [%d:%d] with length %d", lo, hi, len(b.Elems))
				}
				vm.push(&Slice{Elems: b.Elems[lo:hi], base: b.base + uint64(lo)})
			case string:
				if hi < 0 {
					hi = int64(len(b))
				}
				if lo < 0 || hi > int64(len(b)) || lo > hi {
					fail("string bounds out of range")
				}
				vm.push(b[lo:hi])
			default:
				fail("cannot slice %s", formatValue(base))
			}

		case opNewStruct:
			name := code.Names[op.A]
			vm.push(m.newStruct(m.structTypes[name], uint64(uint32(op.B))|uint64(uint32(op.C))<<32))
		case opSetField:
			v := vm.pop()
			st := vm.stk[len(vm.stk)-1].(*Struct)
			st.fields[op.B] = v
			vm.store(st.base + uint64(op.B))
		case opMakeSliceLit:
			n := int(op.A)
			elems := make([]Value, n)
			copy(elems, vm.stk[len(vm.stk)-n:])
			vm.stk = vm.stk[:len(vm.stk)-n]
			if op.B > 0 {
				elems = m.arrayLit(code.Types[op.B-1].(*ast.ArrayType), elems)
			}
			vm.push(&Slice{Elems: elems, base: m.alloc(len(elems) + 1)})
		case opNewMap:
			vm.push(&Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)})
		case opMapLitSet:
			v := vm.pop()
			k := vm.pop()
			mp := vm.stk[len(vm.stk)-1].(*Map)
			mp.M[k] = v
			mp.addrs[k] = m.alloc(1)

		case opLen:
			vm.setRes1(lenOf(vm.pop()))
		case opCap:
			vm.setRes1(capOf(vm.pop()))
		case opAppend:
			ns := m.appendSlice(vm.callArgs(op.B))
			for i := range ns.Elems {
				vm.store(ns.base + uint64(i))
			}
			vm.dropCallArgs(op.B)
			vm.setRes1(ns)
		case opCopy:
			dst, n := copySlices(vm.callArgs(op.B))
			for i := 0; i < n; i++ {
				vm.store(dst.base + uint64(i))
			}
			vm.dropCallArgs(op.B)
			vm.setRes1(int64(n))
		case opDelete:
			deleteEntry(vm.callArgs(op.B))
			vm.dropCallArgs(op.B)
			vm.res = nil
		case opMin:
			best := minMax(op.A == 1, vm.callArgs(op.B))
			vm.dropCallArgs(op.B)
			vm.setRes1(best)
		case opPrintln:
			m.println(vm.callArgs(op.B))
			vm.tick(10)
			vm.dropCallArgs(op.B)
			vm.res = nil
		case opPanic:
			programPanic(vm.callArgs(op.B))
		case opMakeSlice:
			var n int64
			if op.A == 1 {
				n = vm.pop().(int64)
			}
			vm.setRes1(m.makeSlice(n))
		case opMakeMap:
			vm.setRes1(&Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)})
		case opNewNamed:
			name := code.Names[op.A]
			vm.setRes1(m.newStruct(m.structTypes[name], 0))

		case opLoadCallee:
			vm.push(vm.resolveCallee(&code.Res[op.A], sbase, cells))
		case opCheckFunc:
			if _, ok := vm.stk[len(vm.stk)-1].(*Func); !ok {
				fail("cannot call %s", formatValue(vm.stk[len(vm.stk)-1]))
			}
		case opMethodResolve:
			name := code.Names[op.A]
			base := vm.pop()
			st, ok := base.(*Struct)
			if !ok {
				fail("cannot call method %s on %s", name, formatValue(base))
			}
			if mf := m.prog.Func(st.Type + "." + name); mf != nil {
				vm.push(calleeFunc{code: vm.vmc.byName[mf.Name], recv: st})
				break
			}
			if fv, ok := st.Get(name); ok {
				if f, ok := fv.(*Func); ok {
					vm.push(f)
					break
				}
			}
			fail("type %s has no method %s", st.Type, name)
		case opCallValue:
			args := vm.callArgs(op.B)
			var callee Value
			if op.B >= 0 {
				callee = vm.stk[len(vm.stk)-1-int(op.B)]
			} else {
				callee = vm.stk[len(vm.stk)-1]
			}
			rets := vm.callValue(callee, args)
			if op.B >= 0 {
				vm.stk = vm.stk[:len(vm.stk)-1-int(op.B)]
			} else {
				vm.stk = vm.stk[:len(vm.stk)-1]
			}
			vm.res = rets
		case opCallIntrinsic:
			args := vm.callArgs(op.B)
			in := vm.vmc.intrinsics[op.A]
			vm.tick(in.Cost)
			v := in.Fn(args)
			vm.dropCallArgs(op.B)
			vm.setRes1(v)
		case opReturnValues:
			n := int(op.B)
			rets = make([]Value, n)
			copy(rets, vm.stk[len(vm.stk)-n:])
			break loop
		case opReturnRes:
			rets = vm.res
			break loop
		case opReturnBare:
			if n := len(code.resultSlots); n > 0 {
				rets = make([]Value, n)
				for i, si := range code.resultSlots {
					rets[i] = vm.slots[sbase+int(si)].val
					if c, ok := rets[i].(*slotCell); ok {
						rets[i] = c.val // a captured named result
					}
				}
			}
			break loop

		case opLoopEnter:
			ls := &vm.loops[lbase+int(op.B)]
			ls.trace = vm.traceOf[code.refBase+int(op.A)]
			if ls.trace != nil {
				m.openTrace(ls.trace)
			}
		case opLoopLeave:
			if lt := vm.loops[lbase+int(op.A)].trace; lt != nil {
				m.closeTrace(lt)
			}
		case opIterInc:
			if lt := vm.loops[lbase+int(op.A)].trace; lt != nil && lt.depth == 1 {
				lt.iter++
			}
		case opSetTop:
			if lt := vm.loops[lbase+int(op.A)].trace; lt != nil && lt.depth == 1 {
				lt.top = int(op.B)
			}
		case opRangeStart:
			ls := &vm.loops[lbase+int(op.A)]
			x := vm.pop()
			ls.rng = rangeIter{}
			switch xs := x.(type) {
			case *Slice:
				ls.rng.kind = rangeSlice
				ls.rng.s = xs
			case *Map:
				ls.rng.kind = rangeMap
				ls.rng.mp = xs
				ls.rng.keys = xs.sortedKeys()
			case string:
				runes := make([]strIdx, 0, len(xs))
				for i, r := range xs {
					runes = append(runes, strIdx{i: int64(i), r: int64(r)})
				}
				ls.rng.kind = rangeString
				ls.rng.runes = runes
			case int64:
				ls.rng.kind = rangeInt
				ls.rng.n = xs
			case nil:
				ls.rng.kind = rangeEmpty
			default:
				fail("cannot range over %s", formatValue(x))
			}
		case opRangeNext:
			rng := &vm.loops[lbase+int(op.B)].rng
			switch rng.kind {
			case rangeSlice:
				if rng.i >= len(rng.s.Elems) {
					pc = int(op.A)
					break
				}
				vm.load(rng.s.base + uint64(rng.i))
				rng.curK = int64(rng.i)
				rng.curV = rng.s.Elems[rng.i]
				rng.i++
			case rangeMap:
				for rng.i < len(rng.keys) {
					if _, ok := rng.mp.M[rng.keys[rng.i]]; ok {
						break
					}
					rng.i++ // deleted during the loop: Go never visits it
				}
				if rng.i >= len(rng.keys) {
					pc = int(op.A)
					break
				}
				k := rng.keys[rng.i]
				if a, ok := rng.mp.addrs[k]; ok {
					vm.load(a)
				}
				rng.curK = k
				rng.curV = rng.mp.M[k]
				rng.i++
			case rangeString:
				if rng.i >= len(rng.runes) {
					pc = int(op.A)
					break
				}
				rng.curK = rng.runes[rng.i].i
				rng.curV = rng.runes[rng.i].r
				rng.i++
			case rangeInt:
				if int64(rng.i) >= rng.n {
					pc = int(op.A)
					break
				}
				rng.curK = int64(rng.i)
				rng.curV = nil
				rng.i++
			default: // rangeEmpty
				pc = int(op.A)
			}
		case opRangeKey:
			vm.push(vm.loops[lbase+int(op.A)].rng.curK)
		case opRangeVal:
			rng := &vm.loops[lbase+int(op.A)].rng
			if rng.kind == rangeInt {
				fail(errRangeIntValue)
			}
			vm.push(rng.curV)

		case opCaseEq:
			v := vm.pop()
			tag := vm.stk[len(vm.stk)-1]
			if equalValues(tag, v) {
				vm.stk = vm.stk[:len(vm.stk)-1]
				pc = int(op.A)
			}

		case opFail:
			fail("%s", code.Msgs[op.A])

		default:
			fail("vm: invalid opcode %d at %s:%d", op.Code, code.Name, pc-1)
		}
	}

	vm.stk = vm.stk[:vbase]
	vm.slots = vm.slots[:sbase]
	vm.loops = vm.loops[:lbase]
	if !isInit {
		m.depth--
	}
	return rets
}

// define gives c a fresh address and value, with a store event.
func (vm *vmState) define(c *slotCell, v Value) {
	*c = slotCell{val: v, addr: vm.m.alloc(1)}
	vm.store(c.addr)
}

// assign stores v in c, with a store event.
func (vm *vmState) assign(c *slotCell, v Value) {
	c.val = v
	vm.store(c.addr)
}

// Builtin semantics shared with the tree-walker; each caller charges
// the builtin's ticks and memory events itself.

// needArgs fails a builtin call that got fewer than n arguments.
func needArgs(name string, have, n int) {
	if have < n {
		fail("%s", notEnoughArgs(name))
	}
}

func notEnoughArgs(name string) string { return "not enough arguments in call to " + name }

// errStructKey is the failure of a struct literal whose key is not a
// field name.
const errStructKey = "struct literal key must be a field name"

// errRangeIntValue is the failure of a range over an integer that
// names a value variable, which Go rejects.
const errRangeIntValue = "range over int permits only one iteration variable"

func lenOf(v Value) int64 {
	switch x := v.(type) {
	case *Slice:
		return int64(len(x.Elems))
	case *Map:
		return int64(len(x.M))
	case string:
		return int64(len(x))
	case nil:
		return 0
	}
	fail("len of %s", formatValue(v))
	return 0
}

func capOf(v Value) int64 {
	if s, ok := v.(*Slice); ok {
		return int64(cap(s.Elems))
	}
	return 0
}

func toString(v Value) string {
	switch x := v.(type) {
	case int64:
		return string(rune(x))
	case string:
		return x
	}
	fail("unsupported string conversion")
	return ""
}

// appendSlice builds append's result at fresh addresses, with exact
// capacity so that cap() is deterministic across runs. The caller
// stores each element.
func (m *Machine) appendSlice(args []Value) *Slice {
	needArgs("append", len(args), 1)
	var s *Slice
	switch x := args[0].(type) {
	case nil:
		s = &Slice{base: m.alloc(1)}
	case *Slice:
		s = x
	default:
		fail("first argument to append must be a slice, not %s", formatValue(x))
	}
	elems := make([]Value, 0, len(s.Elems)+len(args)-1)
	elems = append(elems, s.Elems...)
	elems = append(elems, args[1:]...)
	return &Slice{Elems: elems, base: m.alloc(len(elems) + 1)}
}

// makeSlice is make([]T, n). Elements start at int zero — the dominant
// numeric case; float slices must be written before read or will carry
// int64(0), which arithmetic promotes correctly.
func (m *Machine) makeSlice(n int64) *Slice {
	if n < 0 {
		fail("negative length %d in make", n)
	}
	s := &Slice{Elems: make([]Value, n), base: m.alloc(int(n) + 1)}
	for i := range s.Elems {
		s.Elems[i] = int64(0)
	}
	return s
}

// copySlices copies and returns the destination and the count; the
// caller stores each copied element.
func copySlices(args []Value) (*Slice, int) {
	needArgs("copy", len(args), 2)
	dst, ok1 := args[0].(*Slice)
	src, ok2 := args[1].(*Slice)
	if !ok1 || !ok2 {
		fail("copy expects slices")
	}
	return dst, copy(dst.Elems, src.Elems)
}

func deleteEntry(args []Value) {
	needArgs("delete", len(args), 2)
	if mp, ok := args[0].(*Map); ok {
		delete(mp.M, args[1])
	}
}

func minMax(isMax bool, args []Value) Value {
	name := "min"
	if isMax {
		name = "max"
	}
	needArgs(name, len(args), 1)
	best := args[0]
	for _, a := range args[1:] {
		if isMax && lessValue(best, a) || !isMax && lessValue(a, best) {
			best = a
		}
	}
	return best
}

func (m *Machine) println(args []Value) {
	if m.output == nil {
		return
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = formatValue(a)
	}
	m.output(strings.Join(parts, " "))
}

func programPanic(args []Value) {
	needArgs("panic", len(args), 1)
	fail("program panic: %s", formatValue(args[0]))
}
