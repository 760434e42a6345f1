package interp

import (
	"fmt"
	"go/ast"
	"go/token"
	"strconv"

	"patty/internal/deps"
	"patty/internal/source"
)

// compileProgram lowers the whole program to bytecode. Every program
// compiles: constructs the tree-walker rejects only when it executes
// them compile to a fail op with the same message.
func (m *Machine) compileProgram() *vmCompiled {
	c := &progCompiler{
		m:       m,
		vmc:     &vmCompiled{byName: make(map[string]*Code)},
		fnIdx:   make(map[string]int32),
		intrIdx: make(map[string]int32),
		globals: make(map[string]int32),
	}

	fns := m.prog.Functions()
	for i, fn := range fns {
		c.fnIdx[fn.Name] = int32(i)
	}

	// The initializer compiles first: expressions in it see only the
	// globals initialized before them, exactly like initGlobals.
	c.vmc.initCode = c.compileInit()

	for _, fn := range fns {
		code := c.compileFunc(fn)
		c.vmc.units = append(c.vmc.units, code)
		c.vmc.byName[fn.Name] = code
	}

	// Dense ref table: program-wide statement ids for the profile
	// counters, converted back to Ref maps when a run finishes.
	base := 0
	for _, code := range c.vmc.units {
		code.setRefBase(base)
		n := code.fn.NumStmts()
		for s := 0; s < n; s++ {
			c.vmc.refs = append(c.vmc.refs, Ref{Fn: code.Name, Stmt: s})
		}
		base += n
	}
	return c.vmc
}

// setRefBase gives a function's closures its ref base: the function
// numbers their statements as its own.
func (c *Code) setRefBase(base int) {
	c.refBase = base
	for _, l := range c.Lits {
		l.setRefBase(base)
	}
}

type progCompiler struct {
	m       *Machine
	vmc     *vmCompiled
	fnIdx   map[string]int32 // function name → unit index
	intrIdx map[string]int32 // intrinsic name → table index
	globals map[string]int32 // global name → index (grows during init)
}

func (c *progCompiler) intrinsic(name string) (int32, bool) {
	in, ok := c.m.intrinsics[name]
	if !ok {
		return 0, false
	}
	if idx, ok := c.intrIdx[name]; ok {
		return idx, true
	}
	idx := int32(len(c.vmc.intrinsics))
	c.vmc.intrinsics = append(c.vmc.intrinsics, in)
	c.intrIdx[name] = idx
	return idx, true
}

// compileInit lowers package-level var declarations in
// initialization order (initOrder). A redeclared global reuses its
// index, so that, as in initGlobals, the last definition replaces the
// earlier cell.
func (c *progCompiler) compileInit() *Code {
	code := &Code{Name: "init"}
	u := &unitCompiler{c: c, code: code}
	global := func(name string) int32 {
		gi, dup := c.globals[name]
		if !dup {
			gi = int32(len(c.vmc.globalNames))
			c.vmc.globalNames = append(c.vmc.globalNames, name)
			c.globals[name] = gi
		}
		return gi
	}
	for _, v := range c.m.packageVars() {
		if n := len(v.names); n > 1 {
			u.compileTuple([]ast.Expr{v.value}, n)
			base := u.depth - n
			for i, name := range v.names {
				u.emit(Op{Code: opDefineGlobalAt, A: global(name.Name), B: u.at(base + i)})
			}
			u.emit(Op{Code: opDropN, A: int32(n)})
			u.depth = base
			continue
		}
		if v.value != nil {
			u.compileExpr(v.value)
		} else {
			u.emit(Op{Code: opZeroVal, A: code.typeIdx(v.typ)})
			u.depth++
		}
		u.emit(Op{Code: opDefineGlobal, A: global(v.names[0].Name)})
		u.depth--
	}
	u.emit(Op{Code: opReturnBare})
	return code
}

// compileFunc lowers one function or method.
func (c *progCompiler) compileFunc(pf *source.Function) *Code {
	code := &Code{Name: pf.Name, fn: pf}
	u := &unitCompiler{c: c, code: code, fn: c.m.function(pf)}
	u.compileBody(pf.Decl.Recv, pf.Decl.Type, pf.Decl.Body)
	return code
}

// compileClosure lowers a function literal of outer's unit where it
// appears, so that the slots and cells its free variables have in outer
// are known. The closure runs as its own unit; its statements keep the
// enclosing function's ids.
func (c *progCompiler) compileClosure(outer *unitCompiler, lit *ast.FuncLit) *Code {
	code := &Code{Name: "closure"}
	u := &unitCompiler{c: c, code: code, fn: outer.fn, upvals: make(map[*deps.Symbol]int32)}
	if outer.fn == nil {
		// A literal in a package-level initializer has no enclosing
		// function; the tree-walker fails once the call is set up.
		code.paramSlots = u.fieldSlots(lit.Type.Params)
		u.emitFail("closure outside any function")
		return code
	}
	code.fn = outer.fn.Function
	for _, sym := range c.m.lits[lit].free {
		var from capture
		if slot, ok := outer.slots[sym]; ok {
			from = capture{idx: slot}
		} else if up, ok := outer.upvals[sym]; ok {
			from = capture{upval: true, idx: up}
		} else {
			continue // declared on no path that reaches lit
		}
		u.upvals[sym] = int32(len(code.captures))
		code.captures = append(code.captures, from)
	}
	u.compileBody(nil, lit.Type, lit.Body)
	return code
}

// fieldSlots allocates one slot per name of a parameter-like list.
func (u *unitCompiler) fieldSlots(fl *ast.FieldList) []int32 {
	var slots []int32
	if fl != nil {
		for _, f := range fl.List {
			for _, name := range f.Names {
				slots = append(slots, u.newSlot(name))
			}
		}
	}
	return slots
}

// compileBody lays out the frame of a function or closure (slots for
// the receiver, parameters, then named results, replicating call's
// allocation order) and lowers its body. The variables that the
// function literals in the body capture are known first, so that their
// slots are heap cells from the start.
func (u *unitCompiler) compileBody(recv *ast.FieldList, ft *ast.FuncType, body *ast.BlockStmt) {
	code := u.code
	u.slots = make(map[*deps.Symbol]int32)
	u.boxed = make(map[int32]bool)
	u.captured = make(map[*deps.Symbol]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if ok {
			for _, sym := range u.c.m.lits[lit].free {
				u.captured[sym] = true
			}
		}
		return !ok
	})
	code.recvSlots = u.fieldSlots(recv)
	code.paramSlots = u.fieldSlots(ft.Params)
	code.resultSlots = u.fieldSlots(ft.Results)
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			for range f.Names {
				code.resultTypes = append(code.resultTypes, code.typeIdx(f.Type))
			}
		}
	}
	for _, slots := range [][]int32{code.recvSlots, code.paramSlots, code.resultSlots} {
		for _, si := range slots {
			if u.boxed[si] {
				code.boxedFrame = append(code.boxedFrame, si)
			}
		}
	}
	for _, s := range body.List {
		u.compileStmt(s)
	}
	u.emit(Op{Code: opReturnBare})
}

// flowCtx is one enclosing break/continue target during compilation.
type flowCtx struct {
	isSwitch     bool
	isRange      bool
	loopIdx      int32
	bodyRefDepth int   // statement refs pushed at body / clause level
	breakJumps   []int // jump pcs to patch to the break target
	contJumps    []int
}

// capture is where a new closure takes one of its cells from: the
// creating unit's captured slot idx, or, when upval is set, that
// unit's own captured cell idx.
type capture struct {
	upval bool
	idx   int32
}

func (c capture) String() string {
	if c.upval {
		return fmt.Sprintf("up%d", c.idx)
	}
	return fmt.Sprintf("s%d", c.idx)
}

type unitCompiler struct {
	c    *progCompiler
	code *Code
	fn   *function // nil for the initializer

	slots    map[*deps.Symbol]int32 // the unit's own variables
	upvals   map[*deps.Symbol]int32 // for a closure: its captured cells
	captured map[*deps.Symbol]bool  // variables the unit's literals capture
	boxed    map[int32]bool         // slots of captured variables: heap cells

	pendTick int64 // merged opTick accumulator
	depth    int   // static value-stack depth
	refDepth int   // statement refs pushed on the fall-through path
	loopNest int   // current static loop nesting (loop state index)
	ctxs     []*flowCtx
}

// --- emission helpers -------------------------------------------------

func (u *unitCompiler) flushTick() {
	if u.pendTick > 0 {
		u.code.Ops = append(u.code.Ops, Op{Code: opTick, A: int32(u.pendTick)})
		u.pendTick = 0
	}
}

func (u *unitCompiler) emitTick(n int64) { u.pendTick += n }

func (u *unitCompiler) emit(op Op) {
	u.flushTick()
	u.code.Ops = append(u.code.Ops, op)
}

// emitJump emits a jump-like op with a to-be-patched A target and
// returns its pc.
func (u *unitCompiler) emitJump(op Op) int {
	u.emit(op)
	return len(u.code.Ops) - 1
}

// label flushes pending ticks and returns the current pc as a target.
func (u *unitCompiler) label() int {
	u.flushTick()
	return len(u.code.Ops)
}

func (u *unitCompiler) patch(pc int) {
	u.flushTick()
	u.code.Ops[pc].A = int32(len(u.code.Ops))
}

func (u *unitCompiler) patchTo(pc, target int) { u.code.Ops[pc].A = int32(target) }

func (u *unitCompiler) emitFail(msg string) {
	u.emit(Op{Code: opFail, A: u.code.msgIdx(msg)})
}

func (u *unitCompiler) emitPushRef(stmtID int) {
	u.emit(Op{Code: opPushRef, A: int32(stmtID)})
}

func (u *unitCompiler) emitPopRefs(n int) {
	if n > 0 {
		u.emit(Op{Code: opPopRefs, A: int32(n)})
	}
}

// at converts an absolute stack position to a depth-from-top operand.
func (u *unitCompiler) at(pos int) int32 { return int32(u.depth - 1 - pos) }

// --- variables and bindings -------------------------------------------

// newSlot allocates the slot of the variable id declares; it is a heap
// cell when a closure captures the variable.
func (u *unitCompiler) newSlot(id *ast.Ident) int32 {
	idx := int32(u.code.NumSlots)
	u.code.NumSlots++
	u.code.SlotNames = append(u.code.SlotNames, id.Name)
	if sym := u.fn.local(id); sym != nil {
		u.slots[sym] = idx
		u.boxed[idx] = u.captured[sym]
	}
	return idx
}

// cellForm maps a slot op to the op that does the same through the
// slot's heap cell.
var cellForm = map[OpCode]OpCode{opDefineSlot: opDefineCell, opDefineSlotAt: opDefineCellAt, opStoreSlotAt: opStoreCellAt}

// emitSlot emits a slot op, in its cell form when the slot is captured.
func (u *unitCompiler) emitSlot(op Op) {
	if u.boxed[op.A] {
		op.Code = cellForm[op.Code]
	}
	u.emit(op)
}

// bind returns what id denotes in this unit: the slot, cell or upvalue
// of a local variable, or for any other name the package-level binding
// the tree-walker's lookup finds (global, program function, intrinsic,
// or undefined).
func (u *unitCompiler) bind(id *ast.Ident) binding {
	b := binding{kind: bindUndef, name: id.Name}
	if sym := u.fn.local(id); sym != nil {
		if slot, ok := u.slots[sym]; ok {
			b.kind, b.idx = bindSlot, slot
			if u.boxed[slot] {
				b.kind = bindCell
			}
		} else if up, ok := u.upvals[sym]; ok {
			b.kind, b.idx = bindUpval, up
		}
		return b
	}
	if gi, ok := u.c.globals[id.Name]; ok {
		b.kind, b.idx = bindGlobal, gi
	} else if ui, ok := u.c.fnIdx[id.Name]; ok {
		b.kind, b.idx = bindFunc, ui
	} else if ii, ok := u.c.intrinsic(id.Name); ok {
		b.kind, b.idx = bindIntrinsic, ii
	}
	return b
}

func (u *unitCompiler) bindIdx(id *ast.Ident) int32 { return u.code.resIdx(u.bind(id)) }

// qualifier reports whether id, the X of a selector, is a package name
// rather than a value: it names no variable or program function.
func (u *unitCompiler) qualifier(id *ast.Ident) bool {
	k := u.bind(id).kind
	return k == bindIntrinsic || k == bindUndef
}

// --- statements -------------------------------------------------------

func (u *unitCompiler) compileStmt(s ast.Stmt) {
	u.emitPushRef(u.fn.StmtID(s))
	u.refDepth++
	u.compileStmtBody(s)
	u.emitPopRefs(1)
	u.refDepth--
}

func (u *unitCompiler) compileStmtBody(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range st.List {
			u.compileStmt(inner)
		}
	case *ast.AssignStmt:
		u.compileAssign(st)
	case *ast.IncDecStmt:
		delta := int32(1)
		if st.Tok == token.DEC {
			delta = -1
		}
		u.compileLValueModify(st.X, func() {
			u.emit(Op{Code: opIncDec, A: delta})
		})
	case *ast.DeclStmt:
		u.compileDecl(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			u.compileCall(call) // results discarded
			return
		}
		u.compileExpr(st.X)
		u.emit(Op{Code: opDrop})
		u.depth--
	case *ast.ReturnStmt:
		u.compileReturn(st)
	case *ast.IfStmt:
		u.compileIf(st)
	case *ast.ForStmt:
		u.compileFor(st)
	case *ast.RangeStmt:
		u.compileRange(st)
	case *ast.SwitchStmt:
		u.compileSwitch(st)
	case *ast.BranchStmt:
		u.compileBranch(st)
	case *ast.LabeledStmt:
		u.compileStmt(st.Stmt)
	case *ast.EmptyStmt:
	default:
		u.emitFail(fmt.Sprintf("unsupported statement %T", s))
	}
}

func (u *unitCompiler) compileIf(st *ast.IfStmt) {
	if st.Init != nil {
		u.compileStmt(st.Init)
	}
	u.compileExpr(st.Cond)
	jf := u.emitJump(Op{Code: opJfalse})
	u.depth--
	for _, s := range st.Body.List {
		u.compileStmt(s)
	}
	if st.Else != nil {
		jend := u.emitJump(Op{Code: opJump})
		u.patch(jf)
		u.compileStmt(st.Else)
		u.patch(jend)
	} else {
		u.patch(jf)
	}
}

// compileLoopBody compiles the top-level statements of a loop body with
// target-loop top-statement tagging, mirroring execBodyStmts.
func (u *unitCompiler) compileLoopBody(body *ast.BlockStmt, li int32) {
	for _, s := range body.List {
		u.emit(Op{Code: opSetTop, A: li, B: int32(u.fn.StmtID(s))})
		u.compileStmt(s)
		u.emit(Op{Code: opSetTop, A: li, B: -1})
	}
}

func (u *unitCompiler) enterLoop(isRange bool) (int32, *flowCtx) {
	li := int32(u.loopNest)
	u.loopNest++
	if u.loopNest > u.code.NumLoops {
		u.code.NumLoops = u.loopNest
	}
	ctx := &flowCtx{isRange: isRange, loopIdx: li, bodyRefDepth: u.refDepth}
	u.ctxs = append(u.ctxs, ctx)
	return li, ctx
}

func (u *unitCompiler) leaveLoop() {
	u.ctxs = u.ctxs[:len(u.ctxs)-1]
	u.loopNest--
}

func (u *unitCompiler) compileFor(st *ast.ForStmt) {
	li, ctx := u.enterLoop(false)
	u.emit(Op{Code: opLoopEnter, A: int32(u.fn.StmtID(st)), B: li})
	if st.Init != nil {
		u.compileStmt(st.Init)
	}
	lcond := u.label()
	jf := -1
	if st.Cond != nil {
		u.compileExpr(st.Cond)
		jf = u.emitJump(Op{Code: opJfalse})
		u.depth--
	}
	u.compileLoopBody(st.Body, li)
	// Continue target: iter++, post, loop-bottom tick.
	lcont := u.label()
	for _, pc := range ctx.contJumps {
		u.patchTo(pc, lcont)
	}
	u.emit(Op{Code: opIterInc, A: li})
	if st.Post != nil {
		u.compileStmt(st.Post)
	}
	u.emitTick(1)
	u.emit(Op{Code: opJump, A: int32(lcond)})
	lexit := u.label()
	if jf >= 0 {
		u.patchTo(jf, lexit)
	}
	for _, pc := range ctx.breakJumps {
		u.patchTo(pc, lexit)
	}
	u.emit(Op{Code: opLoopLeave, A: li})
	u.leaveLoop()
}

func (u *unitCompiler) compileRange(st *ast.RangeStmt) {
	li, ctx := u.enterLoop(true)
	u.emit(Op{Code: opLoopEnter, A: int32(u.fn.StmtID(st)), B: li})
	u.compileExpr(st.X)

	keySlot, valSlot := int32(-1), int32(-1)
	define := st.Tok == token.DEFINE
	if define {
		if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
			keySlot = u.newSlot(id)
		}
		if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
			valSlot = u.newSlot(id)
		}
	}
	u.emit(Op{Code: opRangeStart, A: li, B: keySlot, C: valSlot})
	u.depth--

	lnext := u.label()
	jexit := u.emitJump(Op{Code: opRangeNext, B: li})

	if define {
		if keySlot >= 0 {
			u.emit(Op{Code: opRangeKey, A: li})
			u.emitSlot(Op{Code: opDefineSlot, A: keySlot})
		}
		if valSlot >= 0 {
			u.emit(Op{Code: opRangeVal, A: li})
			u.emitSlot(Op{Code: opDefineSlot, A: valSlot})
		}
	} else {
		if st.Key != nil && !isBlankIdent(st.Key) {
			u.compileRangeAssign(st.Key, Op{Code: opRangeKey, A: li})
		}
		if st.Value != nil && !isBlankIdent(st.Value) {
			u.compileRangeAssign(st.Value, Op{Code: opRangeVal, A: li})
		}
	}

	u.compileLoopBody(st.Body, li)
	lcont := u.label()
	for _, pc := range ctx.contJumps {
		u.patchTo(pc, lcont)
	}
	u.emit(Op{Code: opIterInc, A: li})
	u.emitTick(1)
	u.emit(Op{Code: opJump, A: int32(lnext)})
	// Break still counts the iteration and ticks the loop bottom,
	// mirroring iterate()'s unconditional iter++/tick before stopping.
	lbreak := u.label()
	for _, pc := range ctx.breakJumps {
		u.patchTo(pc, lbreak)
	}
	u.emit(Op{Code: opIterInc, A: li})
	u.emitTick(1)
	lexit := u.label()
	u.patchTo(jexit, lexit)
	u.emit(Op{Code: opLoopLeave, A: li})
	u.leaveLoop()
}

func isBlankIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// compileRangeAssign lowers `existingLV = k` for range with = tokens:
// lvalue resolution first, then the set, like assignKV.
func (u *unitCompiler) compileRangeAssign(target ast.Expr, push Op) {
	target = unwrapLV(target)
	switch lv := target.(type) {
	case *ast.Ident:
		u.emit(push)
		u.depth++
		u.emit(Op{Code: opStoreName, A: u.bindIdx(lv)})
		u.depth--
	case *ast.IndexExpr:
		base := u.depth
		u.compileExpr(lv.X)
		u.compileExpr(lv.Index)
		u.emit(Op{Code: opIndexLVCheck})
		u.emit(push)
		u.depth++
		u.emit(Op{Code: opIndexSetAt, A: 0, B: u.at(base)})
		u.emit(Op{Code: opDropN, A: 3})
		u.depth = base
	case *ast.SelectorExpr:
		base := u.depth
		u.compileExpr(lv.X)
		u.emit(Op{Code: opFieldLVCheck, A: u.code.nameIdx(lv.Sel.Name)})
		u.emit(push)
		u.depth++
		u.emit(Op{Code: opFieldSetAt, A: u.code.nameIdx(lv.Sel.Name), B: 0, C: u.at(base)})
		u.emit(Op{Code: opDropN, A: 2})
		u.depth = base
	default:
		u.emitFail(fmt.Sprintf("unsupported assignment target %T", target))
	}
}

func (u *unitCompiler) compileSwitch(st *ast.SwitchStmt) {
	if st.Init != nil {
		u.compileStmt(st.Init)
	}
	baseDepth := u.depth
	if st.Tag != nil {
		u.compileExpr(st.Tag)
	} else {
		u.emit(Op{Code: opConst, A: u.code.constIdx(true)})
		u.depth++
	}

	type armTarget struct {
		clause *ast.CaseClause
		jumps  []int
	}
	var arms []*armTarget
	var defaultClause *ast.CaseClause
	for _, cc := range st.Body.List {
		clause := cc.(*ast.CaseClause) // go/parser allows nothing else
		if clause.List == nil {
			defaultClause = clause
			continue
		}
		arm := &armTarget{clause: clause}
		for _, e := range clause.List {
			u.compileExpr(e)
			arm.jumps = append(arm.jumps, u.emitJump(Op{Code: opCaseEq}))
			u.depth-- // case value popped; tag stays on the fall path
		}
		arms = append(arms, arm)
	}
	u.emit(Op{Code: opDropN, A: 1}) // no case matched: drop the tag
	u.depth--
	jNoMatch := u.emitJump(Op{Code: opJump})

	ctx := &flowCtx{isSwitch: true, bodyRefDepth: u.refDepth}
	u.ctxs = append(u.ctxs, ctx)
	var exits []int
	for _, arm := range arms {
		l := u.label()
		for _, pc := range arm.jumps {
			u.patchTo(pc, l)
		}
		u.depth = baseDepth // tag consumed by the matching opCaseEq
		u.compileClauseBody(arm.clause)
		exits = append(exits, u.emitJump(Op{Code: opJump}))
	}
	if defaultClause != nil {
		u.patch(jNoMatch)
		u.depth = baseDepth
		u.compileClauseBody(defaultClause)
	}
	lexit := u.label()
	if defaultClause == nil {
		u.patchTo(jNoMatch, lexit)
	}
	for _, pc := range exits {
		u.patchTo(pc, lexit)
	}
	for _, pc := range ctx.breakJumps {
		u.patchTo(pc, lexit)
	}
	u.ctxs = u.ctxs[:len(u.ctxs)-1]
	u.depth = baseDepth
}

func (u *unitCompiler) compileClauseBody(clause *ast.CaseClause) {
	for _, s := range clause.Body {
		u.compileStmt(s)
	}
}

func (u *unitCompiler) compileBranch(st *ast.BranchStmt) {
	switch st.Tok {
	case token.BREAK:
		if st.Label != nil {
			u.emitFail("labeled break is outside the supported subset")
			return
		}
		if len(u.ctxs) == 0 {
			// A stray break propagates to callFunction, which treats
			// any non-return control like falling off the end.
			u.emitReturnUnwind()
			u.emit(Op{Code: opReturnBare})
			return
		}
		ctx := u.ctxs[len(u.ctxs)-1]
		u.emitPopRefs(u.refDepth - ctx.bodyRefDepth)
		if !ctx.isSwitch {
			u.emit(Op{Code: opSetTop, A: ctx.loopIdx, B: -1})
		}
		ctx.breakJumps = append(ctx.breakJumps, u.emitJump(Op{Code: opJump}))
	case token.CONTINUE:
		if st.Label != nil {
			u.emitFail("labeled continue is outside the supported subset")
			return
		}
		var ctx *flowCtx
		for i := len(u.ctxs) - 1; i >= 0; i-- {
			if !u.ctxs[i].isSwitch {
				ctx = u.ctxs[i]
				break
			}
		}
		if ctx == nil {
			u.emitReturnUnwind()
			u.emit(Op{Code: opReturnBare})
			return
		}
		u.emitPopRefs(u.refDepth - ctx.bodyRefDepth)
		u.emit(Op{Code: opSetTop, A: ctx.loopIdx, B: -1})
		ctx.contJumps = append(ctx.contJumps, u.emitJump(Op{Code: opJump}))
	default:
		u.emitFail(fmt.Sprintf("unsupported branch statement %s", st.Tok))
	}
}

func (u *unitCompiler) compileReturn(st *ast.ReturnStmt) {
	if len(st.Results) == 0 {
		u.emitReturnUnwind()
		u.emit(Op{Code: opReturnBare})
		return
	}
	if len(st.Results) == 1 {
		if call, ok := st.Results[0].(*ast.CallExpr); ok {
			u.compileCall(call)
			u.emitReturnUnwind()
			u.emit(Op{Code: opReturnRes})
			return
		}
	}
	for _, e := range st.Results {
		u.compileExpr(e)
	}
	u.emitReturnUnwind()
	u.emit(Op{Code: opReturnValues, B: int32(len(st.Results))})
	u.depth -= len(st.Results)
}

// emitReturnUnwind replays the tree-walker's unwinding on return: the
// statement refs pop level by level, and every enclosing loop runs its
// leave bookkeeping (ranges also count the iteration and tick the loop
// bottom, mirroring iterate()).
func (u *unitCompiler) emitReturnUnwind() {
	cur := u.refDepth
	for i := len(u.ctxs) - 1; i >= 0; i-- {
		ctx := u.ctxs[i]
		if ctx.isSwitch {
			continue
		}
		u.emitPopRefs(cur - ctx.bodyRefDepth)
		cur = ctx.bodyRefDepth
		u.emit(Op{Code: opSetTop, A: ctx.loopIdx, B: -1})
		if ctx.isRange {
			u.emit(Op{Code: opIterInc, A: ctx.loopIdx})
			u.emitTick(1)
		}
		u.emit(Op{Code: opLoopLeave, A: ctx.loopIdx})
	}
	u.emitPopRefs(cur)
}

func (u *unitCompiler) compileDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		u.emitFail("unsupported declaration")
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) > 0 {
			n := len(vs.Names)
			u.compileTuple(vs.Values, n)
			base := u.depth - n
			for i, name := range vs.Names {
				u.emitSlot(Op{Code: opDefineSlotAt, A: u.newSlot(name), B: u.at(base + i)})
			}
			u.emit(Op{Code: opDropN, A: int32(n)})
			u.depth = base
		} else {
			for _, name := range vs.Names {
				u.emit(Op{Code: opZeroVal, A: u.code.typeIdx(vs.Type)})
				u.emitSlot(Op{Code: opDefineSlot, A: u.newSlot(name)})
			}
		}
	}
}

func unwrapLV(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

func (u *unitCompiler) compileAssign(st *ast.AssignStmt) {
	switch st.Tok {
	case token.DEFINE:
		n := len(st.Lhs)
		u.compileTuple(st.Rhs, n)
		base := u.depth - n
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				u.emitFail(":= target must be an identifier")
				break
			}
			if id.Name == "_" {
				continue
			}
			if sym := u.fn.local(id); sym != nil && sym.Decl != id.Pos() {
				// Go redeclaration: := assigns a variable an earlier
				// declaration of its scope declared.
				u.emitSlot(Op{Code: opStoreSlotAt, A: u.slots[sym], B: u.at(base + i)})
			} else {
				u.emitSlot(Op{Code: opDefineSlotAt, A: u.newSlot(id), B: u.at(base + i)})
			}
		}
		u.emit(Op{Code: opDropN, A: int32(n)})
		u.depth = base
	case token.ASSIGN:
		n := len(st.Lhs)
		u.compileTuple(st.Rhs, n)
		base := u.depth - n
		const (
			lvBlank = iota
			lvIdent
			lvIndex
			lvField
			lvBad
		)
		type plan struct {
			kind     int
			res      int32
			name     int32
			opndBase int
		}
		plans := make([]plan, 0, n)
		for _, lhs := range st.Lhs {
			target := unwrapLV(lhs)
			switch lv := target.(type) {
			case *ast.Ident:
				if lv.Name == "_" {
					plans = append(plans, plan{kind: lvBlank})
					continue
				}
				b := u.bind(lv)
				if !b.variable() {
					u.emitFail(fmt.Sprintf("assignment to undefined variable %q", lv.Name))
				}
				plans = append(plans, plan{kind: lvIdent, res: u.code.resIdx(b)})
			case *ast.IndexExpr:
				p := plan{kind: lvIndex, opndBase: u.depth}
				u.compileExpr(lv.X)
				u.compileExpr(lv.Index)
				u.emit(Op{Code: opIndexLVCheck})
				plans = append(plans, p)
			case *ast.SelectorExpr:
				p := plan{kind: lvField, name: u.code.nameIdx(lv.Sel.Name), opndBase: u.depth}
				u.compileExpr(lv.X)
				u.emit(Op{Code: opFieldLVCheck, A: p.name})
				plans = append(plans, p)
			default:
				u.emitFail(fmt.Sprintf("unsupported assignment target %T", target))
				plans = append(plans, plan{kind: lvBad})
			}
		}
		for i, p := range plans {
			vd := u.at(base + i)
			switch p.kind {
			case lvIdent:
				u.emit(Op{Code: opStoreNameAt, A: p.res, B: vd})
			case lvIndex:
				u.emit(Op{Code: opIndexSetAt, A: vd, B: u.at(p.opndBase)})
			case lvField:
				u.emit(Op{Code: opFieldSetAt, A: p.name, B: vd, C: u.at(p.opndBase)})
			}
		}
		u.emit(Op{Code: opDropN, A: int32(u.depth - base)})
		u.depth = base
	default:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			u.emitFail("invalid compound assignment")
			return
		}
		op, opOK := compoundOp(st.Tok)
		u.compileLValueModify(st.Lhs[0], func() {
			u.compileExpr(st.Rhs[0])
			if !opOK {
				u.emitFail(fmt.Sprintf("unsupported assignment operator %s", st.Tok))
				u.depth-- // unreachable; keep the bookkeeping balanced
				return
			}
			u.emit(Op{Code: opBinop, A: int32(op)})
			u.depth--
		})
	}
}

// compileLValueModify lowers read-modify-write statements (x++ and
// a op= b): lvalue resolution, get (a load), the modification, set (a
// store) — exactly the tree-walker's lvalue()/get/set dance.
func (u *unitCompiler) compileLValueModify(target ast.Expr, modify func()) {
	target = unwrapLV(target)
	switch lv := target.(type) {
	case *ast.Ident:
		if lv.Name == "_" {
			// The blank lvalue's getter returns nil without a load and
			// its setter discards; the modification still runs.
			u.emit(Op{Code: opConst, A: u.code.constIdx(nil)})
			u.depth++
			modify()
			u.emit(Op{Code: opDrop})
			u.depth--
			return
		}
		res := u.bindIdx(lv)
		u.emit(Op{Code: opNameLVGet, A: res})
		u.depth++
		modify()
		u.emit(Op{Code: opStoreName, A: res})
		u.depth--
	case *ast.IndexExpr:
		base := u.depth
		u.compileExpr(lv.X)
		u.compileExpr(lv.Index)
		u.emit(Op{Code: opIndexLVCheck})
		u.emit(Op{Code: opIndexLVGet})
		u.depth++
		modify()
		u.emit(Op{Code: opIndexSetAt, A: 0, B: u.at(base)})
		u.emit(Op{Code: opDropN, A: 3})
		u.depth = base
	case *ast.SelectorExpr:
		base := u.depth
		name := u.code.nameIdx(lv.Sel.Name)
		u.compileExpr(lv.X)
		u.emit(Op{Code: opFieldLVCheck, A: name})
		u.emit(Op{Code: opFieldLVGet, A: name})
		u.depth++
		modify()
		u.emit(Op{Code: opFieldSetAt, A: name, B: 0, C: u.at(base)})
		u.emit(Op{Code: opDropN, A: 2})
		u.depth = base
	default:
		u.emitFail(fmt.Sprintf("unsupported assignment target %T", target))
	}
}

// --- expressions ------------------------------------------------------

// compileExpr lowers an expression to ops leaving exactly one value on
// the stack, mirroring eval: calls go through the result register and
// are checked for a single result; everything else ticks once on entry
// (evalSingle) and then evaluates.
func (u *unitCompiler) compileExpr(e ast.Expr) {
	if call, ok := e.(*ast.CallExpr); ok {
		u.compileCall(call)
		u.emit(Op{Code: opExpect1})
		u.depth++
		return
	}
	u.emitTick(1)
	switch ex := e.(type) {
	case *ast.BasicLit:
		u.compileLit(ex)
	case *ast.Ident:
		u.compileIdent(ex)
	case *ast.ParenExpr:
		u.compileExpr(ex.X)
	case *ast.BinaryExpr:
		u.compileBinary(ex)
	case *ast.UnaryExpr:
		u.compileUnary(ex)
	case *ast.StarExpr:
		// Reference semantics: *p is p for struct references.
		u.compileExpr(ex.X)
	case *ast.IndexExpr:
		u.compileExpr(ex.X)
		u.compileExpr(ex.Index)
		u.emit(Op{Code: opIndex})
		u.depth--
	case *ast.SliceExpr:
		u.compileSliceExpr(ex)
	case *ast.SelectorExpr:
		u.compileSelector(ex)
	case *ast.CompositeLit:
		u.compileComposite(ex)
	case *ast.FuncLit:
		u.emit(Op{Code: opClosure, A: int32(len(u.code.Lits))})
		u.code.Lits = append(u.code.Lits, u.c.compileClosure(u, ex))
		u.depth++
	default:
		u.emitFail(fmt.Sprintf("unsupported expression %T", e))
		u.depth++ // unreachable at run time; keep bookkeeping balanced
	}
}

// compileLit parses the literal at compile time; a malformed literal
// becomes a fail op with the tree-walker's message, raised only if the
// expression is actually evaluated.
func (u *unitCompiler) compileLit(lit *ast.BasicLit) {
	u.depth++
	if v, msg := parseLit(lit); msg != "" {
		u.emitFail(msg)
	} else {
		u.emit(Op{Code: opConst, A: u.code.constIdx(v)})
	}
}

// parseLit evaluates a basic literal, or returns the failure both
// engines raise for it.
func parseLit(lit *ast.BasicLit) (Value, string) {
	switch lit.Kind {
	case token.INT:
		if v, err := strconv.ParseInt(lit.Value, 0, 64); err == nil {
			return v, ""
		}
		return nil, fmt.Sprintf("bad int literal %s", lit.Value)
	case token.FLOAT:
		if v, err := strconv.ParseFloat(lit.Value, 64); err == nil {
			return v, ""
		}
		return nil, fmt.Sprintf("bad float literal %s", lit.Value)
	case token.STRING:
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s, ""
		}
		return nil, "bad string literal"
	case token.CHAR:
		if s, err := strconv.Unquote(lit.Value); err == nil && len(s) > 0 {
			return int64([]rune(s)[0]), ""
		}
		return nil, "bad rune literal"
	}
	return nil, fmt.Sprintf("unsupported literal kind %s", lit.Kind)
}

func (u *unitCompiler) compileIdent(id *ast.Ident) {
	switch id.Name {
	case "true":
		u.emit(Op{Code: opConst, A: u.code.constIdx(true)})
	case "false":
		u.emit(Op{Code: opConst, A: u.code.constIdx(false)})
	case "nil":
		u.emit(Op{Code: opConst, A: u.code.constIdx(nil)})
	default:
		u.emit(Op{Code: opLoadName, A: u.bindIdx(id)})
	}
	u.depth++
}

func (u *unitCompiler) compileBinary(ex *ast.BinaryExpr) {
	if ex.Op == token.LAND || ex.Op == token.LOR {
		u.compileExpr(ex.X)
		short := Op{Code: opAndShort}
		if ex.Op == token.LOR {
			short = Op{Code: opOrShort}
		}
		j := u.emitJump(short)
		u.depth--
		u.compileExpr(ex.Y)
		u.emit(Op{Code: opBool})
		u.patch(j)
		return
	}
	u.compileExpr(ex.X)
	u.compileExpr(ex.Y)
	u.emit(Op{Code: opBinop, A: int32(ex.Op)})
	u.depth--
}

func (u *unitCompiler) compileUnary(ex *ast.UnaryExpr) {
	switch ex.Op {
	case token.AND, token.ADD:
		// &x / &T{...} and +x: reference semantics / identity.
		u.compileExpr(ex.X)
	case token.SUB:
		u.compileExpr(ex.X)
		u.emit(Op{Code: opNeg})
	case token.NOT:
		u.compileExpr(ex.X)
		u.emit(Op{Code: opNot})
	case token.XOR:
		u.compileExpr(ex.X)
		u.emit(Op{Code: opBitNot})
	default:
		u.emitFail(fmt.Sprintf("unsupported unary operator %s", ex.Op))
		u.depth++
	}
}

func (u *unitCompiler) compileSliceExpr(ex *ast.SliceExpr) {
	u.compileExpr(ex.X)
	hasLow, hasHigh := int32(0), int32(0)
	if ex.Low != nil {
		hasLow = 1
		u.compileExpr(ex.Low)
		u.emit(Op{Code: opToInt})
	}
	if ex.High != nil {
		hasHigh = 1
		u.compileExpr(ex.High)
		u.emit(Op{Code: opToInt})
	}
	u.emit(Op{Code: opSliceExpr, A: hasLow, B: hasHigh})
	u.depth -= int(hasLow + hasHigh)
}

// compileSelector lowers an rvalue selector: a package-qualified
// intrinsic reference when the qualifier is statically unbound,
// otherwise a struct field load or method-value bind.
func (u *unitCompiler) compileSelector(ex *ast.SelectorExpr) {
	if id, ok := ex.X.(*ast.Ident); ok && u.qualifier(id) {
		qual := id.Name + "." + ex.Sel.Name
		if _, ok := u.c.m.intrinsics[qual]; ok {
			u.emit(Op{Code: opIntrFuncVal, A: u.code.nameIdx(qual)})
			u.depth++
			return
		}
	}
	u.compileExpr(ex.X)
	u.emit(Op{Code: opSelect, A: u.code.nameIdx(ex.Sel.Name)})
}

func (u *unitCompiler) compileComposite(ex *ast.CompositeLit) {
	switch t := ex.Type.(type) {
	case *ast.Ident:
		typ, ok := u.c.m.structTypes[t.Name]
		if !ok {
			u.emitFail(fmt.Sprintf("unknown composite type %s", t.Name))
			u.depth++
			return
		}
		set := typ.literalSet(ex.Elts)
		u.emit(Op{Code: opNewStruct, A: u.code.nameIdx(t.Name), B: int32(uint32(set)), C: int32(uint32(set >> 32))})
		u.depth++
		for i, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					u.emitFail(errStructKey)
					return
				}
				if i, ok = typ.index[key.Name]; !ok {
					u.emitFail(fmt.Sprintf("unknown field %s in struct literal of type %s", key.Name, t.Name))
					return
				}
				el = kv.Value
			} else if i >= len(typ.fields) {
				u.emitFail(fmt.Sprintf("too many values in %s literal", t.Name))
				return
			}
			u.compileExpr(el)
			u.emit(Op{Code: opSetField, A: u.code.nameIdx(typ.fields[i]), B: int32(i)})
			u.depth--
		}
	case *ast.ArrayType:
		for _, el := range ex.Elts {
			u.compileExpr(el)
		}
		op := Op{Code: opMakeSliceLit, A: int32(len(ex.Elts))}
		if t.Len != nil {
			op.B = u.code.typeIdx(t) + 1 // an array: arrayLit pads it
		}
		u.emit(op)
		u.depth -= len(ex.Elts) - 1
	case *ast.MapType:
		u.emit(Op{Code: opNewMap})
		u.depth++
		for _, el := range ex.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				u.emitFail("map literal requires key:value")
				return
			}
			u.compileExpr(kv.Key)
			u.compileExpr(kv.Value)
			u.emit(Op{Code: opMapLitSet})
			u.depth -= 2
		}
	default:
		u.emitFail(fmt.Sprintf("unsupported composite literal type %T", ex.Type))
		u.depth++
	}
}

// --- calls ------------------------------------------------------------

// compileCall lowers a call; results land in the result register
// (consumed by opExpect1/opExpectN or discarded), net stack depth zero.
// The dispatch order replays evalCallMulti: builtins by name first,
// qualified intrinsics, methods, plain identifiers, arbitrary callees.
func (u *unitCompiler) compileCall(call *ast.CallExpr) {
	u.emitTick(1)
	if id, ok := call.Fun.(*ast.Ident); ok {
		if u.compileBuiltin(id.Name, call) {
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && u.qualifier(id) {
			qual := id.Name + "." + sel.Sel.Name
			if ii, ok := u.c.intrinsic(qual); ok {
				n := u.compileArgs(call.Args)
				u.emit(Op{Code: opCallIntrinsic, A: ii, B: n})
				u.dropArgs(n)
				return
			}
			u.emitFail(fmt.Sprintf("unknown qualified call %s", qual))
			return
		}
		// Method call: resolve the bound callee before the arguments.
		u.compileExpr(sel.X)
		u.emit(Op{Code: opMethodResolve, A: u.code.nameIdx(sel.Sel.Name)})
		n := u.compileArgs(call.Args)
		u.emit(Op{Code: opCallValue, B: n})
		u.depth-- // the callee
		u.dropArgs(n)
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		u.emit(Op{Code: opLoadCallee, A: u.bindIdx(id)})
		u.depth++
		n := u.compileArgs(call.Args)
		u.emit(Op{Code: opCallValue, B: n})
		u.depth--
		u.dropArgs(n)
		return
	}
	// Arbitrary callable expression: checked before the arguments run.
	u.compileExpr(call.Fun)
	u.emit(Op{Code: opCheckFunc})
	n := u.compileArgs(call.Args)
	u.emit(Op{Code: opCallValue, B: n})
	u.depth--
	u.dropArgs(n)
}

// compileArgs lowers call arguments: n values pushed on the stack, or
// -1 when a single call expression fans its results out through the
// result register (evalArgs semantics).
func (u *unitCompiler) compileArgs(args []ast.Expr) int32 {
	if len(args) == 1 {
		if call, ok := args[0].(*ast.CallExpr); ok {
			u.compileCall(call)
			return -1
		}
	}
	for _, a := range args {
		u.compileExpr(a)
	}
	return int32(len(args))
}

func (u *unitCompiler) dropArgs(n int32) {
	if n > 0 {
		u.depth -= int(n)
	}
}

// argsBuiltins are the builtins whose op takes the evaluated argument
// list (or a call's fanned-out results) and checks its length.
var argsBuiltins = map[string]OpCode{"append": opAppend, "copy": opCopy, "delete": opDelete,
	"println": opPrintln, "print": opPrintln, "panic": opPanic}

// compileBuiltin lowers builtins and conversions dispatched by bare
// name (before any user binding, exactly like builtinCall). The bool
// result reports whether name was handled. Arity is checked where
// builtinCall checks it: before the operand for the one-operand forms,
// and by the ops, after the arguments ran, for the others.
func (u *unitCompiler) compileBuiltin(name string, call *ast.CallExpr) bool {
	switch name {
	case "len", "cap", "int", "int64", "byte", "rune", "int32", "float64", "string":
		if len(call.Args) == 0 {
			u.emitFail(notEnoughArgs(name))
			return true
		}
		u.compileExpr(call.Args[0])
		switch name {
		case "len":
			u.emit(Op{Code: opLen})
		case "cap":
			u.emit(Op{Code: opCap})
		case "float64":
			u.emit(Op{Code: opToFloat})
			u.emit(Op{Code: opRes1})
		case "string":
			u.emit(Op{Code: opConvStr})
			u.emit(Op{Code: opRes1})
		default:
			u.emit(Op{Code: opToInt})
			u.emit(Op{Code: opRes1})
		}
		u.depth--
	case "append", "copy", "delete", "println", "print", "panic":
		n := u.compileArgs(call.Args)
		u.emit(Op{Code: argsBuiltins[name], B: n})
		u.dropArgs(n)
	case "make":
		if len(call.Args) == 0 {
			u.emitFail("make requires a type")
			return true
		}
		switch call.Args[0].(type) {
		case *ast.ArrayType:
			hasLen := int32(0)
			if len(call.Args) > 1 {
				hasLen = 1
				u.compileExpr(call.Args[1])
				u.emit(Op{Code: opToInt})
			}
			u.emit(Op{Code: opMakeSlice, A: hasLen})
			u.depth -= int(hasLen)
		case *ast.MapType:
			u.emit(Op{Code: opMakeMap})
		default:
			u.emitFail("unsupported make()")
		}
	case "new":
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if _, ok := u.c.m.structTypes[id.Name]; ok {
					u.emit(Op{Code: opNewNamed, A: u.code.nameIdx(id.Name)})
					return true
				}
			}
		}
		u.emitFail("unsupported new()")
	case "min", "max":
		isMax := int32(0)
		if name == "max" {
			isMax = 1
		}
		n := u.compileArgs(call.Args)
		u.emit(Op{Code: opMin, A: isMax, B: n})
		u.dropArgs(n)
	default:
		return false
	}
	return true
}

// compileTuple lowers an expression list that must produce want values
// (want < 0: unchecked), with single-call fan-out like evalTuple.
func (u *unitCompiler) compileTuple(exprs []ast.Expr, want int) {
	if len(exprs) == 0 {
		return
	}
	if len(exprs) == 1 {
		if call, ok := exprs[0].(*ast.CallExpr); ok {
			u.compileCall(call)
			u.emit(Op{Code: opExpectN, A: int32(want)})
			u.depth += want
			return
		}
	}
	for _, e := range exprs {
		u.compileExpr(e)
	}
	if want >= 0 && len(exprs) != want {
		u.emitFail(fmt.Sprintf("assignment mismatch: %d values, %d targets", len(exprs), want))
	}
}
