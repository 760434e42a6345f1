package interp

import (
	"fmt"
	"go/token"
	"strings"
)

// Disassemble renders the compiled bytecode of the whole program as
// readable text, one block per compilation unit. The golden tests pin
// this output for every corpus program, so bytecode-layout regressions
// show up as reviewable diffs.
func (m *Machine) Disassemble() string {
	vmc := m.compiled()
	var b strings.Builder
	writeUnit(&b, vmc.initCode.Name, vmc.initCode)
	for _, u := range vmc.units {
		b.WriteByte('\n')
		writeUnit(&b, u.Name, u)
	}
	return b.String()
}

// writeUnit renders c under name, then the closures it creates, each
// named after its creator and its opClosure index.
func writeUnit(b *strings.Builder, name string, c *Code) {
	fmt.Fprintf(b, "unit %s: %d slots, %d loops", name, c.NumSlots, c.NumLoops)
	if len(c.SlotNames) > 0 {
		fmt.Fprintf(b, "  [%s]", strings.Join(c.SlotNames, " "))
	}
	b.WriteByte('\n')
	if len(c.recvSlots) > 0 || len(c.paramSlots) > 0 || len(c.resultSlots) > 0 {
		fmt.Fprintf(b, "  frame: recv=%v params=%v results=%v\n", c.recvSlots, c.paramSlots, c.resultSlots)
	}
	if len(c.captures) > 0 {
		fmt.Fprintf(b, "  captures: %v\n", c.captures)
	}
	for pc, op := range c.Ops {
		fmt.Fprintf(b, "  %4d  %-14s%s\n", pc, opName(op.Code), operands(c, op))
	}
	for i, l := range c.Lits {
		b.WriteByte('\n')
		writeUnit(b, fmt.Sprintf("%s/closure%d", name, i), l)
	}
}

// operands renders an op's operands with their meaning resolved.
func operands(c *Code, op Op) string {
	switch op.Code {
	case opConst:
		return fmt.Sprintf(" %s", constRepr(c.Consts[op.A]))
	case opDropN, opExpectN, opTick, opPushRef, opPopRefs, opMakeSliceLit, opIncDec, opClosure:
		return fmt.Sprintf(" %d", op.A)
	case opJump, opJfalse, opAndShort, opOrShort, opCaseEq:
		return fmt.Sprintf(" -> %d", op.A)
	case opLoadName, opNameLVGet, opStoreName, opLoadCallee:
		return fmt.Sprintf(" %s", c.Res[op.A])
	case opStoreNameAt:
		return fmt.Sprintf(" %s @%d", c.Res[op.A], op.B)
	case opDefineSlot, opDefineCell:
		return fmt.Sprintf(" %s", slotRepr(c, op.A))
	case opDefineSlotAt, opStoreSlotAt, opDefineCellAt, opStoreCellAt:
		return fmt.Sprintf(" %s @%d", slotRepr(c, op.A), op.B)
	case opDefineGlobal:
		return fmt.Sprintf(" g%d", op.A)
	case opDefineGlobalAt:
		return fmt.Sprintf(" g%d @%d", op.A, op.B)
	case opIntrFuncVal, opSelect, opFieldLVCheck, opFieldLVGet, opNewStruct, opSetField, opNewNamed, opMethodResolve:
		return fmt.Sprintf(" %s", c.Names[op.A])
	case opFieldSetAt:
		return fmt.Sprintf(" %s val@%d base@%d", c.Names[op.A], op.B, op.C)
	case opIndexSetAt:
		return fmt.Sprintf(" val@%d base@%d", op.A, op.B)
	case opZeroVal:
		return fmt.Sprintf(" type%d", op.A)
	case opBinop:
		return fmt.Sprintf(" %s", token.Token(op.A))
	case opSliceExpr:
		return fmt.Sprintf(" low=%d high=%d", op.A, op.B)
	case opAppend, opCopy, opDelete, opPrintln, opPanic, opCallValue:
		return fmt.Sprintf(" nargs=%d", op.B)
	case opMin:
		kind := "min"
		if op.A == 1 {
			kind = "max"
		}
		return fmt.Sprintf(" %s nargs=%d", kind, op.B)
	case opMakeSlice:
		return fmt.Sprintf(" haslen=%d", op.A)
	case opCallIntrinsic:
		return fmt.Sprintf(" intr%d nargs=%d", op.A, op.B)
	case opReturnValues:
		return fmt.Sprintf(" %d", op.B)
	case opLoopEnter:
		return fmt.Sprintf(" stmt=%d loop=%d", op.A, op.B)
	case opLoopLeave, opIterInc, opRangeKey, opRangeVal:
		return fmt.Sprintf(" loop=%d", op.A)
	case opSetTop:
		return fmt.Sprintf(" loop=%d top=%d", op.A, op.B)
	case opRangeStart:
		return fmt.Sprintf(" loop=%d kslot=%d vslot=%d", op.A, op.B, op.C)
	case opRangeNext:
		return fmt.Sprintf(" -> %d loop=%d", op.A, op.B)
	case opFail:
		return fmt.Sprintf(" %q", c.Msgs[op.A])
	}
	return ""
}

func constRepr(v Value) string {
	if s, ok := v.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return formatValue(v)
}

func slotRepr(c *Code, slot int32) string {
	if int(slot) < len(c.SlotNames) && c.SlotNames[slot] != "" {
		return fmt.Sprintf("s%d(%s)", slot, c.SlotNames[slot])
	}
	return fmt.Sprintf("s%d", slot)
}

func (b binding) String() string {
	switch b.kind {
	case bindSlot:
		return fmt.Sprintf("s%d", b.idx)
	case bindCell:
		return fmt.Sprintf("cell s%d", b.idx)
	case bindUpval:
		return fmt.Sprintf("up%d", b.idx)
	case bindGlobal:
		return fmt.Sprintf("g%d", b.idx)
	case bindFunc:
		return "func " + b.name
	case bindIntrinsic:
		return "intr " + b.name
	}
	return "undef " + b.name
}

// opNames is indexed by OpCode; kept sorted here only for readability.
var opNames = map[OpCode]string{
	opInvalid:        "invalid",
	opConst:          "const",
	opDrop:           "drop",
	opDropN:          "dropn",
	opRes1:           "res1",
	opExpect1:        "expect1",
	opExpectN:        "expectn",
	opTick:           "tick",
	opPushRef:        "pushref",
	opPopRefs:        "poprefs",
	opJump:           "jump",
	opJfalse:         "jfalse",
	opAndShort:       "andshort",
	opOrShort:        "orshort",
	opBool:           "bool",
	opLoadName:       "loadname",
	opNameLVGet:      "namelvget",
	opStoreName:      "storename",
	opStoreNameAt:    "storenameat",
	opDefineSlot:     "defineslot",
	opDefineSlotAt:   "defineslotat",
	opStoreSlotAt:    "storeslotat",
	opDefineCell:     "definecell",
	opDefineCellAt:   "definecellat",
	opStoreCellAt:    "storecellat",
	opClosure:        "closure",
	opDefineGlobal:   "defineglobal",
	opDefineGlobalAt: "defineglobalat",
	opIntrFuncVal:    "intrfuncval",
	opZeroVal:        "zeroval",
	opBinop:          "binop",
	opNeg:            "neg",
	opNot:            "not",
	opBitNot:         "bitnot",
	opToInt:          "toint",
	opToFloat:        "tofloat",
	opConvStr:        "convstr",
	opIncDec:         "incdec",
	opIndex:          "index",
	opIndexLVCheck:   "indexlvcheck",
	opIndexLVGet:     "indexlvget",
	opIndexSetAt:     "indexsetat",
	opSelect:         "select",
	opFieldLVCheck:   "fieldlvcheck",
	opFieldLVGet:     "fieldlvget",
	opFieldSetAt:     "fieldsetat",
	opSliceExpr:      "sliceexpr",
	opNewStruct:      "newstruct",
	opSetField:       "setfield",
	opMakeSliceLit:   "makeslicelit",
	opNewMap:         "newmap",
	opMapLitSet:      "maplitset",
	opLen:            "len",
	opCap:            "cap",
	opAppend:         "append",
	opCopy:           "copy",
	opDelete:         "delete",
	opMin:            "minmax",
	opPrintln:        "println",
	opPanic:          "panic",
	opMakeSlice:      "makeslice",
	opMakeMap:        "makemap",
	opNewNamed:       "newnamed",
	opLoadCallee:     "loadcallee",
	opCheckFunc:      "checkfunc",
	opMethodResolve:  "methodresolve",
	opCallValue:      "callvalue",
	opCallIntrinsic:  "callintrinsic",
	opReturnValues:   "returnvalues",
	opReturnRes:      "returnres",
	opReturnBare:     "returnbare",
	opLoopEnter:      "loopenter",
	opLoopLeave:      "loopleave",
	opIterInc:        "iterinc",
	opSetTop:         "settop",
	opRangeStart:     "rangestart",
	opRangeNext:      "rangenext",
	opRangeKey:       "rangekey",
	opRangeVal:       "rangeval",
	opCaseEq:         "caseeq",
	opFail:           "fail",
}

func opName(c OpCode) string {
	if n, ok := opNames[c]; ok {
		return n
	}
	return fmt.Sprintf("op%d", c)
}
