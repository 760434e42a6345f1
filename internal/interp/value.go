package interp

import (
	"fmt"
	"sort"

	"patty/internal/deps"
)

// Value is any interpreter value: int64, float64, bool, string, nil,
// *Slice, *Map, *Struct, *Func.
type Value = any

// Slice is a slice value with traced element addresses.
type Slice struct {
	Elems []Value
	base  uint64 // address of element 0
}

// Len returns the slice length.
func (s *Slice) Len() int { return len(s.Elems) }

// Map is a map value. Keys are int64 or string.
type Map struct {
	M     map[Value]Value
	addrs map[Value]uint64
}

// sortedKeys returns the map's keys in deterministic order.
func (m *Map) sortedKeys() []Value {
	keys := make([]Value, 0, len(m.M))
	for k := range m.M {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessValue(keys[i], keys[j]) })
	return keys
}

func lessValue(a, b Value) bool {
	switch x := a.(type) {
	case int64:
		if y, ok := b.(int64); ok {
			return x < y
		}
	case string:
		if y, ok := b.(string); ok {
			return x < y
		}
	case float64:
		if y, ok := b.(float64); ok {
			return x < y
		}
	}
	return fmt.Sprint(a) < fmt.Sprint(b)
}

// Struct is a struct instance. Structs have reference semantics in the
// interpreter (like the C# objects of the original system): assignment
// aliases rather than copies, and &T{...} is the same value as T{...}.
// Its field values are indexed like its type's field list, and field i
// lives at address base+i.
type Struct struct {
	Type   string
	typ    *structType
	fields []Value
	base   uint64
}

// Get returns field name's value.
func (s *Struct) Get(name string) (Value, bool) {
	i, ok := s.typ.index[name]
	if !ok {
		return nil, false
	}
	return s.fields[i], true
}

// FieldNames returns the declared field order.
func (s *Struct) FieldNames() []string { return s.typ.fields }

// Func is a callable program function, method or closure.
type Func struct {
	Name     string
	decl     declLike
	captured frame // a tree-walker closure's captured cells
	recv     Value // bound receiver for method values
}

func (f *Func) String() string { return "func " + f.Name }

// declLike abstracts *ast.FuncDecl and *ast.FuncLit.
type declLike interface{ isDecl() }

// cell is one addressable storage location.
type cell struct {
	addr uint64
	val  Value
}

// frame holds the cells of one tree-walker call, keyed by the variable
// each identifier resolves to (deps.Resolve). Every name is bound
// lexically, so a call needs one frame and no nested scopes: a
// declaration executed again (a loop body's next iteration) replaces
// its variable's cell, and a closure keeps the cells it captured.
type frame map[*deps.Symbol]*cell

// FormatValue renders a value for diagnostics and differential
// comparison (deep, deterministic: map keys are sorted).
func FormatValue(v Value) string { return formatValue(v) }

// Formatting for diagnostics and example output.
func formatValue(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%g", x)
	case bool:
		return fmt.Sprintf("%t", x)
	case string:
		return x
	case *Slice:
		out := "["
		for i, e := range x.Elems {
			if i > 0 {
				out += " "
			}
			out += formatValue(e)
		}
		return out + "]"
	case *Map:
		out := "map["
		for i, k := range x.sortedKeys() {
			if i > 0 {
				out += " "
			}
			out += formatValue(k) + ":" + formatValue(x.M[k])
		}
		return out + "]"
	case *Struct:
		out := x.Type + "{"
		for i, f := range x.typ.fields {
			if i > 0 {
				out += " "
			}
			out += f + ":" + formatValue(x.fields[i])
		}
		return out + "}"
	case *Func:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// truthy asserts a bool value.
func truthy(v Value) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("interp: non-bool condition %s", formatValue(v))
	}
	return b, nil
}

// equalValues implements == for the subset. An int64 and a float64
// compare as numbers, as `<` does: the interpreter keeps an untyped
// integer constant as int64, where Go converts it to the float.
func equalValues(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		}
		return false
	case float64:
		switch y := b.(type) {
		case float64:
			return x == y
		case int64:
			return x == float64(y)
		}
		return false
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	default:
		return a == b // reference identity for slices/maps/structs/funcs
	}
}
