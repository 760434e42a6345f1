package interp

import "fmt"

// Engine selects how a Machine executes a run. The bytecode VM is the
// production engine. The tree-walking interpreter is the reference it
// is checked against: both give bit-for-bit the same values, virtual
// time, per-statement profile and memory trace, which the differential
// suite in internal/difftest enforces across the generator space.
type Engine int

const (
	// EngineVM runs the compiled bytecode; it is the zero value.
	EngineVM Engine = iota
	// EngineTree runs the reference tree-walking interpreter.
	EngineTree
)

func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "vm"
}

// SetEngine pins this machine to an engine for every later run.
func (m *Machine) SetEngine(e Engine) { m.engine = e }

// compiled returns the cached bytecode program, compiling on first use.
func (m *Machine) compiled() *vmCompiled {
	if m.vmc == nil {
		m.vmc = m.compileProgram()
	}
	return m.vmc
}

// Run executes the named function with the given arguments on the
// machine's engine and returns its results together with the collected
// profile.
func (m *Machine) Run(fnName string, args []Value, opts Options) ([]Value, *Profile, error) {
	if m.prog.Func(fnName) == nil {
		return nil, nil, fmt.Errorf("interp: function %q not found", fnName)
	}
	if m.engine == EngineTree {
		return m.runTree(fnName, args, opts)
	}
	return m.runVM(m.compiled(), fnName, args, opts)
}
