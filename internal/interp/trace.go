package interp

// Loop tracing. Any number of loops can be traced in one run; each has
// its own trace state, and every load and store goes to each loop that
// is active at that moment, tagged with that loop's own iteration and
// top-level body statement. Both engines share this mechanism: the
// tree-walker finds a loop's state by Ref, the VM through a per-run
// table indexed by its dense ref ids.

// A TraceSink receives the trace of one loop. Access gets every load
// and store executed while the loop is active, including inside calls
// and inner loops; Leave gets the completed-iteration count at the end
// of each outermost activation.
type TraceSink interface {
	Access(ev MemEvent)
	Leave(iters int)
}

// loopTrace is the run state of one traced loop. Only the outermost
// activation counts iterations and sets the top statement: a recursive
// re-entry raises depth and nothing else, so its accesses carry the
// outer activation's iteration and statement.
type loopTrace struct {
	ref   Ref
	sink  TraceSink
	depth int // live activations
	iter  int // iteration of the outermost activation; reset on each outermost entry
	top   int // top-level body statement being executed, -1 outside one
}

// memSink records the Options.TargetLoop trace in the run's Profile.
type memSink struct{ prof *Profile }

func (s memSink) Access(ev MemEvent) { s.prof.Mem = append(s.prof.Mem, ev) }
func (s memSink) Leave(iters int)    { s.prof.TargetIters = iters }

// TraceLoops makes every later run on m trace each loop in sinks into
// its sink, all loops in the same run; nil stops tracing. A sink sees
// the events of every such run. Options.TargetLoop traces one more
// loop for a single run into that run's Profile, and takes precedence
// when it names a loop that sinks names too.
func (m *Machine) TraceLoops(sinks map[Ref]TraceSink) { m.sinks = sinks }

// beginTrace prepares the traced loops of a run. It also drops any
// activation a failed previous run left open. The traces slice does not
// change during the run, so pointers into it stay valid.
func (m *Machine) beginTrace(target Ref) {
	m.traces = m.traces[:0]
	m.active = m.active[:0]
	hasTarget := target != Ref{}
	if hasTarget {
		m.traces = append(m.traces, loopTrace{ref: target, sink: memSink{m.prof}, top: -1})
	}
	for ref, sink := range m.sinks {
		if !hasTarget || ref != target {
			m.traces = append(m.traces, loopTrace{ref: ref, sink: sink, top: -1})
		}
	}
}

// indexTraces builds the tree-walker's Ref lookup of this run's traced
// loops.
func (m *Machine) indexTraces() {
	clear(m.traceRef)
	if len(m.traces) == 0 {
		return
	}
	if m.traceRef == nil {
		m.traceRef = make(map[Ref]*loopTrace, len(m.traces))
	}
	for i := range m.traces {
		m.traceRef[m.traces[i].ref] = &m.traces[i]
	}
}

// openTrace and closeTrace bracket one activation of a traced loop.
// Activations nest, so the loop closing is always the last active one.
func (m *Machine) openTrace(lt *loopTrace) {
	lt.depth++
	if lt.depth == 1 {
		lt.iter = 0
		m.active = append(m.active, lt)
	}
}

func (m *Machine) closeTrace(lt *loopTrace) {
	if lt.depth == 1 {
		lt.sink.Leave(lt.iter)
		m.active = m.active[:len(m.active)-1]
	}
	lt.depth--
}

// load and store advance the clock and deliver the access to every
// active traced loop.
func (m *Machine) load(addr uint64) {
	m.tick(1)
	for _, lt := range m.active {
		lt.sink.Access(MemEvent{Addr: addr, Kind: MemLoad, Iter: lt.iter, TopStmt: lt.top})
	}
}

func (m *Machine) store(addr uint64) {
	m.tick(1)
	for _, lt := range m.active {
		lt.sink.Access(MemEvent{Addr: addr, Kind: MemStore, Iter: lt.iter, TopStmt: lt.top})
	}
}
