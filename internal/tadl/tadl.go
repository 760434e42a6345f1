// Package tadl implements Patty's Tunable Architecture Description
// Language: the serialized architecture expressions that form the
// interface between pattern detection and code transformation
// (paper §2.1, adapted from Schaefer et al.'s TADL [23]).
//
// Grammar:
//
//	arch    := call | seq
//	call    := ("forall" | "master") "(" seq ")"
//	seq     := par ("=>" par)*            pipeline stage chain
//	par     := term ("||" term)*          parallel group (master/worker)
//	term    := label "+"? | "(" seq ")" "+"?
//	label   := identifier
//
// "+" marks a stage replicable. The paper's running example
// annotates as:
//
//	(A || B || C+) => D => E
//
// In source files, TADL travels in //tadl: comment directives — the Go
// analogue of the paper's C# #region preprocessor directives: visible
// to TADL-aware tooling, inert for everything else:
//
//	//tadl:arch pipeline (A || B || C+) => D => E
//	for _, img := range in {        // the annotated loop
//		//tadl:stage A
//		c := crop(img)
//		...
//	}
package tadl

import (
	"fmt"
	"strings"
)

// Node is a TADL architecture expression node.
type Node interface {
	String() string
	// Labels appends all stage labels in order.
	labels(*[]string)
}

// Label is a stage reference.
type Label struct {
	Name string
	// Replicable marks the stage safe for replication ("+" suffix).
	Replicable bool
}

// String renders the label in TADL syntax.
func (l *Label) String() string {
	if l.Replicable {
		return l.Name + "+"
	}
	return l.Name
}

func (l *Label) labels(out *[]string) { *out = append(*out, l.Name) }

// Seq is a pipeline stage chain (A => B => C).
type Seq struct {
	Stages []Node
}

// String renders the chain.
func (s *Seq) String() string {
	parts := make([]string, len(s.Stages))
	for i, st := range s.Stages {
		parts[i] = st.String()
	}
	return strings.Join(parts, " => ")
}

func (s *Seq) labels(out *[]string) {
	for _, st := range s.Stages {
		st.labels(out)
	}
}

// Par is a parallel group (A || B || C), the master/worker shape.
type Par struct {
	Branches   []Node
	Replicable bool
}

// String renders the group parenthesized.
func (p *Par) String() string {
	parts := make([]string, len(p.Branches))
	for i, b := range p.Branches {
		parts[i] = b.String()
	}
	s := "(" + strings.Join(parts, " || ") + ")"
	if p.Replicable {
		s += "+"
	}
	return s
}

func (p *Par) labels(out *[]string) {
	for _, b := range p.Branches {
		b.labels(out)
	}
}

// Call wraps an expression in a pattern constructor: forall(...) for
// data-parallel loops, master(...) for task pools.
type Call struct {
	Fn  string
	Arg Node
}

// String renders the constructor call.
func (c *Call) String() string { return c.Fn + "(" + c.Arg.String() + ")" }

func (c *Call) labels(out *[]string) { c.Arg.labels(out) }

// Labels returns every stage label in the expression, in order.
func Labels(n Node) []string {
	var out []string
	n.labels(&out)
	return out
}

// Stage is one stage of the runtime pipeline an architecture
// flattens to: a single label, or a parallel group (A || B) whose
// labels run concurrently on the same element (Fig. 3d's
// master/worker-in-a-pipeline).
type Stage struct {
	Labels []string
	// Replicable marks the stage safe for replication: a "+" on its
	// label, on any member of its group, or on the group itself.
	Replicable bool
}

// Name is the runtime stage name: the labels joined with "_".
func (s Stage) Name() string { return strings.Join(s.Labels, "_") }

// Stages flattens a pipeline architecture into its runtime stages, in
// order. A constructor call is unwrapped and a nested chain joins the
// enclosing one; a group's branches must be labels. Code generation
// and the differential executor both build their pipelines from it,
// so the stage indexes of the tuning parameters agree.
func Stages(arch Node) ([]Stage, error) {
	switch n := arch.(type) {
	case *Label:
		return []Stage{{Labels: []string{n.Name}, Replicable: n.Replicable}}, nil
	case *Call:
		return Stages(n.Arg)
	case *Par:
		st := Stage{Replicable: n.Replicable}
		for _, b := range n.Branches {
			l, ok := b.(*Label)
			if !ok {
				return nil, fmt.Errorf("tadl: nested groups are not supported in pipeline stages: %s", n)
			}
			st.Labels = append(st.Labels, l.Name)
			st.Replicable = st.Replicable || l.Replicable
		}
		return []Stage{st}, nil
	case *Seq:
		var out []Stage
		for _, e := range n.Stages {
			sub, err := Stages(e)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	}
	return nil, fmt.Errorf("tadl: unknown node %T", arch)
}

// --- parser ---

type parser struct {
	toks []string
	pos  int
}

// Parse parses a TADL architecture expression.
func Parse(input string) (Node, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("tadl: empty expression")
	}
	p := &parser{toks: toks}
	n, err := p.parseArch()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("tadl: trailing input %q", strings.Join(p.toks[p.pos:], " "))
	}
	return n, nil
}

func lex(input string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == '+':
			toks = append(toks, string(c))
			i++
		case c == '=':
			if i+1 < len(input) && input[i+1] == '>' {
				toks = append(toks, "=>")
				i += 2
			} else {
				return nil, fmt.Errorf("tadl: stray '=' at %d", i)
			}
		case c == '|':
			if i+1 < len(input) && input[i+1] == '|' {
				toks = append(toks, "||")
				i += 2
			} else {
				return nil, fmt.Errorf("tadl: stray '|' at %d", i)
			}
		case isIdentChar(c):
			j := i
			for j < len(input) && isIdentChar(input[j]) {
				j++
			}
			toks = append(toks, input[i:j])
			i = j
		default:
			return nil, fmt.Errorf("tadl: unexpected character %q at %d", c, i)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.'
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("tadl: expected %q, got %q", tok, got)
	}
	return nil
}

func (p *parser) parseArch() (Node, error) {
	if t := p.peek(); t == "forall" || t == "master" {
		fn := p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		arg, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &Call{Fn: fn, Arg: arg}, nil
	}
	return p.parseSeq()
}

func (p *parser) parseSeq() (Node, error) {
	first, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	stages := []Node{first}
	for p.peek() == "=>" {
		p.next()
		n, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		stages = append(stages, n)
	}
	if len(stages) == 1 {
		return stages[0], nil
	}
	return &Seq{Stages: stages}, nil
}

func (p *parser) parsePar() (Node, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	branches := []Node{first}
	for p.peek() == "||" {
		p.next()
		n, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		branches = append(branches, n)
	}
	if len(branches) == 1 {
		return branches[0], nil
	}
	return &Par{Branches: branches}, nil
}

func (p *parser) parseTerm() (Node, error) {
	switch t := p.peek(); {
	case t == "(":
		p.next()
		inner, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if p.peek() == "+" {
			p.next()
			switch n := inner.(type) {
			case *Par:
				n.Replicable = true
			case *Label:
				n.Replicable = true
			default:
				return nil, fmt.Errorf("tadl: '+' cannot apply to a stage chain")
			}
		}
		return inner, nil
	case t == "":
		return nil, fmt.Errorf("tadl: unexpected end of expression")
	case isIdent(t):
		p.next()
		l := &Label{Name: t}
		if p.peek() == "+" {
			p.next()
			l.Replicable = true
		}
		return l, nil
	default:
		return nil, fmt.Errorf("tadl: unexpected token %q", t)
	}
}

func isIdent(t string) bool {
	if t == "" || t == "forall" || t == "master" {
		return false
	}
	for i := 0; i < len(t); i++ {
		if !isIdentChar(t[i]) {
			return false
		}
	}
	return true
}
