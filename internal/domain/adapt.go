package domain

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"reflect"
)

// Typed is the Domain method set over an adapter's own types: problems
// P, solutions S, changes C and encodings E. Adapt turns it into a
// Domain and owns every conversion from and to any, so the typed methods
// only ever see values of their own types, never a nil one.
//
// Where no built-in adapter reads a Domain argument the typed method
// drops it: Render and DontCares see only the solution, PreserveTerms
// and EnableTerms only the encoding beside the previous solution or the
// options.
type Typed[P, S, C any, E Encoding] interface {
	Name() string
	Validate(problem P) error
	CloneProblem(problem P) P
	ProblemSize(problem P) (units, constraints int)
	ParseProblem(spec json.RawMessage) (P, error)
	RenderProblem(problem P) any
	ParseChange(spec json.RawMessage) (C, error)
	RenderChange(change C) any
	ApplyChanges(problem P, changes Changes[C]) (P, error)
	Tightening(change C) bool
	CloneSolution(sol S) S
	ExtendSolution(problem P, prev S) (S, error)
	Verify(problem P, sol S) error
	Render(sol S) any
	ParseSolution(problem P, spec json.RawMessage) (S, error)
	Agreement(prev, next S) float64
	DontCares(sol S) int
	Flex(problem P, sol S, k int) (FlexReport, error)
	Encode(problem P) (E, error)
	PreserveTerms(enc E, prev S) error
	EnableTerms(enc E, opts EnableOptions) error
	AffectedRegion(problem P, prev S) (Region, error)
	FingerprintProblem(w io.Writer, problem P)
	FingerprintSolution(w io.Writer, sol S)
	Conformance() Conformance
}

// typedDeltaEncoder is the typed form of DeltaEncoder. The Domain Adapt
// returns implements DeltaEncoder exactly when its Typed value has this
// method, since Instance.Sync branches on that assertion.
type typedDeltaEncoder[P, C any, E Encoding] interface {
	EncodeDelta(prev E, prevProblem P, changes Changes[C]) (*Delta, bool)
}

// problemChecker is implemented by a Typed value whose non-nil problems
// can still be unusable (a coloring problem without a graph); Adapt
// treats a problem it rejects like one of the wrong type.
type problemChecker[P any] interface {
	Usable(problem P) bool
}

// Adapt returns the Domain (and Fixtured) behind a typed adapter. Values
// of the wrong dynamic type, typed nils and unusable problems get one
// treatment everywhere: CloneProblem and CloneSolution panic,
// ProblemSize, RenderProblem, Render, RenderChange, Tightening,
// Agreement and DontCares return zero values, the fingerprints write
// "<name>-bad-problem" or "<name>-bad-solution", EncodeDelta reports
// (nil, false), and every other method returns an error. A method that
// returns an error returns untyped nil values beside it.
func Adapt[P, S, C any, E Encoding](t Typed[P, S, C, E]) Domain {
	a := &adapter[P, S, C, E]{
		t: t, name: t.Name(),
		nilP: nilable[P](), nilS: nilable[S](), nilC: nilable[C](), nilE: nilable[E](),
	}
	if pc, ok := t.(problemChecker[P]); ok {
		a.usable = pc.Usable
	}
	if de, ok := t.(typedDeltaEncoder[P, C, E]); ok {
		return deltaAdapter[P, S, C, E]{a, de}
	}
	return a
}

type adapter[P, S, C any, E Encoding] struct {
	t      Typed[P, S, C, E]
	name   string
	usable func(P) bool
	// Whether a P, S, C or E can be nil, decided once so that values of
	// a struct type never reach reflect.
	nilP, nilS, nilC, nilE bool
}

type deltaAdapter[P, S, C any, E Encoding] struct {
	*adapter[P, S, C, E]
	de typedDeltaEncoder[P, C, E]
}

// nilable reports whether a T can be, or for an interface type hold, a
// nil pointer, slice or map.
func nilable[T any]() bool {
	switch reflect.TypeFor[T]().Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface:
		return true
	}
	return false
}

// as asserts v to T and, when T is nilable, rejects a nil pointer, slice
// or map. reflect.ValueOf on an interface value allocates nothing.
func as[T any](v any, nilable bool) (T, bool) {
	t, ok := v.(T)
	if ok && nilable {
		switch rv := reflect.ValueOf(v); rv.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			ok = !rv.IsNil()
		}
	}
	return t, ok
}

// untyped returns v as an any, or an untyped nil beside a non-nil error.
func untyped[T any](v T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// conv asserts v to T like as, naming what v is in the error.
func conv[T any](name, what string, v any, nilable bool) (T, error) {
	t, ok := as[T](v, nilable)
	if !ok {
		return t, fmt.Errorf("%s: %s is %T, want %T", name, what, v, t)
	}
	return t, nil
}

func (a *adapter[P, S, C, E]) problem(v any) (P, error) {
	p, err := conv[P](a.name, "problem", v, a.nilP)
	if err == nil && a.usable != nil && !a.usable(p) {
		var zero P
		return zero, fmt.Errorf("%s: problem is %T, want %T", a.name, v, zero)
	}
	return p, err
}

func (a *adapter[P, S, C, E]) solution(v any) (S, error) {
	return conv[S](a.name, "solution", v, a.nilS)
}

// both converts a problem and a solution.
func (a *adapter[P, S, C, E]) both(problem, sol any) (P, S, error) {
	p, err := a.problem(problem)
	if err != nil {
		var s S
		return p, s, err
	}
	s, err := a.solution(sol)
	return p, s, err
}

func (a *adapter[P, S, C, E]) encoding(v Encoding) (E, error) {
	return conv[E](a.name, "encoding", v, a.nilE)
}

// Changes is a batch of changes that Adapt has checked to be Cs. It
// reads them in place from the []any a Domain method was given, so
// handing a batch to a typed method copies nothing.
type Changes[C any] struct{ vs []any }

// All yields each change with its index.
func (cs Changes[C]) All() iter.Seq2[int, C] {
	return func(yield func(int, C) bool) {
		for i, v := range cs.vs {
			if !yield(i, v.(C)) {
				return
			}
		}
	}
}

// Slice copies the changes into a new []C.
func (cs Changes[C]) Slice() []C {
	out := make([]C, len(cs.vs))
	for i, v := range cs.vs {
		out[i] = v.(C)
	}
	return out
}

func (a *adapter[P, S, C, E]) changes(vs []any) (Changes[C], error) {
	for i, v := range vs {
		if c, ok := as[C](v, a.nilC); !ok {
			return Changes[C]{}, fmt.Errorf("%s: change %d is %T, want %T", a.name, i, v, c)
		}
	}
	return Changes[C]{vs}, nil
}

func (a *adapter[P, S, C, E]) Name() string { return a.name }

func (a *adapter[P, S, C, E]) Conformance() Conformance { return a.t.Conformance() }

func (a *adapter[P, S, C, E]) Validate(problem any) error {
	p, err := a.problem(problem)
	if err != nil {
		return err
	}
	return a.t.Validate(p)
}

func (a *adapter[P, S, C, E]) CloneProblem(problem any) any {
	p, err := a.problem(problem)
	if err != nil {
		panic(err)
	}
	return a.t.CloneProblem(p)
}

func (a *adapter[P, S, C, E]) ProblemSize(problem any) (units, constraints int) {
	p, err := a.problem(problem)
	if err != nil {
		return 0, 0
	}
	return a.t.ProblemSize(p)
}

func (a *adapter[P, S, C, E]) ParseProblem(spec json.RawMessage) (any, error) {
	return untyped(a.t.ParseProblem(spec))
}

func (a *adapter[P, S, C, E]) RenderProblem(problem any) any {
	p, err := a.problem(problem)
	if err != nil {
		return nil
	}
	return a.t.RenderProblem(p)
}

func (a *adapter[P, S, C, E]) ParseChange(spec json.RawMessage) (any, error) {
	return untyped(a.t.ParseChange(spec))
}

func (a *adapter[P, S, C, E]) RenderChange(change any) any {
	c, ok := as[C](change, a.nilC)
	if !ok {
		return nil
	}
	return a.t.RenderChange(c)
}

func (a *adapter[P, S, C, E]) ApplyChanges(problem any, changes []any) (any, error) {
	p, err := a.problem(problem)
	if err != nil {
		return nil, err
	}
	cs, err := a.changes(changes)
	if err != nil {
		return nil, err
	}
	return untyped(a.t.ApplyChanges(p, cs))
}

func (a *adapter[P, S, C, E]) Tightening(change any) bool {
	c, ok := as[C](change, a.nilC)
	return ok && a.t.Tightening(c)
}

func (a *adapter[P, S, C, E]) CloneSolution(sol any) any {
	s, err := a.solution(sol)
	if err != nil {
		panic(err)
	}
	return a.t.CloneSolution(s)
}

func (a *adapter[P, S, C, E]) ExtendSolution(problem, prev any) (any, error) {
	p, s, err := a.both(problem, prev)
	if err != nil {
		return nil, err
	}
	return untyped(a.t.ExtendSolution(p, s))
}

func (a *adapter[P, S, C, E]) Verify(problem, sol any) error {
	p, s, err := a.both(problem, sol)
	if err != nil {
		return err
	}
	return a.t.Verify(p, s)
}

func (a *adapter[P, S, C, E]) Render(_, sol any) any {
	s, err := a.solution(sol)
	if err != nil {
		return nil
	}
	return a.t.Render(s)
}

func (a *adapter[P, S, C, E]) ParseSolution(problem any, spec json.RawMessage) (any, error) {
	p, err := a.problem(problem)
	if err != nil {
		return nil, err
	}
	return untyped(a.t.ParseSolution(p, spec))
}

func (a *adapter[P, S, C, E]) Agreement(prev, next any) float64 {
	ps, err1 := a.solution(prev)
	ns, err2 := a.solution(next)
	if err1 != nil || err2 != nil {
		return 0
	}
	return a.t.Agreement(ps, ns)
}

func (a *adapter[P, S, C, E]) DontCares(_, sol any) int {
	s, err := a.solution(sol)
	if err != nil {
		return 0
	}
	return a.t.DontCares(s)
}

func (a *adapter[P, S, C, E]) Flex(problem, sol any, k int) (FlexReport, error) {
	p, s, err := a.both(problem, sol)
	if err != nil {
		return FlexReport{}, err
	}
	return a.t.Flex(p, s, k)
}

func (a *adapter[P, S, C, E]) Encode(problem any) (Encoding, error) {
	p, err := a.problem(problem)
	if err != nil {
		return nil, err
	}
	e, err := a.t.Encode(p)
	if err != nil {
		return nil, err
	}
	return e, nil
}

func (a *adapter[P, S, C, E]) PreserveTerms(enc Encoding, _, prev any) error {
	e, err := a.encoding(enc)
	if err != nil {
		return err
	}
	s, err := a.solution(prev)
	if err != nil {
		return err
	}
	return a.t.PreserveTerms(e, s)
}

func (a *adapter[P, S, C, E]) EnableTerms(enc Encoding, _ any, opts EnableOptions) error {
	e, err := a.encoding(enc)
	if err != nil {
		return err
	}
	return a.t.EnableTerms(e, opts)
}

func (a *adapter[P, S, C, E]) AffectedRegion(problem, prev any) (Region, error) {
	p, s, err := a.both(problem, prev)
	if err != nil {
		return nil, err
	}
	r, err := a.t.AffectedRegion(p, s)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (a *adapter[P, S, C, E]) FingerprintProblem(w io.Writer, problem any) {
	p, err := a.problem(problem)
	if err != nil {
		WriteString(w, a.name+"-bad-problem")
		return
	}
	a.t.FingerprintProblem(w, p)
}

func (a *adapter[P, S, C, E]) FingerprintSolution(w io.Writer, sol any) {
	s, err := a.solution(sol)
	if err != nil {
		WriteString(w, a.name+"-bad-solution")
		return
	}
	a.t.FingerprintSolution(w, s)
}

func (d deltaAdapter[P, S, C, E]) EncodeDelta(prev Encoding, prevProblem any, changes []any) (*Delta, bool) {
	e, err := d.encoding(prev)
	if err != nil {
		return nil, false
	}
	p, err := d.problem(prevProblem)
	if err != nil {
		return nil, false
	}
	cs, err := d.changes(changes)
	if err != nil {
		return nil, false
	}
	return d.de.EncodeDelta(e, p, cs)
}
