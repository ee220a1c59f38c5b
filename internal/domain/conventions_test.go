package domain_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"ilpec/internal/coloring"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
	"ilpec/internal/partition"
	"ilpec/internal/sched"
)

// fixture is one built-in adapter with valid values for every argument
// slot; each probe swaps exactly one slot for a bad value.
type fixture struct {
	d      domain.Domain
	p, s   any // valid problem and solution
	c      any // a valid change (delta-expressible for a DeltaEncoder)
	spec   json.RawMessage
	encode func() domain.Encoding // a fresh encoding of p
}

// wrongEncoding is an Encoding no built-in adapter produced.
type wrongEncoding struct{}

func (wrongEncoding) ILP() *ilp.Model                    { return ilp.NewModel(false) }
func (wrongEncoding) Decode(ilp.Solution) (any, error)   { return nil, nil }
func (wrongEncoding) WarmStart(any) (ilp.Solution, bool) { return nil, false }

// probe calls one method with the bad value in one slot and describes
// the outcome.
type probe struct {
	method string
	call   func(fx fixture, bad any) string
	want   func(fx fixture) string
}

// outcome describes a call that returned: "error" when err is non-nil
// and every other result is an untyped nil, "zero" when err is nil and
// every result is its zero value (nil, 0, false), "value" otherwise.
func outcome(err error, vals ...any) string {
	if err != nil {
		for _, v := range vals {
			if v != nil {
				return fmt.Sprintf("error beside a non-nil %T", v)
			}
		}
		return "error"
	}
	for _, v := range vals {
		if v != nil && !reflect.ValueOf(v).IsZero() {
			return "value"
		}
	}
	return "zero"
}

func is(s string) func(fixture) string { return func(fixture) string { return s } }

// marker is the outcome of a fingerprint that wrote the bad-value marker.
func marker(kind string) func(fixture) string {
	return func(fx fixture) string {
		var buf bytes.Buffer
		domain.WriteString(&buf, fx.d.Name()+"-bad-"+kind)
		return "writes " + strconv.Quote(buf.String())
	}
}

func writes(fp func(*bytes.Buffer)) string {
	var buf bytes.Buffer
	fp(&buf)
	return "writes " + strconv.Quote(buf.String())
}

// encodeDelta is the outcome of EncodeDelta, or "no delta encoder".
func encodeDelta(d domain.Domain, enc domain.Encoding, p any, changes []any) string {
	de, ok := d.(domain.DeltaEncoder)
	if !ok {
		return "no delta encoder"
	}
	delta, ok := de.EncodeDelta(enc, p, changes)
	return outcome(nil, delta, ok)
}

func zeroDelta(fx fixture) string {
	if _, ok := fx.d.(domain.DeltaEncoder); !ok {
		return "no delta encoder"
	}
	return "zero"
}

var problemProbes = []probe{
	{"Validate", func(fx fixture, b any) string { return outcome(fx.d.Validate(b)) }, is("error")},
	{"CloneProblem", func(fx fixture, b any) string { return outcome(nil, fx.d.CloneProblem(b)) }, is("panic")},
	{"ProblemSize", func(fx fixture, b any) string {
		u, c := fx.d.ProblemSize(b)
		return outcome(nil, u, c)
	}, is("zero")},
	{"RenderProblem", func(fx fixture, b any) string { return outcome(nil, fx.d.RenderProblem(b)) }, is("zero")},
	{"ApplyChanges", func(fx fixture, b any) string {
		v, err := fx.d.ApplyChanges(b, []any{fx.c})
		return outcome(err, v)
	}, is("error")},
	{"ExtendSolution", func(fx fixture, b any) string {
		v, err := fx.d.ExtendSolution(b, fx.s)
		return outcome(err, v)
	}, is("error")},
	{"Verify", func(fx fixture, b any) string { return outcome(fx.d.Verify(b, fx.s)) }, is("error")},
	// Render reads only the solution.
	{"Render", func(fx fixture, b any) string { return outcome(nil, fx.d.Render(b, fx.s)) }, is("value")},
	{"ParseSolution", func(fx fixture, b any) string {
		v, err := fx.d.ParseSolution(b, fx.spec)
		return outcome(err, v)
	}, is("error")},
	// DontCares reads only the solution.
	{"DontCares", func(fx fixture, b any) string { return strconv.Itoa(fx.d.DontCares(b, fx.s)) },
		func(fx fixture) string { return strconv.Itoa(fx.d.DontCares(fx.p, fx.s)) }},
	{"Flex", func(fx fixture, b any) string {
		rep, err := fx.d.Flex(b, fx.s, 1)
		if err == nil {
			return outcome(nil, rep)
		}
		return outcome(err)
	}, is("error")},
	{"Encode", func(fx fixture, b any) string {
		enc, err := fx.d.Encode(b)
		return outcome(err, enc)
	}, is("error")},
	// EnableTerms reads only the encoding. PreserveTerms' problem slot is
	// not pinned: only the cnf adapter read it.
	{"EnableTerms", func(fx fixture, b any) string {
		return outcome(fx.d.EnableTerms(fx.encode(), b, domain.EnableOptions{Weight: 1}))
	}, is("zero")},
	{"AffectedRegion", func(fx fixture, b any) string {
		r, err := fx.d.AffectedRegion(b, fx.s)
		return outcome(err, r)
	}, is("error")},
	{"FingerprintProblem", func(fx fixture, b any) string {
		return writes(func(w *bytes.Buffer) { fx.d.FingerprintProblem(w, b) })
	}, marker("problem")},
	{"EncodeDelta", func(fx fixture, b any) string {
		return encodeDelta(fx.d, fx.encode(), b, []any{fx.c})
	}, zeroDelta},
}

var solutionProbes = []probe{
	{"CloneSolution", func(fx fixture, b any) string { return outcome(nil, fx.d.CloneSolution(b)) }, is("panic")},
	{"ExtendSolution", func(fx fixture, b any) string {
		v, err := fx.d.ExtendSolution(fx.p, b)
		return outcome(err, v)
	}, is("error")},
	{"Verify", func(fx fixture, b any) string { return outcome(fx.d.Verify(fx.p, b)) }, is("error")},
	{"Render", func(fx fixture, b any) string { return outcome(nil, fx.d.Render(fx.p, b)) }, is("zero")},
	{"Agreement/prev", func(fx fixture, b any) string { return outcome(nil, fx.d.Agreement(b, fx.s)) }, is("zero")},
	{"Agreement/next", func(fx fixture, b any) string { return outcome(nil, fx.d.Agreement(fx.s, b)) }, is("zero")},
	{"DontCares", func(fx fixture, b any) string { return outcome(nil, fx.d.DontCares(fx.p, b)) }, is("zero")},
	{"Flex", func(fx fixture, b any) string {
		rep, err := fx.d.Flex(fx.p, b, 1)
		if err == nil {
			return outcome(nil, rep)
		}
		return outcome(err)
	}, is("error")},
	{"PreserveTerms", func(fx fixture, b any) string {
		return outcome(fx.d.PreserveTerms(fx.encode(), fx.p, b))
	}, is("error")},
	{"AffectedRegion", func(fx fixture, b any) string {
		r, err := fx.d.AffectedRegion(fx.p, b)
		return outcome(err, r)
	}, is("error")},
	{"FingerprintSolution", func(fx fixture, b any) string {
		return writes(func(w *bytes.Buffer) { fx.d.FingerprintSolution(w, b) })
	}, marker("solution")},
}

var changeProbes = []probe{
	{"RenderChange", func(fx fixture, b any) string { return outcome(nil, fx.d.RenderChange(b)) }, is("zero")},
	{"ApplyChanges/first", func(fx fixture, b any) string {
		v, err := fx.d.ApplyChanges(fx.p, []any{b})
		return outcome(err, v)
	}, is("error")},
	{"ApplyChanges/second", func(fx fixture, b any) string {
		v, err := fx.d.ApplyChanges(fx.p, []any{fx.c, b})
		return outcome(err, v)
	}, is("error")},
	{"Tightening", func(fx fixture, b any) string { return outcome(nil, fx.d.Tightening(b)) }, is("zero")},
	{"EncodeDelta", func(fx fixture, b any) string {
		return encodeDelta(fx.d, fx.encode(), fx.p, []any{fx.c, b})
	}, zeroDelta},
}

var encodingProbes = []probe{
	{"PreserveTerms", func(fx fixture, b any) string {
		return outcome(fx.d.PreserveTerms(b.(domain.Encoding), fx.p, fx.s))
	}, is("error")},
	{"EnableTerms", func(fx fixture, b any) string {
		return outcome(fx.d.EnableTerms(b.(domain.Encoding), fx.p, domain.EnableOptions{Weight: 1}))
	}, is("error")},
	{"EncodeDelta", func(fx fixture, b any) string {
		return encodeDelta(fx.d, b.(domain.Encoding), fx.p, []any{fx.c})
	}, zeroDelta},
}

var specProbes = []probe{
	{"ParseProblem", func(fx fixture, b any) string {
		v, err := fx.d.ParseProblem(b.(json.RawMessage))
		return outcome(err, v)
	}, is("error")},
	{"ParseChange", func(fx fixture, b any) string {
		v, err := fx.d.ParseChange(b.(json.RawMessage))
		return outcome(err, v)
	}, is("error")},
	{"ParseSolution", func(fx fixture, b any) string {
		v, err := fx.d.ParseSolution(fx.p, b.(json.RawMessage))
		return outcome(err, v)
	}, is("error")},
}

// newFixture solves the adapter's conformance problem and picks a change
// its delta encoder (if any) can express.
func newFixture(t *testing.T, d domain.Domain) fixture {
	t.Helper()
	c := d.(domain.Fixtured).Conformance()
	sol, _, err := domain.Solve(d, c.Problem, c.Solve, nil)
	if err != nil {
		t.Fatalf("%s: solve fixture: %v", d.Name(), err)
	}
	spec, err := json.Marshal(d.Render(c.Problem, sol))
	if err != nil {
		t.Fatal(err)
	}
	fx := fixture{d: d, p: c.Problem, s: sol, c: c.Tightening[0], spec: spec,
		encode: func() domain.Encoding {
			enc, err := d.Encode(c.Problem)
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}}
	if de, ok := d.(domain.DeltaEncoder); ok {
		found := false
		for _, ch := range append(append([]any(nil), c.Tightening...), c.Relaxing...) {
			if _, ok := de.EncodeDelta(fx.encode(), fx.p, []any{ch}); ok {
				fx.c, found = ch, true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no fixture change is delta-expressible", d.Name())
		}
	}
	return fx
}

// typedNil is a nil of v's dynamic type (v must be a pointer or slice).
func typedNil(v any) any { return reflect.Zero(reflect.TypeOf(v)).Interface() }

// TestAdapterConventions pins how each built-in adapter treats a value of
// the wrong dynamic type, a typed nil, and (coloring) a problem without a
// graph in every argument slot of every Domain method: the Clone methods
// panic, ProblemSize, the Render methods, Tightening, Agreement and
// DontCares return zero values, the fingerprints write
// "<name>-bad-problem" / "<name>-bad-solution", EncodeDelta reports
// (nil, false), and every other method returns an error beside untyped
// nil results.
func TestAdapterConventions(t *testing.T) {
	deltas := map[string]bool{"cnf": false, "coloring": true, "sched": true, "partition": false}
	for _, d := range []domain.Domain{core.CNF(), coloring.Domain(), sched.Domain(), partition.Domain()} {
		t.Run(d.Name(), func(t *testing.T) {
			if _, ok := d.(domain.DeltaEncoder); ok != deltas[d.Name()] {
				t.Fatalf("implements DeltaEncoder = %v, want %v", ok, deltas[d.Name()])
			}
			fx := newFixture(t, d)
			badProblems := []any{nil, "wrong", fx.s, typedNil(fx.p)}
			if d.Name() == "coloring" {
				badProblems = append(badProblems, &coloring.Problem{K: 3})
			}
			slots := []struct {
				name   string
				bad    []any
				probes []probe
			}{
				{"problem", badProblems, problemProbes},
				{"solution", []any{nil, "wrong", fx.p, typedNil(fx.s)}, solutionProbes},
				{"change", []any{nil, "wrong", &fx.c}, changeProbes},
				{"encoding", []any{wrongEncoding{}}, encodingProbes},
				{"spec", []any{json.RawMessage(`[`), json.RawMessage(`{"bogus": 1}`)}, specProbes},
			}
			for _, slot := range slots {
				for _, pr := range slot.probes {
					want := pr.want(fx)
					for _, b := range slot.bad {
						if got := call(pr, fx, b); got != want {
							t.Errorf("%s with %s %T(%v): %s, want %s", pr.method, slot.name, b, b, got, want)
						}
					}
				}
			}
		})
	}
}

func call(pr probe, fx fixture, bad any) (got string) {
	defer func() {
		if recover() != nil {
			got = "panic"
		}
	}()
	return pr.call(fx, bad)
}
