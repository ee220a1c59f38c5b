package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"ilpec/internal/domain"
)

// FuzzDomainParseChange feeds arbitrary JSON to every registered domain's
// change decoder — the exact bytes an HTTP client can POST to
// /v1/sessions/{id}/changes and that the store journals verbatim. The
// decoder must never panic, and an accepted change must survive the
// journal round-trip (RenderChange → json.Marshal → ParseChange), since
// crash recovery replays changes from their rendered form.
func FuzzDomainParseChange(f *testing.F) {
	for _, name := range domain.Names() {
		d, ok := domain.Get(name)
		if !ok {
			f.Fatalf("registered domain %q missing from registry", name)
		}
		fx, ok := d.(domain.Fixtured)
		if !ok {
			continue
		}
		for _, raw := range fx.Conformance().TighteningJSON {
			f.Add(name, []byte(raw))
		}
	}
	f.Add("cnf", []byte(`{"kind": "bogus"}`))
	f.Add("coloring", []byte(`null`))
	f.Add("sched", []byte(`{}`))
	f.Add("partition", []byte(`[1, 2, 3]`))
	f.Fuzz(func(t *testing.T, name string, spec []byte) {
		d, ok := domain.Get(name)
		if !ok {
			return // unregistered domain name — nothing to test
		}
		change, err := d.ParseChange(spec)
		if err != nil {
			return
		}
		wire := d.RenderChange(change)
		if wire == nil {
			t.Fatalf("accepted change has no wire form (spec %q)", spec)
		}
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("encode accepted change: %v", err)
		}
		if _, err := d.ParseChange(raw); err != nil {
			t.Fatalf("journal round-trip rejected: %v (spec %q, rendered %s)", err, spec, raw)
		}
	})
}

// FuzzDomainParseProblem feeds arbitrary JSON to every registered
// domain's problem decoder — the bytes a client POSTs to /v1/sessions
// under "problem". The decoder must never panic, and a problem the
// service admits (it parses and passes Validate, which runs before
// anything is persisted) must survive the snapshot round-trip
// (RenderProblem → json.Marshal → ParseProblem) with the same
// FingerprintProblem, since rehydration rebuilds sessions from snapshots
// and the solve cache keys on the fingerprint.
func FuzzDomainParseProblem(f *testing.F) {
	for _, name := range domain.Names() {
		d, ok := domain.Get(name)
		if !ok {
			f.Fatalf("registered domain %q missing from registry", name)
		}
		if fx, ok := d.(domain.Fixtured); ok {
			f.Add(name, []byte(fx.Conformance().ProblemJSON))
		}
	}
	f.Add("cnf", []byte(`{"dimacs": "p cnf 3 1\n1 -3 0\n"}`))
	f.Add("cnf", []byte(`{"vars": 4}`))
	f.Add("cnf", []byte(`{"dimacs": "p cnf 3 1\n0\n"}`)) // parses; Validate refuses the empty clause
	f.Add("coloring", []byte(`{"vertices": 1000000000, "k": 1}`))
	f.Add("sched", []byte(`{"capacity": [1], "steps": 1000000000, "types": [], "deps": []}`))
	f.Add("partition", []byte(`{"vertices": 3, "blocks": 2, "min_size": 1, "edges": [[1, 2, 0.5]]}`))
	f.Fuzz(func(t *testing.T, name string, spec []byte) {
		d, ok := domain.Get(name)
		if !ok {
			return // unregistered domain name — nothing to test
		}
		problem, err := d.ParseProblem(spec)
		if err != nil || d.Validate(problem) != nil {
			return
		}
		wire := d.RenderProblem(problem)
		if wire == nil {
			t.Fatalf("accepted problem has no wire form (spec %q)", spec)
		}
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("encode accepted problem: %v", err)
		}
		again, err := d.ParseProblem(raw)
		if err != nil {
			t.Fatalf("snapshot round-trip rejected: %v (spec %q, rendered %s)", err, spec, raw)
		}
		var want, got bytes.Buffer
		d.FingerprintProblem(&want, problem)
		d.FingerprintProblem(&got, again)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("snapshot round-trip changed the problem (spec %q, rendered %s)", spec, raw)
		}
	})
}
