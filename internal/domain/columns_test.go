package domain_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ilpec/internal/coloring"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/partition"
	"ilpec/internal/sched"
)

// TestGrownProblemsParseAgain pins that no change batch grows a problem
// past domain.MaxColumns. A session's problem is rendered into its
// snapshot and parsed again when the session is rehydrated, so a batch
// that grew it past the parse bound would make the session unloadable.
// One growing change takes a problem just under the bound to the bound
// and the result parses again from its rendered form; the same change on
// a problem at the bound is rejected.
func TestGrownProblemsParseAgain(t *testing.T) {
	half := domain.MaxColumns / 2
	for _, tc := range []struct {
		name    string
		d       domain.Domain
		problem string
		change  string
		ok      bool
	}{
		{"cnf add-variable under", core.CNF(), fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, half-1), `{"kind": "add-variable"}`, true},
		{"cnf add-variable at", core.CNF(), fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, half), `{"kind": "add-variable"}`, false},
		{"cnf add-clause under", core.CNF(), fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, half-1), fmt.Sprintf(`{"kind": "add-clause", "lits": [%d]}`, half), true},
		{"cnf add-clause at", core.CNF(), fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, half), fmt.Sprintf(`{"kind": "add-clause", "lits": [-%d]}`, half+1), false},
		{"coloring under", coloring.Domain(), `{"vertices": 1023, "k": 1024}`, `{"kind": "add-vertex"}`, true},
		{"coloring at", coloring.Domain(), `{"vertices": 1024, "k": 1024}`, `{"kind": "add-vertex"}`, false},
		{"sched under", sched.Domain(), fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [0]}`, half), `{"kind": "add-op", "type": 0}`, true},
		{"sched at", sched.Domain(), fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [0, 0]}`, half), `{"kind": "add-op", "type": 0}`, false},
		{"partition under", partition.Domain(), `{"vertices": 1023, "blocks": 1024}`, `{"kind": "add-vertex"}`, true},
		{"partition at", partition.Domain(), `{"vertices": 1024, "blocks": 1024}`, `{"kind": "add-vertex"}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.d.ParseProblem([]byte(tc.problem))
			if err != nil {
				t.Fatalf("ParseProblem(%s): %v", tc.problem, err)
			}
			c, err := tc.d.ParseChange([]byte(tc.change))
			if err != nil {
				t.Fatalf("ParseChange(%s): %v", tc.change, err)
			}
			grown, err := tc.d.ApplyChanges(p, []any{c})
			if !tc.ok {
				if err == nil {
					t.Fatalf("ApplyChanges grew the problem past the bound")
				}
				return
			}
			if err != nil {
				t.Fatalf("ApplyChanges: %v", err)
			}
			spec, err := json.Marshal(tc.d.RenderProblem(grown))
			if err != nil {
				t.Fatal(err)
			}
			back, err := tc.d.ParseProblem(spec)
			if err != nil {
				t.Fatalf("grown problem does not parse again: %v", err)
			}
			var want, got bytes.Buffer
			tc.d.FingerprintProblem(&want, grown)
			tc.d.FingerprintProblem(&got, back)
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatal("grown problem changed in its round trip")
			}
		})
	}
}
