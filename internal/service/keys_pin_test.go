package service

import (
	"testing"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
)

// TestSessionKeysPinned pins the solve-cache task key and the incumbent
// problem key of one CNF session state. Both are persisted across the
// fleet (peer cache peeks, the incumbent store), so a faster fingerprint
// must hash exactly the same bytes.
func TestSessionKeysPinned(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	f := cnf.FromClauses([]int{1, 2}, []int{-1, 3}, []int{2, 4}, []int{-3, -4, 5}, []int{5, 6}, []int{-6, -2, 7})
	s, err := svc.CreateSession(f, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Queue(core.NewClause(-5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	task := s.taskKeyLocked("fast", s.problem, s.solution)
	plain := s.taskKeyLocked("plain", s.problem, nil)
	problem := s.problemKey(s.problem)
	s.mu.Unlock()
	for _, c := range []struct{ name, got, want string }{
		{"fast task key", task, "f2d986ee01e89516c5e892c0907825401c47299722f17de3a6af2566c7989dee"},
		{"plain task key", plain, "024642ceca58de0ff237673fd995724b8c67ffaefd1cb75e9fbdbb5c8717665a"},
		{"problem key", problem, "1833b7d2f2ec3a2f9d80deb8978bd317513bc653d69e37f2e58728706f0ba554"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}
