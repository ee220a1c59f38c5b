package domain

import "testing"

// batchReader stands in for a typed adapter: Adapt calls its methods
// through an interface.
type batchReader interface{ read(Changes[int]) int }

type sumReader struct{}

func (sumReader) read(cs Changes[int]) int {
	n := 0
	for i, c := range cs.All() {
		n += i * c
	}
	return n
}

var readSink int

// TestChangesReadInPlace pins that handing a batch to a typed method and
// ranging over it allocates nothing; a batch converted to a []C would
// cost one slice per ApplyChanges and EncodeDelta call.
func TestChangesReadInPlace(t *testing.T) {
	var r batchReader = sumReader{}
	vs := []any{1, 2, 3}
	allocs := testing.AllocsPerRun(100, func() { readSink += r.read(Changes[int]{vs}) })
	if allocs != 0 {
		t.Errorf("%v allocations per batch, want 0", allocs)
	}
	if got := (Changes[int]{vs}).Slice(); len(got) != 3 || got[2] != 3 {
		t.Errorf("Slice() = %v, want [1 2 3]", got)
	}
}
