package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once, not 60 ns.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},
		// A child running past its parent counts only inside the parent.
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		// A grandchild is covered by its parent, not by the root.
		{ID: 4, Parent: 1, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d ns, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if got := selfSeconds(spans, self, "pass"); got != 50e-9 {
		t.Errorf("selfSeconds(pass) = %g, want 5e-08", got)
	}
}

func TestSpanLogOffRecordsNothing(t *testing.T) {
	l := newSpanLog(false)
	id := l.begin("x", -1, 0)
	l.end(id)
	if id != -1 || len(l.spans) != 0 {
		t.Fatalf("disabled log recorded span %d (%d spans)", id, len(l.spans))
	}
}
