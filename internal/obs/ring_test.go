package obs

import "testing"

// TestRingPushAllocatesNothing: the box pushes an audit record for
// every trapped syscall, so a push into a full ring must not allocate —
// overwriting the oldest slot is the whole of its work.
func TestRingPushAllocatesNothing(t *testing.T) {
	r := NewRing[Event](8)
	e := Event{Phase: PhaseTrapEntry, PID: 1, Sys: "stat", Path: "/data"}
	if allocs := testing.AllocsPerRun(100, func() { r.Push(e) }); allocs != 0 {
		t.Fatalf("Push allocates %.1f times per call, want 0", allocs)
	}
	if r.Len() != 8 || r.Dropped() != 101-8 {
		t.Fatalf("Len/Dropped = %d/%d after 101 pushes into 8 slots, want 8/93", r.Len(), r.Dropped())
	}
}
