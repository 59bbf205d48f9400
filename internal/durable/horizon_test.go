package durable

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// horizonResult is one finished Wait.
type horizonResult struct {
	lsn      uint64
	err      error
	timedOut bool
}

// waitAsync runs Wait(lsn, timeout) on its own goroutine, delivering the
// outcome on out.
func waitAsync(h *Horizon, lsn uint64, timeout time.Duration, out chan<- horizonResult) {
	go func() {
		err, timedOut := h.Wait(lsn, timeout)
		out <- horizonResult{lsn, err, timedOut}
	}()
}

// awaitParked polls until n waits are parked on h.
func awaitParked(t *testing.T, h *Horizon, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); h.Parked() != n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d waits parked, want %d", h.Parked(), n)
		}
	}
}

// collect receives n outcomes, failing after five seconds.
func collect(t *testing.T, out <-chan horizonResult, n int) []horizonResult {
	t.Helper()
	var got []horizonResult
	for len(got) < n {
		select {
		case r := <-out:
			got = append(got, r)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waits still parked", n-len(got), n)
		}
	}
	return got
}

// poolClean fails if a pooled waiter holds a signal its next wait would
// read: a wake left in its channel, or a fired value in its timer's.
func poolClean(t *testing.T, h *Horizon) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, w := range h.free {
		if len(w.wake) != 0 {
			t.Fatal("a pooled waiter kept a wake")
		}
		if w.timer != nil && len(w.timer.C) != 0 {
			t.Fatal("a pooled waiter's timer kept a fired value")
		}
	}
}

// TestHorizon covers the one LSN wait the WAL, a follower's applied
// horizon and the semi-sync publisher share: what each kind of move
// wakes, and what a timed-out or woken wait leaves in the pool.
func TestHorizon(t *testing.T) {
	errDegraded := errors.New("degraded")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, h *Horizon)
	}{
		{"an advance wakes only the waits it covers", func(t *testing.T, h *Horizon) {
			const n = 100
			out := make(chan horizonResult, n)
			for lsn := uint64(1); lsn <= n; lsn++ {
				waitAsync(h, lsn, -1, out)
			}
			awaitParked(t, h, n)
			for lsn := uint64(1); lsn <= n; lsn++ {
				h.Set(lsn)
				if parked := h.Parked(); parked != n-int(lsn) {
					t.Fatalf("after Set(%d), %d waits parked, want %d", lsn, parked, n-int(lsn))
				}
				r := collect(t, out, 1)[0]
				if r.lsn != lsn || r.err != nil || r.timedOut {
					t.Fatalf("Set(%d) woke %+v", lsn, r)
				}
			}
			select {
			case r := <-out:
				t.Fatalf("a wait finished twice: %+v", r)
			default:
			}
		}},
		{"a sticky error reaches only the waits above the horizon", func(t *testing.T, h *Horizon) {
			h.Set(10)
			out := make(chan horizonResult, 2)
			waitAsync(h, 11, -1, out)
			waitAsync(h, 20, time.Minute, out)
			awaitParked(t, h, 2)
			h.Fail(errDegraded)
			for _, r := range collect(t, out, 2) {
				if r.err != errDegraded || r.timedOut {
					t.Fatalf("parked wait for %d = %+v, want the sticky error", r.lsn, r)
				}
			}
			if err, _ := h.Wait(10, -1); err != nil {
				t.Fatalf("a covered wait after the failure = %v", err)
			}
			if err, _ := h.Wait(11, -1); err != errDegraded {
				t.Fatalf("a wait above the horizon after the failure = %v", err)
			}
			h.Fail(nil)
			if err, timedOut := h.Wait(11, 0); err != nil || !timedOut {
				t.Fatalf("a check after clearing the error = %v, %v; want a plain miss", err, timedOut)
			}
		}},
		{"release wakes every wait and holds no later one", func(t *testing.T, h *Horizon) {
			out := make(chan horizonResult, 2)
			waitAsync(h, 5, -1, out)
			waitAsync(h, 50, time.Minute, out)
			awaitParked(t, h, 2)
			h.Release(true)
			for _, r := range collect(t, out, 2) {
				if r.err != nil || r.timedOut {
					t.Fatalf("released wait for %d = %+v", r.lsn, r)
				}
			}
			if err, timedOut := h.Wait(1000, 0); err != nil || timedOut {
				t.Fatalf("a wait on a released horizon = %v, %v", err, timedOut)
			}
			h.Release(false)
			if _, timedOut := h.Wait(1000, 0); !timedOut {
				t.Fatal("a held horizon passed an uncovered check")
			}
		}},
		{"release after a lowered horizon", func(t *testing.T, h *Horizon) {
			h.Set(8) // the best subscriber's ack
			out := make(chan horizonResult, 3)
			waitAsync(h, 10, -1, out)
			waitAsync(h, 12, time.Minute, out)
			awaitParked(t, h, 2)
			h.Set(5) // that subscriber leaves; the next best acked 5
			waitAsync(h, 7, -1, out)
			awaitParked(t, h, 3)
			if err, timedOut := h.Wait(5, 0); err != nil || timedOut {
				t.Fatalf("a wait the lowered horizon covers = %v, %v", err, timedOut)
			}
			h.Release(true) // the last subscriber leaves
			for _, r := range collect(t, out, 3) {
				if r.err != nil || r.timedOut {
					t.Fatalf("released wait for %d = %+v", r.lsn, r)
				}
			}
		}},
		{"a timeout, and no stale timer fire on reuse", func(t *testing.T, h *Horizon) {
			const timeout = 20 * time.Millisecond
			timed := func() time.Duration {
				start := time.Now()
				if err, timedOut := h.Wait(1<<40, timeout); err != nil || !timedOut {
					t.Fatalf("an uncovered bounded wait = %v, %v", err, timedOut)
				}
				return time.Since(start)
			}
			if took := timed(); took < timeout {
				t.Fatalf("the wait timed out after %v, want %v", took, timeout)
			}
			out := make(chan horizonResult, 1)

			// The timer fires, then a wake lands before the wait retakes
			// the lock: the wake's outcome stands and its signal is drained.
			waitAsync(h, 5, timeout, out)
			awaitParked(t, h, 1)
			h.mu.Lock()
			time.Sleep(2 * timeout)
			h.lsn = 5 // Set(5), under the lock already held
			h.settleLocked()
			h.mu.Unlock()
			if r := collect(t, out, 1)[0]; r.err != nil || r.timedOut {
				t.Fatalf("a wait woken as its timer fired = %+v, want the wake", r)
			}
			poolClean(t, h)

			// Wakes at the timer's edge, either way round: whichever wins,
			// the waiter goes back to the pool clean.
			for i := 0; i < 200; i++ {
				lsn := uint64(100 + i)
				waitAsync(h, lsn, time.Millisecond, out)
				time.Sleep(time.Duration(i%4) * 400 * time.Microsecond)
				h.Set(lsn)
				if r := collect(t, out, 1)[0]; r.err != nil {
					t.Fatalf("edge wait %d = %+v", i, r)
				}
				poolClean(t, h)
			}
			h.mu.Lock()
			pooled := len(h.free)
			h.mu.Unlock()
			if pooled != 1 {
				t.Fatalf("%d pooled waiters after one wait at a time, want 1", pooled)
			}
			if took := timed(); took < timeout {
				t.Fatalf("the reused waiter timed out after %v: a stale fire survived", took)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, new(Horizon)) })
	}
}
