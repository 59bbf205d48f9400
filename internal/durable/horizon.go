package durable

import (
	"sync"
	"time"
)

// Horizon is an LSN that callers park on until it covers theirs: the
// WAL's durable horizon, a follower's applied horizon, the semi-sync
// acked horizon. Besides the LSN, which may move down as well as up, it
// holds a sticky error, reported to every wait the LSN does not cover,
// and a released state, in which every wait returns nil at once (a
// promoted follower, a primary with no follower to wait for).
//
// A move wakes only the parked waits it settles. Each parked wait takes
// a pooled waiter — a 1-buffered wake channel and, for a bounded wait,
// a timer — and hands it back, so waiting allocates nothing once the
// pool holds as many waiters as ever parked at once. The zero Horizon
// is at LSN 0, healthy and held. Its mutex is a leaf.
type Horizon struct {
	mu       sync.Mutex
	lsn      uint64
	err      error
	released bool
	parked   []*waiter // unordered; none is settled
	free     []*waiter
}

// waiter is one parked wait. A wake, under Horizon.mu, unparks it (slot
// -1), stores the outcome and signals wake.
type waiter struct {
	lsn   uint64
	slot  int
	err   error
	wake  chan struct{}
	timer *time.Timer // made by the first bounded wait; idle, it is stopped and drained
}

// LSN reports the horizon's current LSN.
func (h *Horizon) LSN() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lsn
}

// Parked reports how many waits are parked.
func (h *Horizon) Parked() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.parked)
}

// Set moves the horizon to lsn, up or down, waking the parked waits at
// or below it.
func (h *Horizon) Set(lsn uint64) {
	h.mu.Lock()
	h.lsn = lsn
	h.settleLocked()
	h.mu.Unlock()
}

// Fail makes err sticky, failing every parked wait with it; nil clears
// it. A wait the LSN covers succeeds whatever the error.
func (h *Horizon) Fail(err error) {
	h.mu.Lock()
	h.err = err
	h.settleLocked()
	h.mu.Unlock()
}

// Release sets whether the horizon is released: while it is, every wait,
// parked or new, returns nil.
func (h *Horizon) Release(released bool) {
	h.mu.Lock()
	h.released = released
	h.settleLocked()
	h.mu.Unlock()
}

// Wait blocks until the horizon covers lsn (nil), fails (the sticky
// error) or is released (nil). A positive timeout bounds the wait from
// the moment it parks, 0 only checks, and a negative one waits without
// bound; timedOut reports that the bound passed first.
func (h *Horizon) Wait(lsn uint64, timeout time.Duration) (err error, timedOut bool) {
	h.mu.Lock()
	if done, err := h.settledLocked(lsn); done || timeout == 0 {
		h.mu.Unlock()
		return err, !done
	}
	var w *waiter
	if n := len(h.free); n > 0 {
		w, h.free = h.free[n-1], h.free[:n-1]
	} else {
		w = &waiter{wake: make(chan struct{}, 1)}
	}
	w.lsn, w.slot = lsn, len(h.parked)
	h.parked = append(h.parked, w)
	h.mu.Unlock()

	fired := false
	if timeout < 0 {
		<-w.wake
	} else {
		if w.timer == nil {
			w.timer = time.NewTimer(timeout)
		} else {
			w.timer.Reset(timeout)
		}
		select {
		case <-w.wake:
			// go.mod pins pre-1.23 timer semantics: a Stop that returns
			// false left the fired value in the channel, which the next
			// wait to reuse the timer would read as a timeout.
			if !w.timer.Stop() {
				<-w.timer.C
			}
		case <-w.timer.C:
			fired = true
		}
	}

	h.mu.Lock()
	if timedOut = fired && w.slot >= 0; timedOut {
		h.unparkLocked(w.slot)
	} else if fired {
		<-w.wake // woken as the timer fired: the wake's outcome stands
	}
	err, w.err = w.err, nil
	h.free = append(h.free, w)
	h.mu.Unlock()
	return err, timedOut
}

// settledLocked reports whether a wait for lsn is over, and its outcome.
func (h *Horizon) settledLocked(lsn uint64) (bool, error) {
	if lsn <= h.lsn || h.released {
		return true, nil
	}
	return h.err != nil, h.err
}

// settleLocked wakes every parked wait the horizon now settles.
func (h *Horizon) settleLocked() {
	for i := 0; i < len(h.parked); {
		if done, err := h.settledLocked(h.parked[i].lsn); done {
			w := h.unparkLocked(i)
			w.err = err
			w.wake <- struct{}{}
		} else {
			i++
		}
	}
}

// unparkLocked removes parked[i], moving the last waiter into its slot.
func (h *Horizon) unparkLocked(i int) *waiter {
	w, last := h.parked[i], len(h.parked)-1
	h.parked[i] = h.parked[last]
	h.parked[i].slot = i
	h.parked[last] = nil
	h.parked = h.parked[:last]
	w.slot = -1
	return w
}
