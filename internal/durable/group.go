package durable

import "time"

// Defaults for the group-commit pipeline. A 200µs window is roughly the
// cost of one fsync on a local SSD: waiting that long for stragglers
// can halve the fsync count without a visible latency step, and the
// committer only waits at all when the previous group showed there is
// actual concurrency (see claimQueue).
const (
	DefaultCommitWindow = 200 * time.Microsecond
	DefaultCommitBatch  = 128
)

// maxRecycledBatch caps the group buffer kept for reuse, so one huge
// write burst does not pin megabytes forever.
const maxRecycledBatch = 4 << 20

// tracedRec remembers one queued record that carries a trace ID, so the
// committer can attribute the group's latency back to the request.
type tracedRec struct {
	trace uint64
	lsn   uint64
	enq   time.Time
}

// startCommitter turns a follower's WAL into a primary's: Append is
// accepted from here on, AppendFrames refused, and a dedicated committer
// goroutine claims queued records a group at a time. The durable horizon
// and LSN cursor carry on from the follower's last committed group. Call
// it once, after setting the committer's fields. The sync policy applies
// at group granularity: a WAL that syncs each group makes appends
// durable when WaitDurable returns; one that never syncs only confirms
// the write was issued.
func (w *WAL) startCommitter() {
	w.mu.Lock()
	w.follower = false
	w.mu.Unlock()
	go w.commitLoop()
}

// wake nudges the committer. full additionally cuts short any batch
// window it is sleeping in.
func (w *WAL) wake(full bool) {
	select {
	case w.kick <- struct{}{}:
	default:
	}
	if full {
		select {
		case w.full <- struct{}{}:
		default:
		}
	}
}

// commitLoop commits the queue group by group until Close stops it.
func (w *WAL) commitLoop() {
	defer close(w.done)
	for {
		<-w.kick
		for {
			g, ok := w.claimQueue()
			if !ok || w.commit(g) != nil {
				break
			}
		}
		w.mu.Lock()
		stop := w.stopping && w.queued == 0
		w.mu.Unlock()
		if stop {
			return
		}
	}
}

// sleepWindow waits out one batch window, or less if full cuts it
// short. Only the committer goroutine sleeps, so it reuses one timer,
// left stopped and drained for the next window: go.mod pins pre-1.23
// timer semantics, under which a Stop that returns false means the
// timer fired and its value must be received, or the next window would
// end at once on that stale value.
func (w *WAL) sleepWindow() {
	if w.windowTimer == nil {
		w.windowTimer = time.NewTimer(w.window)
	} else {
		w.windowTimer.Reset(w.window)
	}
	select {
	case <-w.windowTimer.C:
	case <-w.full:
		if !w.windowTimer.Stop() {
			<-w.windowTimer.C
		}
	}
}

// claimQueue takes everything queued as one group, first waiting out
// the batch window when load is detected. It reports false when there
// is nothing to commit: the queue is empty, or the WAL has degraded and
// the queue was dropped.
func (w *WAL) claimQueue() (group, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Adaptive window: when the previous group or the current queue
	// shows real concurrency, wait briefly for stragglers so one fsync
	// covers more of them. A lone low-rate writer (queued==1 after an
	// idle group) flushes immediately — batching it would only add
	// latency with nobody to share the fsync.
	if w.window > 0 && w.err == nil && !w.stopping && w.queued > 0 && w.queued < w.maxBatch && w.queued < w.lastGroup {
		select { // discard a wake token from before this group formed
		case <-w.full:
		default:
		}
		w.mu.Unlock()
		w.sleepWindow()
		w.mu.Lock()
	}
	if w.queued == 0 {
		return group{}, false
	}
	if w.err != nil {
		w.dropQueueLocked() // the log must not grow past the failure
		return group{}, false
	}
	// The committer hands the recycled buffer back so the steady state
	// ping-pongs two buffers with zero allocation.
	g := group{f: w.f, frames: w.queue, first: w.lastLSN - uint64(w.queued) + 1, last: w.lastLSN, records: w.queued, traced: w.traced}
	w.queue, w.recycle = w.recycle[:0], nil
	w.queued = 0
	w.traced = nil
	return g, true
}
