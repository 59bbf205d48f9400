package durable

import (
	"errors"
	"io"
	"time"
)

// Defaults for the group-commit pipeline. A 200µs window is roughly the
// cost of one fsync on a local SSD: waiting that long for stragglers
// can halve the fsync count without a visible latency step, and the
// committer only waits at all when the previous group showed there is
// actual concurrency (see commitGroup).
const (
	DefaultCommitWindow = 200 * time.Microsecond
	DefaultCommitBatch  = 128
)

// maxRecycledBatch caps the group buffer kept for reuse, so one huge
// write burst does not pin megabytes forever.
const maxRecycledBatch = 4 << 20

// GroupConfig tunes the group-commit pipeline started by
// WAL.StartGroupCommit.
type GroupConfig struct {
	// Window is how long the committer waits for more records to join a
	// group once load is detected. 0 disables the adaptive wait: groups
	// are whatever accumulated while the previous write+fsync ran.
	Window time.Duration
	// MaxBatch flushes a group as soon as it holds this many records,
	// regardless of Window. Defaults to DefaultCommitBatch.
	MaxBatch int
	// OnGroup, if set, observes every committed group: record count,
	// frame bytes written, and wall time from write start to durable.
	// Called outside the WAL lock.
	OnGroup func(records, bytes int, latency time.Duration)
	// OnError, if set, observes the sticky failure that degraded the
	// pipeline (reported once per degradation). Called outside the WAL
	// lock; waiters get the same error from WaitDurable.
	OnError func(err error)
	// OnTraceCommit, if set, observes every committed record whose
	// mutation carried a request-tracing ID (vfs.Mutation.Trace): the
	// trace, the record's LSN, how long it queued before the group
	// started, and the group's write+fsync latency. Called outside the
	// WAL lock, after the group is durable. When unset, Append never
	// looks at traces and the pipeline carries no per-record state.
	OnTraceCommit func(trace, lsn uint64, queued, commit time.Duration)
	// OnShip, if set, receives every committed group's raw frame bytes
	// for replication: the first and last LSN in the group, the record
	// count, and the encoded frames exactly as written to the log.
	// Called outside the WAL lock, after the group is durable, in
	// commit order. Ownership of the frames buffer transfers to the
	// hook (the committer skips buffer recycling for shipped groups),
	// so the replication layer may retain or fan it out without a copy.
	OnShip func(first, last uint64, records int, frames []byte)
}

// tracedRec remembers one queued record that carries a trace ID, so the
// committer can attribute the group's latency back to the request.
type tracedRec struct {
	trace uint64
	lsn   uint64
	enq   time.Time
}

// groupState is the committer side of a group-commit WAL. Fields are
// guarded by WAL.mu except the channels, which are owned as commented.
type groupState struct {
	window        time.Duration
	maxBatch      int
	onGroup       func(records, bytes int, latency time.Duration)
	onError       func(err error)
	onTraceCommit func(trace, lsn uint64, queued, commit time.Duration)
	onShip        func(first, last uint64, records int, frames []byte)

	queue   []byte      // encoded frames waiting for the committer
	queued  int         // records in queue
	traced  []tracedRec // queued records carrying a trace ID
	lastLSN uint64      // LSN of the last queued record
	recycle []byte      // spare buffer the committer hands back after a write

	// firstQueued is the first LSN in queue (0 when empty);
	// inflightFirst the first LSN of the batch the committer has claimed
	// but not yet made durable (0 when none). Together with WAL.lost
	// they cap the durable horizon (see WAL.durableLSN).
	firstQueued   uint64
	inflightFirst uint64

	durable uint64 // highest LSN on stable storage (per sync policy)
	// advanceCh is closed and replaced whenever durable advances or the
	// pipeline degrades, waking every WaitDurable parked on it.
	advanceCh chan struct{}
	lastGroup int // size of the previous group, the load signal

	errNotified bool // OnError already fired for the current degradation

	// kick (cap 1) wakes the committer when work arrives; full (cap 1)
	// cuts an in-progress batch window short when the queue fills or
	// the WAL closes. Both are signal channels: send never blocks.
	kick chan struct{}
	full chan struct{}

	stopping bool
	done     chan struct{} // closed when the committer goroutine exits
}

// StartGroupCommit spawns the committer goroutine, after which the WAL
// accepts Append. Call it once, before the WAL is shared between
// goroutines. The sync policy applies at group granularity: a WAL that
// syncs each group makes appends durable when WaitDurable returns; one
// that never syncs only confirms the write was issued.
func (w *WAL) StartGroupCommit(cfg GroupConfig) {
	if w.gc != nil {
		panic("durable: StartGroupCommit called twice")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultCommitBatch
	}
	g := &groupState{
		window:        cfg.Window,
		maxBatch:      cfg.MaxBatch,
		onGroup:       cfg.OnGroup,
		onError:       cfg.OnError,
		onTraceCommit: cfg.OnTraceCommit,
		onShip:        cfg.OnShip,
		advanceCh:     make(chan struct{}),
		kick:          make(chan struct{}, 1),
		full:          make(chan struct{}, 1),
		done:          make(chan struct{}),
	}
	w.mu.Lock()
	g.durable = w.lastLSN
	w.gc = g
	w.mu.Unlock()
	go w.commitLoop(g)
}

// wake nudges the committer. full additionally cuts short any batch
// window it is sleeping in.
func (g *groupState) wake(full bool) {
	select {
	case g.kick <- struct{}{}:
	default:
	}
	if full {
		select {
		case g.full <- struct{}{}:
		default:
		}
	}
}

// advanceLocked publishes a durability change (progress or failure) to
// every parked waiter. Caller holds WAL.mu.
func (g *groupState) advanceLocked() {
	close(g.advanceCh)
	g.advanceCh = make(chan struct{})
}

// commitLoop drains the queue group by group until Close stops it.
func (w *WAL) commitLoop(g *groupState) {
	defer close(g.done)
	for {
		<-g.kick
		for w.commitGroup(g) {
		}
		w.mu.Lock()
		stop := g.stopping && g.queued == 0
		w.mu.Unlock()
		if stop {
			return
		}
	}
}

// commitGroup claims everything queued, commits it with one write and
// at most one fsync, and advances the durable horizon. Returns false
// when the queue was empty (nothing claimed).
func (w *WAL) commitGroup(g *groupState) bool {
	w.mu.Lock()
	if w.err != nil && g.queued > 0 {
		// Degraded: the log must not grow past the failure. Fail the
		// queued records' waiters rather than stranding them; the
		// dropped LSNs pin the store's durable horizon via w.lost.
		w.noteLostLocked(g.firstQueued)
		g.queue = g.queue[:0]
		g.queued = 0
		g.traced = g.traced[:0]
		g.firstQueued = 0
		g.advanceLocked()
		w.mu.Unlock()
		return false
	}
	if g.queued == 0 {
		w.mu.Unlock()
		return false
	}

	// Adaptive window: when the previous group or the current queue
	// shows real concurrency, wait briefly for stragglers so one fsync
	// covers more of them. A lone low-rate writer (queued==1 after an
	// idle group) flushes immediately — batching it would only add
	// latency with nobody to share the fsync.
	if g.window > 0 && !g.stopping && g.queued < g.maxBatch && g.queued < g.lastGroup {
		select { // discard a wake token from before this group formed
		case <-g.full:
		default:
		}
		w.mu.Unlock()
		t := time.NewTimer(g.window)
		select {
		case <-t.C:
		case <-g.full:
			t.Stop()
		}
		w.mu.Lock()
		if g.queued == 0 || w.err != nil { // degraded or drained meanwhile
			w.mu.Unlock()
			return true
		}
	}

	// Claim the batch. The committer hands the recycled buffer back so
	// the steady state ping-pongs two buffers with zero allocation.
	batch := g.queue
	count := g.queued
	first := g.firstQueued
	last := g.lastLSN
	traced := g.traced
	if g.recycle != nil {
		g.queue = g.recycle[:0]
		g.recycle = nil
	} else {
		g.queue = nil
	}
	g.queued = 0
	g.traced = nil
	g.inflightFirst = first
	g.firstQueued = 0
	f := w.f
	onAppend, onSync := w.onAppend, w.onSync
	w.mu.Unlock()

	start := time.Now()
	n, err := f.Write(batch)
	if err == nil && n < len(batch) {
		err = io.ErrShortWrite
	}

	w.mu.Lock()
	w.size += int64(n)
	needSync := err == nil && w.syncEach
	if err == nil {
		w.dirty = true
	}
	if needSync {
		w.mu.Unlock()
		err = f.Sync()
		w.mu.Lock()
	}

	synced := false
	var notifyErr error
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		if !g.errNotified {
			g.errNotified = true
			notifyErr = w.err
		}
		// Both the failed batch and anything queued behind it are lost.
		w.noteLostLocked(first)
		w.noteLostLocked(g.firstQueued)
		g.inflightFirst = 0
		g.queue = g.queue[:0]
		g.queued = 0
		g.traced = g.traced[:0]
		g.firstQueued = 0
		g.advanceLocked()
	} else {
		if needSync {
			w.dirty = false
			synced = true
		}
		if g.durable < last {
			g.durable = last
		}
		g.inflightFirst = 0
		g.lastGroup = count
		// A shipped batch is handed to OnShip, which takes ownership of
		// the buffer; only unshipped batches go back in the recycle slot.
		if g.onShip == nil && g.recycle == nil && cap(batch) <= maxRecycledBatch {
			g.recycle = batch[:0]
		}
		g.advanceLocked()
		w.maybeRotateLocked()
	}
	w.mu.Unlock()

	if err != nil {
		if notifyErr != nil && g.onError != nil {
			g.onError(notifyErr)
		}
		return false
	}
	if onAppend != nil {
		onAppend(count, len(batch))
	}
	if synced && onSync != nil {
		onSync()
	}
	commitLat := time.Since(start)
	if g.onShip != nil {
		// One chain assigns LSNs in queue order, so first..last is a
		// contiguous run and groups ship in LSN order.
		g.onShip(first, last, count, batch)
	}
	if g.onGroup != nil {
		g.onGroup(count, len(batch), commitLat)
	}
	if g.onTraceCommit != nil {
		for _, t := range traced {
			g.onTraceCommit(t.trace, t.lsn, start.Sub(t.enq), commitLat)
		}
	}
	return true
}

// WaitDurable blocks until the record with the given LSN is durable per
// the sync policy, or the pipeline has degraded. On a follower it just
// reports the sticky error: AppendFrames already committed inline.
//
// The durable horizon is checked before the sticky error so a record
// that made it to disk reports success even if a later group failed.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.mu.Lock()
	g := w.gc
	if g == nil {
		err := w.err
		w.mu.Unlock()
		if errors.Is(err, ErrWALClosed) {
			return nil
		}
		return err
	}
	for {
		if g.durable >= lsn {
			w.mu.Unlock()
			return nil
		}
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return err
		}
		ch := g.advanceCh
		w.mu.Unlock()
		<-ch
		w.mu.Lock()
	}
}

// Barrier blocks until every record appended before the call is
// durable per the sync policy (or reports the degradation error).
func (w *WAL) Barrier() error {
	w.mu.Lock()
	target := w.lastLSN
	w.mu.Unlock()
	return w.WaitDurable(target)
}
