package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// File is the slice of an append-only log file the WAL writer needs.
// *os.File satisfies it; faultdisk wraps one to inject storage faults.
// The committer goroutine may issue a Write while another goroutine
// issues a Sync, so implementations must tolerate concurrent calls
// (*os.File and faultdisk.File both do).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// WAL appends framed records to a log. It is safe for concurrent use.
// A WAL is a store's whole commit pipeline: it assigns every record its
// LSN, so the log is one totally ordered history. The log is a chain of
// bounded segment files, rotated once the active segment reaches the
// rotator's size limit.
//
// Every batch of frames reaches the log through commit — one write, at
// most one fsync, then the group's hooks, then the durable horizon —
// called by one of two roles, selected by the follower flag:
//
//   - Primary (after startCommitter): Append encodes the record into an
//     in-memory queue under a short lock and returns; a dedicated
//     committer goroutine claims the queue a group at a time and commits
//     it. Callers that need durability park on WaitDurable or Barrier.
//   - Follower (until Promote starts the committer): the log receives
//     commit groups a primary already formed, through AppendFrames,
//     which commits each one inline. Append is an error.
//
// Either way the first write or sync error is sticky: the WAL stops
// accepting appends and reports the error from then on, because a log
// with a hole in it must not keep growing — recovery would stop at the
// hole and silently drop everything after it.
type WAL struct {
	mu sync.Mutex
	f  File
	// lastLSN is the last LSN assigned (Append) or written
	// (AppendFrames): the LSN cursor.
	lastLSN uint64
	size    int64 // active segment length in bytes
	// syncEach fsyncs after every commit group — the only setting with
	// no loss window; false never syncs a group (the OS decides when
	// bytes reach the platter). dirty marks bytes written since the last
	// fsync, which Close and rotation still sync.
	syncEach bool
	dirty    bool
	err      error
	// durable is the highest LSN on stable storage (per the sync
	// policy), and carries err for WaitDurable. A failed group never
	// advances it, so it stays below the first LSN a degradation lost
	// until compaction resets the log. Moved only with mu held.
	durable Horizon
	// follower selects the role: set, only AppendFrames writes; clear,
	// only the committer does. startCommitter clears it.
	follower bool

	// Committer settings and hooks, set before the committer starts or
	// the WAL is shared, and never changed after. The hooks observe
	// each committed group outside mu, before its waiters wake.
	window   time.Duration // see DefaultCommitWindow; 0 never waits
	maxBatch int           // flush a group at this many records
	// onGroup observes every committed group: record count, frame bytes
	// and wall time from write start to durable.
	onGroup func(records, bytes int, latency time.Duration)
	onSync  func() // every fsync that covered a group or Close
	// onError observes the sticky failure that degraded the WAL, once
	// per degradation; waiters get the same error from WaitDurable.
	onError func(err error)
	// onTraceCommit observes every committed record whose mutation
	// carried a request-tracing ID (vfs.Mutation.Trace): the trace, the
	// record's LSN, how long it queued before the group started, and the
	// group's write+fsync latency. When unset, Append never looks at
	// traces.
	onTraceCommit func(trace, lsn uint64, queued, commit time.Duration)
	// onShip receives every group the committer commits, in LSN order:
	// the first and last LSN, the record count and the frames exactly as
	// written. Ownership of the frames transfers to the hook, so the
	// replication layer may retain or fan them out without a copy. A
	// follower's groups are not shipped.
	onShip func(first, last uint64, records int, frames []byte)

	// The committer's queue.
	queue     []byte      // encoded frames waiting for the committer
	queued    int         // records in queue; the last is lastLSN
	traced    []tracedRec // queued records carrying a trace ID
	recycle   []byte      // spare buffer the committer hands back after a write
	lastGroup int         // size of the previous queued group, the load signal
	// kick (cap 1) wakes the committer when work arrives; full (cap 1)
	// cuts an in-progress batch window short when the queue fills or
	// the WAL closes. Both are signal channels: send never blocks.
	kick     chan struct{}
	full     chan struct{}
	stopping bool
	done     chan struct{} // closed when the committer goroutine exits
	// windowTimer times the batch window (see sleepWindow). Only the
	// committer goroutine touches it.
	windowTimer *time.Timer

	rot *rotator
}

// rotator carries a WAL's segment-chain state. Guarded by WAL.mu.
type rotator struct {
	dir   string
	seq   int   // sequence number of the active segment
	limit int64 // rotate once the active segment reaches this size
	open  func(path string) (File, error)
	// onSeal observes every sealed segment (rotated-away active), with
	// the path, the highest LSN it can contain and its size. Called
	// with WAL.mu held; must not call back into the WAL.
	onSeal func(path string, lastLSN uint64, size int64)
}

// newWAL wraps the active segment file of a store, continuing the LSN
// sequence after lastLSN and rotating through rot's segment chain. The
// WAL starts as a follower's log with no batch window; set the
// committer's fields, then call startCommitter to make it a primary's.
func newWAL(f File, lastLSN uint64, syncEach bool, rot *rotator) *WAL {
	w := &WAL{
		f:        f,
		lastLSN:  lastLSN,
		syncEach: syncEach,
		follower: true,
		maxBatch: DefaultCommitBatch,
		kick:     make(chan struct{}, 1),
		full:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		rot:      rot,
	}
	w.durable.Set(lastLSN)
	return w
}

// ErrWALClosed is reported by appends after Close. The other two are
// the role refusals: each role has one entry point, and the other role
// refuses it.
var (
	ErrWALClosed     = errors.New("durable: wal closed")
	errFollowerWAL   = errors.New("durable: append to a follower's wal (its only writer is the replicated stream, until Promote)")
	errPrimaryFrames = errors.New("durable: AppendFrames on a primary's wal")
)

// Append assigns rec the next LSN and queues it for the committer. It
// returns the assigned LSN; the record is durable once WaitDurable(lsn)
// returns nil.
func (w *WAL) Append(rec Record) (uint64, error) {
	w.mu.Lock()
	err := w.err
	if err == nil && w.follower {
		err = errFollowerWAL
	}
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.lastLSN++
	rec.LSN = w.lastLSN
	w.queue = EncodeRecord(w.queue, rec)
	w.queued++
	if w.onTraceCommit != nil && rec.Mut.Trace != 0 {
		w.traced = append(w.traced, tracedRec{trace: rec.Mut.Trace, lsn: rec.LSN, enq: time.Now()})
	}
	full := w.queued >= w.maxBatch || w.queued >= w.lastGroup
	w.mu.Unlock()
	w.wake(full)
	return rec.LSN, nil
}

// AppendFrames commits a batch of pre-encoded record frames — a
// replicated commit group shipped from a primary — inline, and
// advances the LSN cursor to lastLSN. The frames carry the primary's
// LSNs, so the follower's log is byte-for-byte a prefix-preserving copy
// of the primary's history and promotion continues the same sequence.
// Only valid on a follower. The batch is durable per the sync policy
// when AppendFrames returns nil. frames stay the caller's: the WAL
// neither keeps nor ships them.
func (w *WAL) AppendFrames(frames []byte, lastLSN uint64, records int) error {
	w.mu.Lock()
	err := w.err
	if err == nil && !w.follower {
		err = errPrimaryFrames
	}
	f := w.f
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.commit(group{f: f, frames: frames, first: lastLSN - uint64(records) + 1, last: lastLSN, records: records, replicated: true})
}

// group is one batch of frames on its way to the log file f: the
// contiguous LSN run first..last of records records, and the queued
// records that carry a trace ID. replicated marks a follower's batch,
// which belongs to its caller: it is not shipped, recycled or counted
// as load.
type group struct {
	f           File
	frames      []byte
	first, last uint64
	records     int
	traced      []tracedRec
	replicated  bool
}

// commit is the only place log bytes are written. It writes g with one
// Write and at most one Sync, with mu released, then runs the group's
// hooks, still outside mu; only then does it take mu to advance the
// durable horizon and rotate — or, on failure, to make the error sticky
// and fail everything queued behind the group. So a waiter that wakes
// for this group finds its hooks already run. One writer at a time is
// the caller's guarantee: the committer goroutine on a primary, the
// replicated stream (serialized by Store.mu) on a follower.
func (w *WAL) commit(g group) error {
	start := time.Now()
	n, err := g.f.Write(g.frames)
	if err == nil && n < len(g.frames) {
		err = io.ErrShortWrite
	}
	wrote := err == nil
	if wrote && w.syncEach {
		err = g.f.Sync()
	}
	synced := wrote && w.syncEach && err == nil
	if err == nil {
		w.runHooks(g, start, synced)
	}

	w.mu.Lock()
	w.size += int64(n)
	if wrote {
		w.dirty = !synced
	}
	if err != nil {
		// The caller claimed g only from a healthy WAL, so this is the
		// degradation's first error.
		w.failLocked(err)
		w.dropQueueLocked() // the log must not grow past the failed group
		w.mu.Unlock()
		if w.onError != nil {
			w.onError(err)
		}
		return err
	}
	w.durable.Set(g.last)
	w.lastLSN = max(w.lastLSN, g.last)
	if !g.replicated {
		w.lastGroup = g.records
		// A shipped batch belongs to onShip now; only unshipped ones go
		// back in the recycle slot.
		if w.onShip == nil && w.recycle == nil && cap(g.frames) <= maxRecycledBatch {
			w.recycle = g.frames[:0]
		}
	}
	w.maybeRotateLocked()
	w.mu.Unlock()
	return nil
}

// runHooks observes one durable group. Called outside mu, before the
// group's waiters wake.
func (w *WAL) runHooks(g group, start time.Time, synced bool) {
	lat := time.Since(start)
	if w.onGroup != nil {
		w.onGroup(g.records, len(g.frames), lat)
	}
	if synced && w.onSync != nil {
		w.onSync()
	}
	if w.onShip != nil && !g.replicated {
		// One chain assigns LSNs in queue order, so first..last is a
		// contiguous run and groups ship in LSN order.
		w.onShip(g.first, g.last, g.records, g.frames)
	}
	if w.onTraceCommit != nil {
		for _, t := range g.traced {
			w.onTraceCommit(t.trace, t.lsn, start.Sub(t.enq), lat)
		}
	}
}

// dropQueueLocked discards every queued record. Caller holds mu.
func (w *WAL) dropQueueLocked() {
	w.queue = w.queue[:0]
	w.queued = 0
	w.traced = w.traced[:0]
}

// failLocked makes err the WAL's sticky error, failing every waiter
// the durable horizon does not cover. Caller holds mu.
func (w *WAL) failLocked(err error) {
	w.err = err
	w.durable.Fail(err)
}

// WaitDurable blocks until the record with the given LSN is durable per
// the sync policy, or the WAL has degraded.
//
// The durable horizon is checked before the sticky error so a record
// that made it to disk reports success even if a later group failed.
func (w *WAL) WaitDurable(lsn uint64) error {
	err, _ := w.durable.Wait(lsn, -1)
	return err
}

// Barrier blocks until every record appended before the call is
// durable per the sync policy (or reports the degradation error).
func (w *WAL) Barrier() error {
	return w.WaitDurable(w.lsnCursor())
}

// lsnCursor reports the LSN cursor: the last LSN assigned or written.
func (w *WAL) lsnCursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// durableLSN reports the highest LSN through which the log is durable.
func (w *WAL) durableLSN() uint64 { return w.durable.LSN() }

// syncDirtyLocked fsyncs if bytes were written since the last sync. The
// caller holds mu and emits the onSync hook after unlocking when synced
// is true.
func (w *WAL) syncDirtyLocked() (synced bool, err error) {
	if !w.dirty {
		return false, nil
	}
	if err := w.f.Sync(); err != nil {
		w.failLocked(err)
		return false, err
	}
	w.dirty = false
	return true, nil
}

// Size reports the active segment's length in bytes. It counts
// committed groups only; Barrier first for an exact figure.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Err reports the sticky error, if the WAL has failed.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.err, ErrWALClosed) {
		return nil
	}
	return w.err
}

// Close stops a primary's committer (draining the queue), syncs and
// closes the log file. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if !w.follower && !w.stopping {
		w.stopping = true
		w.mu.Unlock()
		w.wake(true) // kick the committer and cut any batch window short
		<-w.done
		w.mu.Lock()
	}
	if w.err != nil {
		w.f.Close()
		err := w.err
		w.mu.Unlock()
		return err
	}
	synced, err := w.syncDirtyLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.failLocked(ErrWALClosed)
	onSync := w.onSync
	w.mu.Unlock()
	if synced && err == nil && onSync != nil {
		onSync()
	}
	return err
}

// maybeRotateLocked seals the active segment and opens the next one
// once the active segment reached the rotation limit. Called with mu
// held by commit, after its group, so no write is in flight. Rotation
// is rare — once per segment-size bytes — so the file operations run
// under mu.
func (w *WAL) maybeRotateLocked() {
	if w.err != nil || w.size < w.rot.limit {
		return
	}
	w.rotateLocked()
}

// rotateLocked seals the active segment (fsync), opens the next
// segment in the chain, fsyncs the directory so the new entry is
// durable before any record lands in it, and hands the sealed segment
// to the rotator's onSeal observer. On any failure the WAL degrades
// (sticky error) rather than continuing into an uncertain chain.
func (w *WAL) rotateLocked() {
	rot := w.rot
	if _, err := w.syncDirtyLocked(); err != nil {
		return
	}
	next := rot.seq + 1
	path := filepath.Join(rot.dir, segmentFileName(next))
	f, err := rot.open(path)
	if err != nil {
		w.failLocked(err)
		return
	}
	syncDir(rot.dir)
	old := w.f
	oldPath := filepath.Join(rot.dir, segmentFileName(rot.seq))
	oldSize := w.size
	w.f = f
	w.size = 0
	rot.seq = next
	if rot.onSeal != nil {
		rot.onSeal(oldPath, w.lastLSN, oldSize)
	}
	old.Close()
}

// resetForCompact rotates the WAL onto a fresh segment after a
// snapshot covering everything through lsn was published, clearing any
// degraded state: the sealed (possibly failed) segment becomes
// immediately prunable, queued-but-unwritten records are dropped (the
// snapshot carries their effects), and the LSN cursor and durable
// horizon jump to lsn. The caller must have excluded all appends
// (quiesce + store lock) and drained the committer (Barrier).
func (w *WAL) resetForCompact(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.size > 0 {
		hadErr := w.err
		w.err = nil // allow the rotate; restored on failure below
		w.rotateLocked()
		if w.err != nil {
			if hadErr != nil {
				w.failLocked(hadErr)
			}
			return w.err
		}
	}
	w.failLocked(nil)
	w.lastLSN = lsn
	w.durable.Set(lsn)
	w.dropQueueLocked()
	return nil
}

// syncDir fsyncs a directory so a just-created file's directory entry
// is durable. Best-effort: filesystems that refuse directory fsync are
// no worse off than before.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
