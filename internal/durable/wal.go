package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

// WAL appends framed records to a log. It is safe for concurrent use
// and is in exactly one of two states:
//
//   - Primary (after StartGroupCommit): Append encodes the record into
//     an in-memory queue under a short lock and returns; a dedicated
//     committer goroutine coalesces queued frames into one write + one
//     fsync per group. Callers that need durability park on
//     WaitDurable or Barrier.
//   - Follower (no committer, until Promote starts one): the log
//     receives commit groups a primary already formed, through
//     AppendFrames, written and synced inline. Append is an error.
//
// A WAL is one shard of a store's commit pipeline: records draw their
// LSNs from a shared atomic allocator (so the total order spans
// shards) but queue, commit and fsync independently per shard. The log
// is a chain of bounded segment files, rotated once the active segment
// reaches the rotator's size limit.
//
// Either way the first write or sync error is sticky: the WAL stops
// accepting appends and reports the error from then on, because a log
// with a hole in it must not keep growing — recovery would stop at the
// hole and silently drop everything after it.
type WAL struct {
	mu sync.Mutex
	f  File
	// alloc is the global LSN allocator (holds the last allocated LSN),
	// shared by every shard of a store; Add(1) under mu keeps each
	// shard's queue LSN-monotonic while the union stays a total order.
	alloc   *atomic.Uint64
	lastLSN uint64 // last LSN appended to THIS shard's log
	size    int64  // active segment length in bytes
	pending int    // records written since the last sync
	// syncEveryN: 1 syncs after every commit group (the only setting
	// with no loss window), k>1 syncs every k records, 0 never syncs
	// (the OS decides when bytes reach the platter).
	syncEveryN int
	err        error
	// lost is the lowest LSN this shard accepted but then dropped to a
	// degradation (failed write, dropped queue); 0 when none. It pins
	// the store's global durable horizon below the hole until
	// compaction covers it.
	lost uint64

	// observers, optional. Emitted after mu is released so a slow sink
	// cannot extend the commit critical section.
	onAppend func(records, bytes int)
	onSync   func()

	rot *rotator
	gc  *groupState // the committer's state; nil on a follower
}

// rotator carries a shard WAL's segment-chain state. Guarded by WAL.mu.
type rotator struct {
	dir    string
	shards int // journal shard count stamped into segment names
	shard  int
	seq    int   // sequence number of the active segment
	limit  int64 // rotate once the active segment reaches this size
	open   func(path string) (File, error)
	// onSeal observes every sealed segment (rotated-away active), with
	// the path, the highest LSN it can contain and its size. Called
	// with WAL.mu held; must not call back into the WAL.
	onSeal func(path string, lastLSN uint64, size int64)
}

// newShardWAL wraps the active segment file of one store shard,
// drawing LSNs from the store's shared allocator and rotating through
// rot's segment chain.
func newShardWAL(f File, alloc *atomic.Uint64, syncEveryN int, rot *rotator) *WAL {
	return &WAL{f: f, alloc: alloc, lastLSN: alloc.Load(), syncEveryN: syncEveryN, rot: rot}
}

// ErrWALClosed is reported by appends after Close.
var ErrWALClosed = errors.New("durable: wal closed")

// errNoCommitter is reported by appends to a follower's WAL: its only
// writer is the replicated stream, until Promote starts the committer.
var errNoCommitter = errors.New("durable: append to a wal with no committer (a follower before Promote)")

// appendableLocked reports why w cannot take an append: its sticky
// error, or being a follower's log. Caller holds mu.
func (w *WAL) appendableLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.gc == nil {
		return errNoCommitter
	}
	return nil
}

// Append assigns rec the next LSN from the shared allocator and queues
// it for the committer. It returns the assigned LSN; the record is
// durable once WaitDurable(lsn) returns nil.
func (w *WAL) Append(rec Record) (uint64, error) {
	w.mu.Lock()
	if err := w.appendableLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	rec.LSN = w.alloc.Add(1)
	w.lastLSN = rec.LSN
	g := w.gc
	full := w.enqueueLocked(g, rec)
	w.mu.Unlock()
	g.wake(full)
	return rec.LSN, nil
}

// enqueueLocked queues one record for the committer and reports
// whether the queue is now full enough to cut a batch window short.
// Caller holds mu.
func (w *WAL) enqueueLocked(g *groupState, rec Record) (full bool) {
	if g.queued == 0 {
		g.firstQueued = rec.LSN
	}
	g.queue = EncodeRecord(g.queue, rec)
	g.queued++
	g.lastLSN = rec.LSN
	if g.onTraceCommit != nil && rec.Mut.Trace != 0 {
		g.traced = append(g.traced, tracedRec{trace: rec.Mut.Trace, lsn: rec.LSN, enq: time.Now()})
	}
	return g.queued >= g.maxBatch || g.queued >= g.lastGroup
}

// noteLostLocked records the lowest LSN dropped to a degradation.
func (w *WAL) noteLostLocked(lsn uint64) {
	if lsn != 0 && (w.lost == 0 || lsn < w.lost) {
		w.lost = lsn
	}
}

// appendCross appends one record to two shard logs under a single LSN,
// setting FlagCrossShard on both copies. The caller passes the shards
// in canonical (increasing-index) order and already holds both
// journal-shard locks; both WAL locks are taken here in the same order
// so allocation and enqueueing are atomic with respect to each shard's
// other appends. The caller must then WaitDurable the returned LSN on
// BOTH shards before releasing the journal locks — that synchronous
// commit is what guarantees no later record in either shard exists
// until the cross record is durable everywhere (see DESIGN.md §15).
func appendCross(lo, hi *WAL, rec Record) (uint64, error) {
	if lo == hi {
		return lo.Append(rec)
	}
	lo.mu.Lock()
	hi.mu.Lock()
	err := lo.appendableLocked()
	if err == nil {
		err = hi.appendableLocked()
	}
	if err != nil {
		hi.mu.Unlock()
		lo.mu.Unlock()
		return 0, err
	}
	rec.Flags |= FlagCrossShard
	rec.LSN = lo.alloc.Add(1) // shared allocator: one LSN for both copies
	lo.lastLSN = rec.LSN
	hi.lastLSN = rec.LSN

	// Enqueue in both shards; the trace (if any) is attributed once, on
	// the lower shard.
	loFull := lo.enqueueLocked(lo.gc, rec)
	hiRec := rec
	hiRec.Mut.Trace = 0
	hiFull := hi.enqueueLocked(hi.gc, hiRec)
	hi.mu.Unlock()
	lo.mu.Unlock()
	lo.gc.wake(loFull)
	hi.gc.wake(hiFull)
	return rec.LSN, nil
}

// AppendFrames writes a batch of pre-encoded record frames — a
// replicated commit group shipped from a primary — and advances the
// LSN cursor to lastLSN+1. The frames carry the primary's LSNs, so the
// follower's log is byte-for-byte a prefix-preserving copy of the
// primary's history and promotion continues the same sequence. Only
// valid on a follower (a replica never runs the group-commit pipeline;
// its groups were formed on the primary). The batch syncs per the sync
// policy, counting one pending record per replicated record.
func (w *WAL) AppendFrames(frames []byte, lastLSN uint64, records int) error {
	w.mu.Lock()
	if w.gc != nil {
		w.mu.Unlock()
		return errors.New("durable: AppendFrames on a group-commit wal")
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	n, err := w.f.Write(frames)
	w.size += int64(n)
	if err == nil && n < len(frames) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		w.noteLostLocked(lastLSN - uint64(records) + 1)
		w.mu.Unlock()
		return err
	}
	w.alloc.Store(lastLSN)
	w.lastLSN = lastLSN
	w.pending += records
	synced := false
	if w.syncEveryN > 0 && w.pending >= w.syncEveryN {
		if err := w.f.Sync(); err != nil {
			w.err = err
			w.noteLostLocked(lastLSN - uint64(records) + 1)
			w.mu.Unlock()
			return err
		}
		w.pending = 0
		synced = true
	}
	onAppend, onSync := w.onAppend, w.onSync
	w.maybeRotateLocked()
	w.mu.Unlock()
	if onAppend != nil {
		onAppend(records, len(frames))
	}
	if synced && onSync != nil {
		onSync()
	}
	return nil
}

// pendingFloor reports the lowest LSN this shard has accepted but not
// yet made durable — queued, in-flight, or lost to a degradation — or
// 0 when everything accepted is durable. The store's global durable
// horizon is min over shards of (floor-1).
func (w *WAL) pendingFloor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	floor := w.lost
	if g := w.gc; g != nil {
		for _, f := range [2]uint64{g.inflightFirst, g.firstQueued} {
			if f != 0 && (floor == 0 || f < floor) {
				floor = f
			}
		}
	}
	return floor
}

// Sync forces outstanding records to stable storage, first waiting for
// the commit pipeline (if running) to drain.
func (w *WAL) Sync() error {
	w.mu.Lock()
	if w.gc != nil {
		target := w.lastLSN
		w.mu.Unlock()
		if err := w.WaitDurable(target); err != nil {
			return err
		}
		w.mu.Lock()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	synced, err := w.syncPendingLocked()
	onSync := w.onSync
	w.mu.Unlock()
	if synced && onSync != nil {
		onSync()
	}
	return err
}

// syncPendingLocked fsyncs if records are pending. The caller holds mu
// and emits the onSync hook after unlocking when synced is true.
func (w *WAL) syncPendingLocked() (synced bool, err error) {
	if w.pending == 0 {
		return false, nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return false, err
	}
	w.pending = 0
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

// Close stops the committer (draining the queue), syncs and closes the
// log file. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	if g := w.gc; g != nil && !g.stopping {
		g.stopping = true
		w.mu.Unlock()
		g.wake(true) // kick the committer and cut any batch window short
		<-g.done
		w.mu.Lock()
	}
	if w.err != nil {
		w.f.Close()
		err := w.err
		w.mu.Unlock()
		return err
	}
	synced, err := w.syncPendingLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.err = ErrWALClosed
	onSync := w.onSync
	w.mu.Unlock()
	if synced && err == nil && onSync != nil {
		onSync()
	}
	return err
}

// maybeRotateLocked seals the active segment and opens the next one
// once the active segment reached the rotation limit. Called with mu
// held at a point where no write is in flight (AppendFrames holds mu
// across its write; otherwise only the committer writes, and it
// rotates between groups). Rotation is rare — once per segment-size
// bytes — so the file operations run under mu.
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
	if w.pending > 0 {
		if err := w.f.Sync(); err != nil {
			w.err = err
			return
		}
		w.pending = 0
	}
	next := rot.seq + 1
	path := filepath.Join(rot.dir, segmentFileName(rot.shards, rot.shard, next))
	f, err := rot.open(path)
	if err != nil {
		w.err = err
		return
	}
	syncDir(rot.dir)
	old := w.f
	oldPath := filepath.Join(rot.dir, segmentFileName(rot.shards, rot.shard, rot.seq))
	oldSize := w.size
	w.f = f
	w.size = 0
	rot.seq = next
	if rot.onSeal != nil {
		rot.onSeal(oldPath, w.lastLSN, oldSize)
	}
	old.Close()
}

// resetForCompact rotates the shard onto a fresh segment after a
// snapshot covered everything appended so far, clearing any degraded
// state: the sealed (possibly failed) segment becomes immediately
// prunable, queued-but-unwritten records are dropped (the snapshot
// carries their effects), and the durable horizon jumps to the shard's
// last accepted LSN, releasing any waiter a degraded pipeline
// stranded. The caller must have excluded all appends (quiesce + store
// lock) and drained the committer (Barrier).
func (w *WAL) resetForCompact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.size > 0 {
		hadErr := w.err
		w.err = nil // allow the rotate; restored on failure below
		w.rotateLocked()
		if w.err != nil {
			if hadErr != nil {
				w.err = hadErr
			}
			return w.err
		}
	}
	w.err = nil
	w.lost = 0
	if g := w.gc; g != nil {
		g.queue = g.queue[:0]
		g.queued = 0
		g.traced = g.traced[:0]
		g.firstQueued = 0
		g.inflightFirst = 0
		g.durable = w.lastLSN
		g.errNotified = false
		g.advanceLocked()
	}
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
