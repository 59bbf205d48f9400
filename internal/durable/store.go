package durable

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// File names inside a state directory, next to the log segments (see
// segment.go). legacyLogName is the single-file log of the format
// before segments, which Open refuses rather than misreads.
const (
	SnapshotName  = "snapshot.img"
	snapshotTmp   = "snapshot.tmp"
	legacyLogName = "wal.log"
)

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 8 << 20

// Metric names exported by every store.
const (
	MetricWALRecords     = "durable_wal_records_total"
	MetricWALBytes       = "durable_wal_bytes_total"
	MetricWALFsyncs      = "durable_wal_fsyncs_total"
	MetricWALAppendErrs  = "durable_wal_append_errors_total"
	MetricWALSize        = "durable_wal_size_bytes"
	MetricWALSegments    = "durable_wal_segments"
	MetricSegsPruned     = "durable_segments_pruned_total"
	MetricReplayRecords  = "durable_replay_records_total"
	MetricReplaySkipped  = "durable_replay_skipped_total"
	MetricTruncatedBytes = "durable_replay_truncated_bytes_total"
	MetricCompactions    = "durable_snapshot_compactions_total"
	MetricSnapshotBytes  = "durable_snapshot_bytes"
	MetricRecoveries     = "durable_recoveries_total"
	// Group-commit pipeline metrics.
	MetricCommitGroups    = "durable_commit_groups_total"
	MetricCommitGroupRecs = "durable_commit_group_records"
	MetricCommitLatencyUs = "durable_commit_latency_us"
)

// Histogram bucket bounds for the group-commit metrics.
var (
	groupRecsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	commitLatBuckets = []float64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}
)

// Options configure a store.
type Options struct {
	// Owner owns the root of a freshly initialized file system (when the
	// state directory holds no snapshot and no log).
	Owner string
	// SyncEveryN is the fsync cadence: 1 (the default) syncs after every
	// commit group, k>1 every k records, and a negative value never
	// syncs.
	SyncEveryN int
	// Shards is the number of commit-pipeline shards: journal shard
	// locks, WAL segment chains and committer goroutines. Mutations in
	// different top-level subtrees commit through different shards in
	// parallel. 0 or 1 keeps the single-shard pipeline.
	Shards int
	// SegmentBytes rotates the active WAL segment once it reaches this
	// size. 0 uses DefaultSegmentBytes.
	SegmentBytes int64
	// RetainLSN, when set, is consulted at compaction: sealed segments
	// are pruned only up to min(snapshot LSN, RetainLSN()). The
	// replication layer uses it to hold segments until the slowest
	// subscriber has acked them, so a lagging follower can still be
	// served a log tail instead of a full snapshot.
	RetainLSN func() uint64
	// CommitWindow is the group-commit batch window: under load the
	// committer waits this long for stragglers before flushing, so one
	// fsync covers the whole group. 0 uses DefaultCommitWindow; a
	// negative value disables the wait (groups are whatever accumulated
	// during the previous flush).
	CommitWindow time.Duration
	// CommitBatch flushes a group as soon as it reaches this many
	// records regardless of the window. 0 uses DefaultCommitBatch.
	CommitBatch int
	// Metrics, when set, receives the store's counters and gauges.
	Metrics *obs.Registry
	// Spans, when set, receives one "wal.commit" span per committed
	// mutation that carried a request-tracing ID (vfs.Mutation.Trace),
	// with queue and write+fsync phases. Nil disables trace tracking in
	// the commit pipeline entirely.
	Spans *obs.SpanRing
	// OpenAppend opens WAL segment files for appending; tests inject
	// faultdisk files here. The default opens an ordinary os file.
	OpenAppend func(path string) (File, error)
	// Logf, when set, receives recovery and degradation notices.
	Logf func(format string, args ...any)
	// ReplicaMode opens the store as a replication follower: the file
	// system is not journaled (mutations arrive pre-encoded from the
	// primary via ApplyReplicated, which writes them to this store's own
	// WAL under the primary's LSNs), and the group-commit pipeline stays
	// off until Promote turns the follower into a primary.
	ReplicaMode bool
	// OnShip, when set on a primary, receives every durable commit
	// group's raw frames for replication fan-out (see
	// GroupConfig.OnShip). On a sharded store the groups pass through a
	// resequencer first, so OnShip always sees contiguous LSN runs in
	// order. On a replica it takes effect at Promote.
	OnShip func(first, last uint64, records int, frames []byte)
}

// RecoveryInfo describes what Open found and did.
type RecoveryInfo struct {
	SnapshotLSN    uint64 // LSN the loaded snapshot covers (0: none)
	Segments       int    // log segment files found
	Replayed       int    // WAL records applied
	Skipped        int    // records at or below the snapshot LSN
	Unapplied      int    // records whose replay failed (should be 0)
	TruncatedBytes int64  // torn-tail bytes discarded from the log
	Torn           bool   // whether a torn tail was found
	HalfCross      int    // cross-shard records found in only one shard's log
	DedupeEntries  int    // tokened replies carried across the restart
}

func (ri RecoveryInfo) String() string {
	return fmt.Sprintf("snapshot lsn %d, %d segments, %d replayed, %d skipped, %d unapplied, %d torn bytes truncated, %d half-committed cross records, %d dedupe entries",
		ri.SnapshotLSN, ri.Segments, ri.Replayed, ri.Skipped, ri.Unapplied, ri.TruncatedBytes, ri.HalfCross, ri.DedupeEntries)
}

// storeMetrics caches the store's metric handles.
type storeMetrics struct {
	records     *obs.Counter
	bytes       *obs.Counter
	fsyncs      *obs.Counter
	appendErrs  *obs.Counter
	walSize     *obs.Gauge
	walSegments *obs.Gauge
	segsPruned  *obs.Counter
	replayed    *obs.Counter
	skipped     *obs.Counter
	truncated   *obs.Counter
	compactions *obs.Counter
	snapBytes   *obs.Gauge
	recoveries  *obs.Counter
	groups      *obs.Counter
	groupRecs   *obs.Histogram
	commitLat   *obs.Histogram
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	reg.Help(MetricWALRecords, "Records appended to the write-ahead log.")
	reg.Help(MetricWALBytes, "Bytes appended to the write-ahead log.")
	reg.Help(MetricWALFsyncs, "fsync calls issued for the write-ahead log.")
	reg.Help(MetricWALAppendErrs, "Append or sync failures (durability degraded until the next compaction).")
	reg.Help(MetricWALSize, "Current write-ahead log length in bytes.")
	reg.Help(MetricWALSegments, "Live write-ahead log segment files (sealed plus active).")
	reg.Help(MetricSegsPruned, "WAL segments pruned after snapshot compaction.")
	reg.Help(MetricReplayRecords, "WAL records applied during recoveries.")
	reg.Help(MetricReplaySkipped, "WAL records skipped during recoveries (already covered by the snapshot).")
	reg.Help(MetricTruncatedBytes, "Torn-tail bytes truncated from the log during recoveries.")
	reg.Help(MetricCompactions, "Snapshot compactions completed.")
	reg.Help(MetricSnapshotBytes, "Size of the last published snapshot in bytes.")
	reg.Help(MetricRecoveries, "Recoveries performed (1 per Open).")
	reg.Help(MetricCommitGroups, "Commit groups flushed by the group-commit pipeline.")
	reg.Help(MetricCommitGroupRecs, "Records coalesced per commit group.")
	reg.Help(MetricCommitLatencyUs, "Group commit latency (write start to durable) in microseconds.")
	return &storeMetrics{
		records:     reg.Counter(MetricWALRecords),
		bytes:       reg.Counter(MetricWALBytes),
		fsyncs:      reg.Counter(MetricWALFsyncs),
		appendErrs:  reg.Counter(MetricWALAppendErrs),
		walSize:     reg.Gauge(MetricWALSize),
		walSegments: reg.Gauge(MetricWALSegments),
		segsPruned:  reg.Counter(MetricSegsPruned),
		replayed:    reg.Counter(MetricReplayRecords),
		skipped:     reg.Counter(MetricReplaySkipped),
		truncated:   reg.Counter(MetricTruncatedBytes),
		compactions: reg.Counter(MetricCompactions),
		snapBytes:   reg.Gauge(MetricSnapshotBytes),
		recoveries:  reg.Counter(MetricRecoveries),
		groups:      reg.Counter(MetricCommitGroups),
		groupRecs:   reg.Histogram(MetricCommitGroupRecs, groupRecsBuckets),
		commitLat:   reg.Histogram(MetricCommitLatencyUs, commitLatBuckets),
	}
}

// snapFile is the serialized snapshot: the VFS image from vfs.Save plus
// the dedupe table, bound to the log position they cover. Epoch is the
// replication fencing term at snapshot time (0 on pre-replication
// snapshots, which gob decodes as the zero value).
type snapFile struct {
	Version int
	LSN     uint64
	Epoch   uint64
	Dedupe  map[string][]string
	FS      []byte
}

const snapFileVersion = 1

// sealedSeg is one sealed (no longer written) log file: a rotated-away
// segment, a compaction-reset active segment, or a pre-existing file
// found at Open. lastLSN is the highest LSN the file can contain; the
// file is prunable once a snapshot and every replication subscriber
// have passed it.
type sealedSeg struct {
	path    string
	lastLSN uint64
	size    int64
}

// Store binds a vfs.FS to a state directory: it journals every
// mutation to the WAL (implementing vfs.Journal), persists tokened
// replies for exactly-once retries, and compacts the log into
// snapshots. Create one with Open, which also performs recovery.
//
// The commit pipeline is sharded by top-level subtree (vfs.ShardOf):
// each shard has its own journal lock, segment chain and committer
// goroutine, while a single atomic allocator hands out LSNs so the
// union of all shards' records remains one totally ordered history.
type Store struct {
	dir  string
	fs   *vfs.FS
	opts Options

	mu      sync.Mutex // guards dedupe, snapLSN, replica state, compaction
	wals    []*WAL     // one per shard; immutable after Open
	alloc   atomic.Uint64
	shards  int
	dedupe  map[string][]string
	snapLSN uint64

	// sealed tracks sealed segments for pruning. Its own lock, ordered
	// after WAL.mu (rotation seals under the WAL lock).
	sealMu sync.Mutex
	sealed []sealedSeg

	// shipSeq resequences sharded commit groups into one LSN-ordered
	// stream for Options.OnShip; nil on single-shard stores (groups pass
	// through directly) and until Promote on replicas.
	shipSeq *shipSeq

	// Replication state. epoch is the fencing term this store last saw
	// (recovered from the snapshot and epoch records, advanced by
	// SetEpochDurable on a primary and by replicated epoch records on a
	// follower). replica marks follower mode until Promote; lastApplied
	// is the follower's applied-LSN horizon, and appliedCh is closed and
	// replaced whenever it advances, waking WaitApplied parkers.
	epoch       uint64
	replica     bool
	lastApplied uint64
	appliedCh   chan struct{}
	gcCfg       GroupConfig // saved for Promote (a replica defers StartGroupCommit)

	metrics  *storeMetrics
	recovery RecoveryInfo
	logf     func(format string, args ...any)

	// lastCommitLat is the most recent group's write+fsync latency in
	// nanoseconds, published by the commit pipeline for BarrierTraced.
	lastCommitLat atomic.Int64
}

func defaultOpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Open recovers the state directory and returns the store bound to the
// recovered file system: it loads the newest snapshot (if any), replays
// the log segments past the snapshot's LSN — one worker per shard
// chain, rendezvousing on cross-shard records — truncates any torn
// tail at the last valid record, and attaches itself as the file
// system's journal so every further mutation is logged.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Owner == "" {
		opts.Owner = "chirp"
	}
	if opts.SyncEveryN == 0 {
		opts.SyncEveryN = 1
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.OpenAppend == nil {
		opts.OpenAppend = defaultOpenAppend
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: state dir: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		shards:    opts.Shards,
		dedupe:    make(map[string][]string),
		replica:   opts.ReplicaMode,
		appliedCh: make(chan struct{}),
		metrics:   newStoreMetrics(reg),
		logf:      opts.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}

	// A crash may have left a half-written snapshot.tmp; it was never
	// renamed into place, so it is garbage.
	os.Remove(filepath.Join(dir, snapshotTmp))

	// 1. Snapshot, if one has been published.
	fs, err := s.loadSnapshot()
	if err != nil {
		return nil, err
	}
	if fs == nil {
		fs = vfs.New(opts.Owner)
	}
	s.fs = fs
	s.recovery.SnapshotLSN = s.snapLSN

	// 2. Replay the log segments past the snapshot LSN, truncating any
	// torn tail. Everything found on disk becomes a sealed segment.
	maxLSN, nextSeq, err := s.recoverLog()
	if err != nil {
		return nil, err
	}

	// 3. Open a fresh active segment per shard and attach the journal.
	nextLSN := maxLSN + 1
	if s.snapLSN >= maxLSN {
		nextLSN = s.snapLSN + 1
	}
	s.alloc.Store(nextLSN - 1)
	syncN := opts.SyncEveryN
	if syncN < 0 {
		syncN = 0
	}
	onAppend := func(recs, n int) {
		s.metrics.records.Add(int64(recs))
		s.metrics.bytes.Add(int64(n))
		s.metrics.walSize.Add(int64(n))
	}
	onSync := func() { s.metrics.fsyncs.Inc() }
	s.wals = make([]*WAL, s.shards)
	for j := range s.wals {
		rot := &rotator{
			dir:    dir,
			shards: s.shards,
			shard:  j,
			seq:    nextSeq[j],
			limit:  opts.SegmentBytes,
			open:   opts.OpenAppend,
			onSeal: s.noteSealed,
		}
		f, err := opts.OpenAppend(filepath.Join(dir, segmentFileName(s.shards, j, rot.seq)))
		if err != nil {
			return nil, fmt.Errorf("durable: opening wal segment: %w", err)
		}
		w := newShardWAL(f, &s.alloc, syncN, rot)
		w.onAppend = onAppend
		w.onSync = onSync
		s.wals[j] = w
	}
	syncDir(dir)

	window := opts.CommitWindow
	switch {
	case window == 0:
		window = DefaultCommitWindow
	case window < 0:
		window = 0
	}
	cfg := GroupConfig{
		Window:   window,
		MaxBatch: opts.CommitBatch,
		OnGroup: func(records, _ int, latency time.Duration) {
			s.lastCommitLat.Store(int64(latency))
			s.metrics.groups.Inc()
			s.metrics.groupRecs.Observe(float64(records))
			s.metrics.commitLat.Observe(float64(latency.Microseconds()))
		},
		OnError: func(err error) {
			s.metrics.appendErrs.Inc()
			s.logf("durable: wal append failed, durability degraded until compaction: %v", err)
		},
		OnShip: opts.OnShip,
	}
	if spans := opts.Spans; spans != nil {
		cfg.OnTraceCommit = func(trace, lsn uint64, queued, commit time.Duration) {
			sp := obs.Span{
				Trace: trace,
				ID:    spans.NextSpanID(),
				Name:  "wal.commit",
				Cmd:   fmt.Sprintf("lsn %d", lsn),
				Start: time.Now().Add(-(queued + commit)),
				Dur:   queued + commit,
			}
			sp.Phase("queue", 0, queued)
			sp.Phase("write+fsync", queued, commit)
			spans.Record(sp)
		}
	}
	s.gcCfg = cfg
	if !s.replica {
		cfg.OnShip = s.wireShip(cfg.OnShip, nextLSN)
		for _, w := range s.wals {
			w.StartGroupCommit(cfg)
		}
	}
	var liveBytes int64
	s.sealMu.Lock()
	for _, seg := range s.sealed {
		liveBytes += seg.size
	}
	segCount := len(s.sealed) + s.shards
	s.sealMu.Unlock()
	s.metrics.walSize.Set(liveBytes)
	s.metrics.walSegments.Set(int64(segCount))
	s.metrics.recoveries.Inc()
	s.recovery.DedupeEntries = len(s.dedupe)
	if s.replica {
		// A follower applies pre-encoded records from the primary; its
		// own file system is never journaled, and its applied horizon
		// resumes where the recovered log ended.
		s.lastApplied = nextLSN - 1
		return s, nil
	}
	fs.SetJournalSharded(s, s.shards)
	return s, nil
}

// wireShip adapts the OnShip hook to the shard count: single-shard
// groups already arrive in LSN order and pass through zero-copy;
// sharded groups go through the resequencer.
func (s *Store) wireShip(onShip func(first, last uint64, records int, frames []byte), nextLSN uint64) func(first, last uint64, records int, frames []byte) {
	if onShip == nil || s.shards == 1 {
		return onShip
	}
	seq := newShipSeq(nextLSN, onShip)
	s.shipSeq = seq
	return func(_, _ uint64, _ int, frames []byte) { seq.ingest(frames) }
}

// noteSealed records a sealed segment for later pruning. Called by the
// rotator with the sealing WAL's mu held.
func (s *Store) noteSealed(path string, lastLSN uint64, size int64) {
	s.sealMu.Lock()
	s.sealed = append(s.sealed, sealedSeg{path: path, lastLSN: lastLSN, size: size})
	s.sealMu.Unlock()
	s.metrics.walSegments.Inc()
}

// loadSnapshot reads snapshot.img if present, returning the rebuilt
// file system (nil when no snapshot exists) and filling dedupe/snapLSN.
func (s *Store) loadSnapshot() (*vfs.FS, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, SnapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	snap, fs, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	for k, v := range snap.Dedupe {
		s.dedupe[k] = v
	}
	s.snapLSN = snap.LSN
	s.epoch = snap.Epoch
	s.metrics.snapBytes.Set(int64(len(data)))
	return fs, nil
}

// FS returns the recovered file system the store journals for.
func (s *Store) FS() *vfs.FS { return s.fs }

// Recovery reports what the Open recovery pass found.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Err reports the WAL's sticky failure, if appends have started
// failing; nil means the log is healthy. It first drains the commit
// pipeline so the verdict covers every mutation already issued.
func (s *Store) Err() error {
	for _, w := range s.wals {
		w.Barrier() // surface in-flight failures; error also lands in Err
	}
	for _, w := range s.wals {
		if err := w.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Barrier blocks until every mutation recorded before the call is
// durable per the sync policy, or reports the degradation error. This
// is the acked ⇒ durable contract: acknowledge an operation to a
// client only after Barrier returns nil.
func (s *Store) Barrier() error {
	var firstErr error
	for _, w := range s.wals {
		if err := w.Barrier(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// BarrierPath is Barrier scoped to the shard that commits path's
// subtree: it waits only for that shard's pipeline, leaving the other
// shards' in-flight groups alone. Callers that know all their
// mutations touched one subtree (the common case for a single request)
// get durability without cross-shard convoy.
func (s *Store) BarrierPath(path string) error {
	return s.wals[vfs.ShardOf(path, s.shards)].Barrier()
}

// BarrierTraced is Barrier plus the timing a traced request wants: how
// long this caller waited for durability, and the write+fsync latency
// of the most recent commit group (the one that, in the common case,
// made the caller's mutations durable). The commit latency is a
// best-effort attribution — under concurrency a later group may have
// published since — which is fine for observability.
func (s *Store) BarrierTraced() (wait, commitLat time.Duration, err error) {
	start := time.Now()
	err = s.Barrier()
	return time.Since(start), time.Duration(s.lastCommitLat.Load()), err
}

// RecordMutation implements vfs.Journal: it appends the mutation to
// the shard WAL owning the mutation's subtree. Called with the
// mutation's journal shard lock(s) held, so each shard's records land
// in commit order; no store-wide lock is taken, which is what lets
// disjoint subtrees commit in parallel. This only encodes the record
// into the shard's queue — no disk I/O under the journal lock. Append
// failures are absorbed (the in-memory state
// is already committed): they flip the shard's sticky error and
// surface through Err/Barrier and the log.
//
// A rename or link whose two paths map to different shards is a
// cross-shard commit: the record is appended to both shards' logs
// under one LSN and — still inside both journal locks — waited durable
// on both, so no later record in either shard can exist unless the
// cross record survives recovery (see DESIGN.md §15).
func (s *Store) RecordMutation(m vfs.Mutation) {
	rec := Record{Type: uint8(m.Op), Mut: m}
	if m.Op == vfs.MutRename || m.Op == vfs.MutLink {
		a, b := vfs.ShardOf(m.Path, s.shards), vfs.ShardOf(m.Path2, s.shards)
		if a != b {
			if a > b {
				a, b = b, a
			}
			lo, hi := s.wals[a], s.wals[b]
			hadErr := lo.Err() != nil || hi.Err() != nil
			lsn, err := appendCross(lo, hi, rec)
			if err == nil {
				err = lo.WaitDurable(lsn)
				if err2 := hi.WaitDurable(lsn); err == nil {
					err = err2
				}
			}
			if err != nil {
				s.metrics.appendErrs.Inc()
				if !hadErr {
					s.logf("durable: wal append failed, durability degraded until compaction: %v", err)
				}
			}
			return
		}
	}
	w := s.wals[vfs.ShardOf(m.Path, s.shards)]
	hadErr := w.Err() != nil
	if _, err := w.Append(rec); err != nil {
		s.metrics.appendErrs.Inc()
		if !hadErr {
			s.logf("durable: wal append failed, durability degraded until compaction: %v", err)
		}
	}
}

// AppendDedupe persists one tokened reply so a retry after a restart is
// answered from the table instead of re-executed. Key is the server's
// opaque principal+token key. It returns only once the entry is durable
// per the sync policy: the caller sends the reply on the wire after
// this, so a crash can never have acknowledged what the log lost. The
// append itself happens under s.mu — which is what keeps it ordered
// against compaction's log reset — but the durability wait happens
// outside, so concurrent mutators are not serialized behind this
// entry's group fsync.
func (s *Store) AppendDedupe(key string, reply []string) error {
	w := s.wals[vfs.ShardOfKey(key, s.shards)]
	s.mu.Lock()
	s.dedupe[key] = append([]string(nil), reply...)
	lsn, err := w.Append(Record{Type: DedupeType, DedupeKey: key, DedupeReply: reply})
	s.mu.Unlock()
	if err != nil {
		s.metrics.appendErrs.Inc()
		return err
	}
	return w.WaitDurable(lsn)
}

// DedupeEntries returns a copy of the recovered (and since appended)
// dedupe table, for seeding a server's in-memory table.
func (s *Store) DedupeEntries() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]string, len(s.dedupe))
	for k, v := range s.dedupe {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// WALSize reports the total live log length in bytes: sealed segments
// not yet pruned plus every shard's active segment.
func (s *Store) WALSize() int64 {
	var total int64
	s.sealMu.Lock()
	for _, seg := range s.sealed {
		total += seg.size
	}
	s.sealMu.Unlock()
	for _, w := range s.wals {
		total += w.Size()
	}
	return total
}

// Segments reports how many live log files the store holds (sealed
// plus one active per shard).
func (s *Store) Segments() int {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return len(s.sealed) + len(s.wals)
}

// Compact publishes a snapshot and prunes the log. The protocol:
//
//  1. quiesce journaled mutations (all journal shard locks) and take
//     s.mu, excluding dedupe appends; barrier every shard so the
//     committers are provably idle;
//  2. serialize the tree + dedupe table bound to the current LSN;
//  3. write snapshot.tmp, fsync it;
//  4. rename snapshot.tmp over snapshot.img (atomic publication) and
//     fsync the directory so the rename itself is durable;
//  5. seal every shard's active segment (clearing any degraded state —
//     the snapshot captures everything a failed log lost) and prune
//     sealed segments up to min(snapshot LSN, RetainLSN()).
//
// A crash before (4) leaves the old snapshot + full log: recovery
// replays as if no compaction happened. A crash between (4) and (5)
// leaves the new snapshot + stale segments: recovery skips every
// record at or below the snapshot LSN. Either way, no state is lost
// and nothing is applied twice.
func (s *Store) Compact() error {
	return s.fs.Quiesce(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()

		blob, lsn, err := s.encodeSnapshotLocked()
		if err != nil {
			return err
		}
		if err := s.publishSnapshotLocked(blob, lsn); err != nil {
			return err
		}
		for _, w := range s.wals {
			if err := w.resetForCompact(); err != nil {
				s.logf("durable: sealing wal shard after snapshot: %v", err)
			}
		}
		if s.shipSeq != nil {
			// Degraded shards may have dropped LSNs the sequencer is
			// still waiting on; the snapshot covers them, so skip ahead.
			s.shipSeq.skipTo(lsn)
		}
		s.pruneLocked()
		s.metrics.compactions.Inc()
		return nil
	})
}

// encodeSnapshotLocked serializes the tree and dedupe table bound to
// the LSN and epoch they cover: the image Compact publishes and
// ReplSnapshot ships. The caller holds the quiesce and s.mu, which
// exclude every append source, so the barriers here are final: once
// they return the committers are provably idle (and the active
// segments can be sealed underneath them). A degraded shard returns an
// error from its barrier — ignored, because the image captures
// everything its log lost.
func (s *Store) encodeSnapshotLocked() (blob []byte, lsn uint64, err error) {
	for _, w := range s.wals {
		w.Barrier()
	}
	lsn = s.alloc.Load()
	var img bytes.Buffer
	if err := s.fs.Save(&img); err != nil {
		return nil, 0, fmt.Errorf("durable: serializing tree: %w", err)
	}
	snap := snapFile{Version: snapFileVersion, LSN: lsn, Epoch: s.epoch, Dedupe: s.dedupe, FS: img.Bytes()}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, 0, fmt.Errorf("durable: encoding snapshot: %w", err)
	}
	return buf.Bytes(), lsn, nil
}

// decodeSnapshot parses and version-checks an encodeSnapshotLocked
// image and rebuilds its file system.
func decodeSnapshot(blob []byte) (snapFile, *vfs.FS, error) {
	var snap snapFile
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&snap); err != nil {
		return snap, nil, fmt.Errorf("durable: decoding snapshot: %w", err)
	}
	if snap.Version != snapFileVersion {
		return snap, nil, fmt.Errorf("durable: unsupported snapshot version %d", snap.Version)
	}
	fs, err := vfs.Load(bytes.NewReader(snap.FS))
	if err != nil {
		return snap, nil, fmt.Errorf("durable: snapshot image: %w", err)
	}
	return snap, fs, nil
}

// pruneLocked removes sealed segments whose records are all covered by
// the snapshot AND acked by every replication subscriber (RetainLSN).
// Caller holds s.mu.
func (s *Store) pruneLocked() {
	horizon := s.snapLSN
	if s.opts.RetainLSN != nil {
		if r := s.opts.RetainLSN(); r < horizon {
			horizon = r
		}
	}
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.lastLSN > horizon {
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.logf("durable: pruning %s: %v", seg.path, err)
			kept = append(kept, seg)
			continue
		}
		s.metrics.segsPruned.Inc()
		s.metrics.walSize.Add(-seg.size)
		s.metrics.walSegments.Dec()
	}
	s.sealed = kept
}

// publishSnapshotLocked atomically publishes an encoded snapshot:
// snapshot.tmp written and fsynced, renamed over snapshot.img with a
// directory sync. Caller holds s.mu with appends excluded and handles
// the log (sealing, pruning) afterwards.
func (s *Store) publishSnapshotLocked(encoded []byte, lsn uint64) error {
	tmpPath := filepath.Join(s.dir, snapshotTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot tmp: %w", err)
	}
	if _, err := tmp.Write(encoded); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, SnapshotName)); err != nil {
		return fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	syncDir(s.dir)
	s.snapLSN = lsn
	s.metrics.snapBytes.Set(int64(len(encoded)))
	return nil
}

// Close syncs and closes every shard's log. The store must not be used
// after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, w := range s.wals {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Horizon helpers shared by replication and admission control.

// DurableLSN reports the highest LSN through which the entire store is
// durable: every record at or below it, in every shard, is on stable
// storage. Computed as the allocator's position capped by each shard's
// lowest pending (queued, in-flight, or lost) LSN.
func (s *Store) DurableLSN() uint64 {
	horizon := s.alloc.Load()
	for _, w := range s.wals {
		if floor := w.pendingFloor(); floor != 0 && floor-1 < horizon {
			horizon = floor - 1
		}
	}
	return horizon
}
