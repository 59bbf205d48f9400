package durable

import (
	"errors"
	"fmt"
	"io"
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
	// SyncEveryN is the fsync policy: 1 (the default, also meant by 0)
	// syncs after every commit group, and a negative value never syncs.
	// Open rejects values above 1: syncing every k records would let a
	// barrier acknowledge records that are not on disk.
	SyncEveryN int
	// Shards is ignored: the store has one commit chain. Only the
	// benchmark module (benchmark/cluster.go and its probes) still sets
	// it; the field goes once that setter does.
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
	// primary via ApplyReplicated, which commits them inline to this
	// store's own WAL under the primary's LSNs), and the committer
	// goroutine stays off until Promote turns the follower into a
	// primary.
	ReplicaMode bool
	// OnShip, when set on a primary, receives every durable commit
	// group's raw frames for replication fan-out: contiguous LSN runs,
	// in order, called by the committer outside the WAL lock before the
	// group's waiters wake. Ownership of the frames transfers to the
	// hook. On a replica it takes effect at Promote.
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
	DedupeEntries  int    // tokened replies carried across the restart
}

func (ri RecoveryInfo) String() string {
	return fmt.Sprintf("snapshot lsn %d, %d segments, %d replayed, %d skipped, %d unapplied, %d torn bytes truncated, %d dedupe entries",
		ri.SnapshotLSN, ri.Segments, ri.Replayed, ri.Skipped, ri.Unapplied, ri.TruncatedBytes, ri.DedupeEntries)
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
// The commit pipeline is one chain: the file system's journal lock
// orders every mutation, one WAL assigns LSNs and one committer
// goroutine writes and fsyncs the segment chain, so the log is one
// totally ordered history.
type Store struct {
	dir  string
	fs   *vfs.FS
	opts Options

	mu      sync.Mutex // guards dedupe, snapLSN, replica state, compaction
	wal     *WAL       // immutable after Open
	dedupe  map[string][]string
	snapLSN uint64

	// sealed tracks sealed segments for pruning. Its own lock, ordered
	// after WAL.mu (rotation seals under the WAL lock).
	sealMu sync.Mutex
	sealed []sealedSeg

	// Replication state. epoch is the fencing term this store last saw
	// (recovered from the snapshot and epoch records, advanced by
	// SetEpochDurable on a primary and by replicated epoch records on a
	// follower). replica marks follower mode until Promote; lastApplied
	// is the follower's applied-LSN horizon. appliedCh, made by the
	// first WaitApplied to park, is closed and cleared whenever the
	// horizon advances or promotion ends replica mode; a batch nobody
	// waits for allocates none.
	epoch       uint64
	replica     bool
	lastApplied uint64
	appliedCh   chan struct{}

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
// the segment chain past the snapshot's LSN — refusing a chain with a
// hole above the snapshot — truncates any torn tail at the last valid
// record, and attaches itself as the file system's journal so every
// further mutation is logged.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Owner == "" {
		opts.Owner = "chirp"
	}
	if opts.SyncEveryN > 1 {
		return nil, fmt.Errorf("durable: SyncEveryN %d unsupported (1: fsync every commit group; negative: never)", opts.SyncEveryN)
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
		dir:     dir,
		opts:    opts,
		dedupe:  make(map[string][]string),
		replica: opts.ReplicaMode,
		metrics: newStoreMetrics(reg),
		logf:    opts.Logf,
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
	lastLSN, nextSeq, err := s.recoverLog()
	if err != nil {
		return nil, err
	}

	// 3. Open a fresh active segment and attach the journal.
	rot := &rotator{
		dir:    dir,
		seq:    nextSeq,
		limit:  opts.SegmentBytes,
		open:   opts.OpenAppend,
		onSeal: s.noteSealed,
	}
	f, err := opts.OpenAppend(filepath.Join(dir, segmentFileName(rot.seq)))
	if err != nil {
		return nil, fmt.Errorf("durable: opening wal segment: %w", err)
	}
	w := newWAL(f, lastLSN, opts.SyncEveryN >= 0, rot)
	w.onGroup = func(records, bytes int, latency time.Duration) {
		s.metrics.records.Add(int64(records))
		s.metrics.bytes.Add(int64(bytes))
		s.metrics.walSize.Add(int64(bytes))
		s.lastCommitLat.Store(int64(latency))
		s.metrics.groups.Inc()
		s.metrics.groupRecs.Observe(float64(records))
		s.metrics.commitLat.Observe(float64(latency.Microseconds()))
	}
	w.onSync = func() { s.metrics.fsyncs.Inc() }
	w.onError = func(err error) {
		s.metrics.appendErrs.Inc()
		s.logf("durable: wal append failed, durability degraded until compaction: %v", err)
	}
	w.onShip = opts.OnShip
	switch {
	case opts.CommitWindow == 0:
		w.window = DefaultCommitWindow
	case opts.CommitWindow > 0:
		w.window = opts.CommitWindow
	}
	if opts.CommitBatch > 0 {
		w.maxBatch = opts.CommitBatch
	}
	if spans := opts.Spans; spans != nil {
		w.onTraceCommit = func(trace, lsn uint64, queued, commit time.Duration) {
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
	s.wal = w
	syncDir(dir)
	if !s.replica {
		w.startCommitter()
	}
	var liveBytes int64
	s.sealMu.Lock()
	for _, seg := range s.sealed {
		liveBytes += seg.size
	}
	segCount := len(s.sealed) + 1
	s.sealMu.Unlock()
	s.metrics.walSize.Set(liveBytes)
	s.metrics.walSegments.Set(int64(segCount))
	s.metrics.recoveries.Inc()
	s.recovery.DedupeEntries = len(s.dedupe)
	if s.replica {
		// A follower applies pre-encoded records from the primary; its
		// own file system is never journaled, and its applied horizon
		// resumes where the recovered log ended.
		s.lastApplied = lastLSN
		return s, nil
	}
	fs.SetJournal(s)
	return s, nil
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
// file system (nil when no snapshot exists) and filling dedupe, snapLSN
// and epoch. An image that fails its checksum or does not parse fails
// Open, naming the file: loading it would serve whatever the damage
// left, and the log below it has been pruned.
func (s *Store) loadSnapshot() (*vfs.FS, error) {
	path := filepath.Join(s.dir, SnapshotName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: reading snapshot: %w", err)
	}
	fs, meta, err := vfs.ReadImage(data)
	if errors.Is(err, vfs.ErrNotImage) {
		return nil, fmt.Errorf("durable: %s is not a binary snapshot image (a gob-encoded snapshot from before that format, or not a snapshot), which this version cannot read: %w", path, err)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	s.dedupe = meta.Dedupe
	s.snapLSN = meta.LSN
	s.epoch = meta.Epoch
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
	s.wal.Barrier() // surface in-flight failures; error also lands in Err
	return s.wal.Err()
}

// Barrier blocks until every mutation recorded before the call is
// durable per the sync policy, or reports the degradation error. This
// is the acked ⇒ durable contract: acknowledge an operation to a
// client only after Barrier returns nil.
func (s *Store) Barrier() error { return s.wal.Barrier() }

// BarrierTraced is Barrier plus the timing a traced request wants: the
// write+fsync latency of the most recent commit group (the one that, in
// the common case, made the caller's mutations durable). The commit
// latency is a best-effort attribution — under concurrency a later
// group may have published since — which is fine for observability.
func (s *Store) BarrierTraced() (commitLat time.Duration, err error) {
	err = s.Barrier()
	return time.Duration(s.lastCommitLat.Load()), err
}

// RecordMutation implements vfs.Journal: it appends the mutation to the
// WAL. Called with the file system's journal lock held, so records land
// in commit order. This only encodes the record into the commit queue —
// no disk I/O under the journal lock. Append failures are absorbed (the
// in-memory state is already committed): they flip the WAL's sticky
// error and surface through Err/Barrier and the log.
func (s *Store) RecordMutation(m vfs.Mutation) {
	hadErr := s.wal.Err() != nil
	if _, err := s.wal.Append(Record{Type: uint8(m.Op), Mut: m}); err != nil {
		s.metrics.appendErrs.Inc()
		if !hadErr {
			s.logf("durable: wal append failed, durability degraded until compaction: %v", err)
		}
	}
}

// AppendDedupe persists one tokened reply so a retry — even after a
// restart — is answered by LookupDedupe instead of re-executed. Key is
// the server's opaque principal+token key. It returns only once the
// entry is durable per the sync policy: the caller sends the reply on
// the wire after this, so a crash can never have acknowledged what the
// log lost. The append itself happens under s.mu — which is what keeps
// it ordered against compaction's log reset — but the durability wait
// happens outside, so concurrent mutators are not serialized behind
// this entry's group fsync. The entry lands on the same chain as the
// mutations it vouches for, after them.
func (s *Store) AppendDedupe(key string, reply []string) error {
	s.mu.Lock()
	s.dedupe[key] = append([]string(nil), reply...)
	lsn, err := s.wal.Append(Record{Type: DedupeType, DedupeKey: key, DedupeReply: reply})
	s.mu.Unlock()
	if err != nil {
		s.metrics.appendErrs.Inc()
		return err
	}
	return s.wal.WaitDurable(lsn)
}

// LookupDedupe returns the reply recorded for key, so the store itself
// answers tokened retries: its table is current on every path that
// fills it — AppendDedupe, recovery replay, snapshot load and, on a
// follower, ApplyReplicated. The returned slice is shared and must not
// be modified.
func (s *Store) LookupDedupe(key string) ([]string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reply, ok := s.dedupe[key]
	return reply, ok
}

// DedupeEntries returns a copy of the recovered (and since appended)
// dedupe table.
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
// not yet pruned plus the active segment.
func (s *Store) WALSize() int64 {
	total := s.wal.Size()
	s.sealMu.Lock()
	for _, seg := range s.sealed {
		total += seg.size
	}
	s.sealMu.Unlock()
	return total
}

// Segments reports how many live log files the store holds (sealed
// plus the active one).
func (s *Store) Segments() int {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	return len(s.sealed) + 1
}

// Compact publishes a snapshot and prunes the log. The protocol:
//
//  1. quiesce journaled mutations (the journal lock) and take s.mu,
//     excluding dedupe appends; barrier the WAL so the committer is
//     provably idle;
//  2. stream the tree + dedupe table, bound to the current LSN, into
//     snapshot.tmp and fsync it;
//  3. rename snapshot.tmp over snapshot.img (atomic publication) and
//     fsync the directory so the rename itself is durable;
//  4. seal the active segment (clearing any degraded state —
//     the snapshot captures everything a failed log lost) and prune
//     sealed segments up to min(snapshot LSN, RetainLSN()).
//
// A crash before (3) leaves the old snapshot + full log: recovery
// replays as if no compaction happened. A crash between (3) and (4)
// leaves the new snapshot + stale segments: recovery skips every
// record at or below the snapshot LSN. Either way, no state is lost
// and nothing is applied twice.
func (s *Store) Compact() error {
	return s.fs.Quiesce(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()

		meta := s.imageMetaLocked()
		if err := s.publishSnapshotLocked(meta.LSN, func(w io.Writer) (int64, error) {
			return s.fs.WriteImage(w, meta)
		}); err != nil {
			return err
		}
		if err := s.wal.resetForCompact(meta.LSN); err != nil {
			s.logf("durable: sealing wal segment after snapshot: %v", err)
		}
		s.pruneLocked()
		s.metrics.compactions.Inc()
		return nil
	})
}

// imageMetaLocked binds a snapshot image to the LSN and epoch it covers:
// what Compact publishes and ReplSnapshot ships. The caller holds the
// quiesce and s.mu, which exclude every append source, so the barrier
// here is final: once it returns the committer is provably idle (and
// the active segment can be sealed underneath it). A degraded WAL
// returns an error from its barrier — ignored, because the image
// captures everything its log lost.
func (s *Store) imageMetaLocked() vfs.ImageMeta {
	s.wal.Barrier()
	return vfs.ImageMeta{LSN: s.wal.lsnCursor(), Epoch: s.epoch, Dedupe: s.dedupe}
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

// publishSnapshotLocked atomically publishes the snapshot image write
// produces, covering the log through lsn: snapshot.tmp written and
// fsynced, renamed over snapshot.img with a directory sync. Caller
// holds s.mu with appends excluded and handles the log (sealing,
// pruning) afterwards.
func (s *Store) publishSnapshotLocked(lsn uint64, write func(io.Writer) (int64, error)) error {
	tmpPath := filepath.Join(s.dir, snapshotTmp)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot tmp: %w", err)
	}
	n, err := write(tmp)
	if err != nil {
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
	s.metrics.snapBytes.Set(n)
	return nil
}

// Close syncs and closes the log. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.Close()
}

// DurableLSN reports the highest LSN through which the store is
// durable: every record at or below it is on stable storage.
func (s *Store) DurableLSN() uint64 { return s.wal.durableLSN() }
