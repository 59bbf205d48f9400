package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"identitybox/internal/faultdisk"
	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// TestParseSegmentName: the era-tagged segment naming round-trips and
// rejects everything else in a state directory.
func TestParseSegmentName(t *testing.T) {
	for _, tc := range []struct{ shards, shard, seq int }{
		{1, 0, 0}, {8, 7, 42}, {16, 3, 123456}, {100, 99, 7},
	} {
		name := segmentFileName(tc.shards, tc.shard, tc.seq)
		shards, shard, seq, ok := parseSegmentName(name)
		if !ok || shards != tc.shards || shard != tc.shard || seq != tc.seq {
			t.Fatalf("parse(%q) = %d/%d/%d ok=%v, want %v", name, shards, shard, seq, ok, tc)
		}
	}
	for _, bad := range []string{
		legacyLogName, SnapshotName, "wal.c01.s00.seg", "wal.c00.s00.000000.seg",
		"wal.c02.s02.000000.seg", "wal.c01.s00.000000.tmp", "wal.cxx.s00.000000.seg",
		"wal.c01.s-1.000000.seg", "wal.c01.s00.00000x.seg",
	} {
		if _, _, _, ok := parseSegmentName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

// TestSegmentRotationAndChainRecovery: a tiny rotation threshold forces
// the log into many segments; recovery must replay the whole chain back
// into the identical state.
func TestSegmentRotationAndChainRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 512})
	if err := s.FS().Mkdir("/d", 0o755, "alice"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		path := fmt.Sprintf("/d/f%d", i)
		if err := s.FS().WriteFile(path, []byte(strings.Repeat("x", 64)), 0o644, "alice"); err != nil {
			t.Fatal(err)
		}
		// Ack each op, as a server would: the rotation bound is enforced
		// per committed group, so an unacked burst lands as one group.
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Segments(); got < 3 {
		t.Fatalf("only %d segments after %d writes at a 512-byte limit", got, 64)
	}
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("state diverged after multi-segment replay")
	}
	ri := s2.Recovery()
	if ri.Segments < 3 || ri.Unapplied != 0 || ri.Torn {
		t.Fatalf("unexpected recovery: %s", ri)
	}
}

// TestCompactionPrunesSegments: after a compaction every sealed segment
// is covered by the snapshot and must leave the disk, with the gauges
// following.
func TestCompactionPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openStore(t, dir, Options{SegmentBytes: 512, Metrics: reg})
	mutate(t, s.FS())
	for i := 0; i < 32; i++ {
		if err := s.FS().WriteFile(fmt.Sprintf("/work/p%d", i), []byte(strings.Repeat("y", 64)), 0o644, "alice"); err != nil {
			t.Fatal(err)
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	sealedBefore := s.Segments() - 1 // minus the active segment
	if sealedBefore < 2 {
		t.Fatalf("want several sealed segments before compaction, have %d", sealedBefore)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got != 1 {
		t.Fatalf("%d segments survive compaction, want 1 (the active)", got)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("wal size %d after compaction, want 0", got)
	}
	if got := reg.Counter(MetricSegsPruned).Value(); got < int64(sealedBefore) {
		t.Fatalf("pruned counter %d, want at least %d", got, sealedBefore)
	}
	if got := reg.Gauge(MetricWALSegments).Value(); got != 1 {
		t.Fatalf("segments gauge %d, want 1", got)
	}
	if got := reg.Gauge(MetricWALSize).Value(); got != 0 {
		t.Fatalf("live-bytes gauge %d, want 0", got)
	}
	// On disk: exactly one (fresh, empty) segment plus the snapshot.
	var segFiles []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, _, _, ok := parseSegmentName(e.Name()); ok {
			segFiles = append(segFiles, e.Name())
		}
	}
	if len(segFiles) != 1 {
		t.Fatalf("log files on disk after compaction: %v", segFiles)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationHoldsSegments is the WAL disk-leak fix from the other
// side: a lagging subscriber's acked horizon (RetainLSN) must hold
// sealed segments on disk past a compaction, so the follower can be
// served a log tail instead of a full snapshot — and once the
// subscriber catches up, the next compaction reclaims the disk.
func TestReplicationHoldsSegments(t *testing.T) {
	dir := t.TempDir()
	var retain atomic.Uint64
	retain.Store(3) // a follower stuck at LSN 3
	s := openStore(t, dir, Options{
		SegmentBytes: 256,
		RetainLSN:    retain.Load,
	})
	if err := s.FS().Mkdir("/d", 0o755, "alice"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := s.FS().WriteFile(fmt.Sprintf("/d/f%d", i), []byte(strings.Repeat("z", 48)), 0o644, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got < 2 {
		t.Fatalf("segments past the subscriber's ack were pruned: %d files left", got)
	}
	if s.WALSize() == 0 {
		t.Fatal("all log bytes pruned despite a lagging subscriber")
	}

	// The held segments must still serve the follower's catch-up tail:
	// contiguous records from LSN 4 on, even though the snapshot is far
	// ahead of them.
	_, first, last, records, err := s.WALTailSince(3)
	if err != nil {
		t.Fatalf("tail for the lagging subscriber: %v", err)
	}
	if first != 4 || records == 0 || last < s.Recovery().SnapshotLSN {
		t.Fatalf("tail = [%d..%d] %d records", first, last, records)
	}

	// Subscriber catches up: the next compaction reclaims everything.
	retain.Store(last)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Segments(); got != 1 {
		t.Fatalf("%d segments after the subscriber caught up, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReplaysOnlyDelta: recovery work must be proportional to
// the mutations since the last snapshot, not to history length — the
// pre-snapshot segments are pruned, and nothing is skipped record by
// record.
func TestRecoveryReplaysOnlyDelta(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 200; i++ {
		if err := s.FS().Mkdir(fmt.Sprintf("/pre%d", i), 0o755, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	const delta = 7
	for i := 0; i < delta; i++ {
		if err := s.FS().Mkdir(fmt.Sprintf("/post%d", i), 0o755, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("state diverged")
	}
	ri := s2.Recovery()
	if ri.Replayed != delta {
		t.Fatalf("replayed %d records, want exactly the %d-record delta (%s)", ri.Replayed, delta, ri)
	}
	if ri.Skipped != 0 {
		t.Fatalf("recovery re-read %d pre-snapshot records; they should be pruned (%s)", ri.Skipped, ri)
	}
}

// crossPair finds two top-level names owned by different shards at the
// given shard count.
func crossPair(t *testing.T, shards int) (a, b string) {
	t.Helper()
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			a, b = fmt.Sprintf("/s%d", i), fmt.Sprintf("/s%d", j)
			if vfs.ShardOf(a, shards) != vfs.ShardOf(b, shards) {
				return a, b
			}
		}
	}
	t.Fatal("no cross-shard pair found")
	return "", ""
}

// TestShardedStoreRecoverAndMatch: a sharded store's parallel recovery
// — including cross-shard renames and links rendezvousing between
// shard streams — rebuilds the exact live state; reopening at a
// different shard count exercises the mixed-era sequential fallback.
func TestShardedStoreRecoverAndMatch(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	s := openStore(t, dir, Options{Shards: shards, SegmentBytes: 512})
	a, b := crossPair(t, shards)
	fs := s.FS()
	var wg sync.WaitGroup
	for g := 0; g < shards*2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := fmt.Sprintf("/t%d", g)
			if err := fs.Mkdir(root, 0o755, "alice"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				if err := fs.WriteFile(fmt.Sprintf("%s/f%d", root, i), []byte(fmt.Sprintf("g%d i%d", g, i)), 0o644, "alice"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir(a, 0o755, "alice"))
	must(fs.Mkdir(b, 0o755, "alice"))
	must(fs.WriteFile(a+"/x", []byte("cross"), 0o644, "alice"))
	must(fs.Rename(a+"/x", b+"/x"))    // cross-shard rename
	must(fs.Link(b+"/x", a+"/x.link")) // cross-shard link
	must(fs.WriteFile(b+"/after", []byte("post-cross"), 0o644, "alice"))
	before := dumpFS(t, fs)
	must(s.Close())

	s2 := openStore(t, dir, Options{Shards: shards, SegmentBytes: 512})
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("parallel sharded replay diverged from live state")
	}
	ri := s2.Recovery()
	if ri.Unapplied != 0 || ri.HalfCross != 0 || ri.Torn {
		t.Fatalf("unexpected recovery: %s", ri)
	}
	st, err := s2.FS().Stat(b + "/x")
	must(err)
	if st.Nlink != 2 {
		t.Fatalf("cross-shard link replayed %d times (nlink %d)", st.Nlink-1, st.Nlink)
	}
	must(s2.FS().Mkdir("/era2", 0o755, "alice"))
	must(s2.Close())

	// Reopen at a different shard count: era-4 and era-2 segments now
	// coexist, forcing the sequential merged replay.
	s3 := openStore(t, dir, Options{Shards: 2})
	defer s3.Close()
	if !s3.FS().Exists("/era2") || !s3.FS().Exists(b+"/x") {
		t.Fatal("mixed-era sequential replay lost state")
	}
	if ri := s3.Recovery(); ri.Unapplied != 0 {
		t.Fatalf("mixed-era recovery: %s", ri)
	}
}

// TestHalfCommittedCrossRecordApplied: a crash after a cross-shard
// record reached one shard's log but not the other leaves a
// half-committed record at the tail. Recovery must apply it — the
// recovered state is history plus at most that unacked tail — and
// report it.
func TestHalfCommittedCrossRecordApplied(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	a, b := crossPair(t, shards)
	lo := vfs.ShardOf(a, shards)
	if vfs.ShardOf(b, shards) < lo {
		lo = vfs.ShardOf(b, shards)
	}

	// Hand-craft the two shard logs: three complete records, then a
	// cross-shard rename present only in the lower shard's chain.
	recs := []Record{
		{LSN: 1, Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: a, Mode: 0o755, Owner: "alice"}},
		{LSN: 2, Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: b, Mode: 0o755, Owner: "alice"}},
		{LSN: 3, Type: uint8(vfs.MutCreate), Mut: vfs.Mutation{Op: vfs.MutCreate, Path: a + "/x", Mode: 0o644, Owner: "alice"}},
		{LSN: 4, Flags: FlagCrossShard, Type: uint8(vfs.MutRename), Mut: vfs.Mutation{Op: vfs.MutRename, Path: a + "/x", Path2: b + "/x"}},
	}
	logs := make([][]byte, shards)
	for _, rec := range recs {
		if rec.Flags&FlagCrossShard != 0 {
			logs[lo] = EncodeRecord(logs[lo], rec) // the partner's copy is lost
			continue
		}
		sh := vfs.ShardOf(rec.Mut.Path, shards)
		logs[sh] = EncodeRecord(logs[sh], rec)
	}
	for sh, data := range logs {
		if err := os.WriteFile(filepath.Join(dir, segmentFileName(shards, sh, 0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := openStore(t, dir, Options{Shards: shards, Owner: "alice"})
	defer s.Close()
	ri := s.Recovery()
	if ri.HalfCross != 1 {
		t.Fatalf("half-committed cross record not detected: %s", ri)
	}
	if ri.Unapplied != 0 {
		t.Fatalf("recovery: %s", ri)
	}
	if !s.FS().Exists(b+"/x") || s.FS().Exists(a+"/x") {
		t.Fatal("half-committed cross rename not applied")
	}
	if lsn := s.alloc.Load(); lsn != 4 {
		t.Fatalf("allocator resumed at %d, want 4", lsn)
	}
}

// TestLegacyWALRefused: a state directory from before segmented logs (a
// single wal.log) is refused by name rather than opened without its
// history, and the file is left exactly as it was found.
func TestLegacyWALRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, legacyLogName)
	legacy := EncodeRecord(nil, Record{LSN: 1, Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: "/old", Mode: 0o755, Owner: "alice"}})
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Shards: 4, Owner: "alice"})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a state directory holding wal.log")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("refusal does not name the file: %v", err)
	}
	if _, err := ReadLogRecords(dir); err == nil {
		t.Fatal("ReadLogRecords skipped wal.log silently")
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("wal.log changed by the refused Open: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("refused Open left files behind: %v %v", ents, err)
	}
}

// TestShipSeqResequences: the replication resequencer must reorder
// shard-interleaved groups into one contiguous LSN stream, drop
// cross-shard duplicates, and strip the cross flag from shipped frames
// (followers replay a linear history).
func TestShipSeqResequences(t *testing.T) {
	frame := func(lsn uint64, flags uint8) []byte {
		return EncodeRecord(nil, Record{LSN: lsn, Flags: flags, Type: DedupeType, DedupeKey: fmt.Sprintf("k%d", lsn)})
	}
	var mu sync.Mutex
	var got []Record
	var calls int
	seq := newShipSeq(1, func(first, last uint64, records int, frames []byte) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		recs, _, torn := DecodeAll(frames)
		if torn {
			t.Error("resequenced stream torn")
		}
		if int(last-first+1) != records || len(recs) != records {
			t.Errorf("batch [%d..%d] carries %d records, decoded %d", first, last, records, len(recs))
		}
		got = append(got, recs...)
	})

	seq.ingest(frame(2, 0))                         // buffered: waiting on 1
	seq.ingest(frame(4, FlagCrossShard))            // shard A's copy
	seq.ingest(append(frame(1, 0), frame(3, 0)...)) // releases 1..4
	seq.ingest(frame(4, FlagCrossShard))            // shard B's duplicate: dropped
	seq.ingest(frame(5, 0))

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("shipped %d records, want 5", len(got))
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("shipped record %d has lsn %d: stream not resequenced", i, rec.LSN)
		}
		if rec.Flags&FlagCrossShard != 0 {
			t.Fatalf("cross-shard flag leaked into the shipped stream at lsn %d", rec.LSN)
		}
	}
	if calls >= 5 {
		t.Fatalf("%d sink calls for 5 records: no batching happened", calls)
	}
}

// TestShardedAckedSurvivesCrashAcrossSegments: the sharded pipeline
// under a disk that dies mid-stream, with segments small enough that
// the crash can land around rotation points. Writers on disjoint
// subtrees ack each op with BarrierPath; a cross-shard renamer acks
// with the full Barrier. Whatever was acked must survive recovery.
func TestShardedAckedSurvivesCrashAcrossSegments(t *testing.T) {
	for crashAt := 2; crashAt <= 26; crashAt += 4 {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crash-write-%d", crashAt), func(t *testing.T) {
			d := faultdisk.New(int64(7000+crashAt), faultdisk.Rule{AfterWrites: crashAt, Action: faultdisk.Crash})
			dir := t.TempDir()
			opts := faultOpts(d)
			opts.Shards = 4
			opts.SegmentBytes = 256
			s := openStore(t, dir, opts)

			const writers = 4
			var mu sync.Mutex
			acked := map[string]string{}
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					root := fmt.Sprintf("/w%d", g)
					if err := s.FS().Mkdir(root, 0o755, "alice"); err != nil {
						t.Error(err)
						return
					}
					if err := s.BarrierPath(root); err != nil {
						return
					}
					for i := 0; i < 16; i++ {
						path := fmt.Sprintf("%s/f%d", root, i)
						content := fmt.Sprintf("payload %d/%d %s", g, i, strings.Repeat("q", 40))
						if _, err := s.FS().Create(path, 0o644, "alice"); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.FS().WriteAt(path, []byte(content), 0); err != nil {
							t.Error(err)
							return
						}
						if err := s.BarrierPath(path); err != nil {
							return // crash: never acked
						}
						mu.Lock()
						acked[path] = content
						mu.Unlock()
					}
				}(g)
			}
			// One goroutine stirs in cross-shard renames, acked only by
			// the full barrier (both shards durable).
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b := crossPair(t, 4)
				if err := s.FS().Mkdir(a, 0o755, "alice"); err != nil {
					t.Error(err)
					return
				}
				if err := s.FS().Mkdir(b, 0o755, "alice"); err != nil {
					t.Error(err)
					return
				}
				if err := s.Barrier(); err != nil {
					return
				}
				for i := 0; i < 8; i++ {
					src := fmt.Sprintf("%s/x%d", a, i)
					dst := fmt.Sprintf("%s/x%d", b, i)
					content := fmt.Sprintf("cross %d", i)
					if _, err := s.FS().Create(src, 0o644, "alice"); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.FS().WriteAt(src, []byte(content), 0); err != nil {
						t.Error(err)
						return
					}
					if err := s.FS().Rename(src, dst); err != nil {
						t.Error(err)
						return
					}
					if err := s.Barrier(); err != nil {
						return
					}
					mu.Lock()
					acked[dst] = content
					mu.Unlock()
				}
			}()
			wg.Wait()
			if !d.Crashed() {
				t.Fatal("crash rule never fired")
			}
			s.Close()

			s2 := openStore(t, dir, Options{Shards: 4})
			defer s2.Close()
			ri := s2.Recovery()
			if ri.Unapplied != 0 {
				t.Fatalf("replay failed for %d records: %s", ri.Unapplied, ri)
			}
			for path, content := range acked {
				got, err := s2.FS().ReadFile(path)
				if err != nil {
					t.Fatalf("acked op lost: %s: %v (%s)", path, err, ri)
				}
				if string(got) != content {
					t.Fatalf("acked op corrupted: %s = %q, want %q", path, got, content)
				}
			}
		})
	}
}
