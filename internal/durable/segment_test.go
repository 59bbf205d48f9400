package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// TestParseSegmentName: the single chain's segment names round-trip,
// and everything else in a state directory — sharded-era names
// included — is not one of its segments.
func TestParseSegmentName(t *testing.T) {
	for _, seq := range []int{0, 1, 42, 123456, 1234567} {
		name := segmentFileName(seq)
		if !strings.HasPrefix(name, "wal.c01.s00.") {
			t.Fatalf("segment %d named %q, want the wal.c01.s00. chain", seq, name)
		}
		got, ok := parseSegmentName(name)
		if !ok || got != seq {
			t.Fatalf("parse(%q) = %d ok=%v, want %d", name, got, ok, seq)
		}
	}
	if got := segmentFileName(0); got != "wal.c01.s00.000000.seg" {
		t.Fatalf("first segment named %q", got)
	}
	for _, bad := range []string{
		legacyLogName, SnapshotName, "wal.c01.s00.seg", "wal.c00.s00.000000.seg",
		"wal.c02.s02.000000.seg", "wal.c01.s00.000000.tmp", "wal.cxx.s00.000000.seg",
		"wal.c01.s-1.000000.seg", "wal.c01.s00.00000x.seg", "wal.c01.s00.-00001.seg",
		"wal.c08.s03.000000.seg", "wal.c02.s00.000017.seg",
	} {
		if _, ok := parseSegmentName(bad); ok {
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
		if _, ok := parseSegmentName(e.Name()); ok {
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

// TestShardedStoreRecoverAndMatch: concurrent writers in eight
// subtrees plus a cross-subtree rename and link, with Options.Shards
// set as the benchmark sets it, commit through the one chain: the
// reopened tree matches the live one, the link replays once, and the
// directory holds only wal.c01.s00 segments, also after a reopen at
// another Shards value.
func TestShardedStoreRecoverAndMatch(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	s := openStore(t, dir, Options{Shards: shards, SegmentBytes: 512})
	a, b := "/sa", "/sb"
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
	must(fs.Rename(a+"/x", b+"/x"))    // cross-subtree rename
	must(fs.Link(b+"/x", a+"/x.link")) // cross-subtree link
	must(fs.WriteFile(b+"/after", []byte("post-cross"), 0o644, "alice"))
	before := dumpFS(t, fs)
	must(s.Close())
	onlyOneChain := func() {
		t.Helper()
		ents, err := os.ReadDir(dir)
		must(err)
		segs := 0
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "wal.") {
				if _, ok := parseSegmentName(e.Name()); !ok {
					t.Fatalf("%s is not a segment of the one chain", e.Name())
				}
				segs++
			}
		}
		if segs < 2 {
			t.Fatalf("%d segments at a 512-byte limit: the chain never rotated", segs)
		}
	}
	onlyOneChain()

	s2 := openStore(t, dir, Options{Shards: shards, SegmentBytes: 512})
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("replay diverged from live state")
	}
	ri := s2.Recovery()
	if ri.Unapplied != 0 || ri.Torn {
		t.Fatalf("unexpected recovery: %s", ri)
	}
	st, err := s2.FS().Stat(b + "/x")
	must(err)
	if st.Nlink != 2 {
		t.Fatalf("cross-subtree link replayed %d times (nlink %d)", st.Nlink-1, st.Nlink)
	}
	must(s2.FS().Mkdir("/era2", 0o755, "alice"))
	must(s2.Close())

	s3 := openStore(t, dir, Options{Shards: 2})
	defer s3.Close()
	if !s3.FS().Exists("/era2") || !s3.FS().Exists(b+"/x") {
		t.Fatal("reopen at another Shards value lost state")
	}
	if ri := s3.Recovery(); ri.Unapplied != 0 {
		t.Fatalf("recovery: %s", ri)
	}
	onlyOneChain()
}

// TestHalfCommittedCrossRecordApplied: a two-chain directory from the
// sharded log — three records split across wal.c02.s00 and wal.c02.s01
// plus a cross-shard rename present in one chain only — is refused by
// name, and the refused Open leaves every file byte for byte as found
// and creates nothing.
func TestHalfCommittedCrossRecordApplied(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	a, b := "/sa", "/sb"
	const crossShard = 1 // the sharded log's flag bit for a cross-shard record
	recs := []struct {
		shard int
		rec   Record
	}{
		{0, Record{LSN: 1, Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: a, Mode: 0o755, Owner: "alice"}}},
		{1, Record{LSN: 2, Type: uint8(vfs.MutMkdir), Mut: vfs.Mutation{Op: vfs.MutMkdir, Path: b, Mode: 0o755, Owner: "alice"}}},
		{0, Record{LSN: 3, Type: uint8(vfs.MutCreate), Mut: vfs.Mutation{Op: vfs.MutCreate, Path: a + "/x", Mode: 0o644, Owner: "alice"}}},
		{0, Record{LSN: 4, Type: uint8(vfs.MutRename), Mut: vfs.Mutation{Op: vfs.MutRename, Path: a + "/x", Path2: b + "/x"}}},
	}
	logs := make([][]byte, shards)
	for i, r := range recs {
		logs[r.shard] = EncodeRecord(logs[r.shard], r.rec)
		if i == len(recs)-1 { // the rename: set the cross bit, reseal the frame
			frame := logs[r.shard][len(logs[r.shard])-len(EncodeRecord(nil, r.rec)):]
			frame[frameHeaderLen+2] = crossShard
			binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeaderLen:]))
		}
	}
	paths := make([]string, shards)
	for sh, data := range logs {
		paths[sh] = filepath.Join(dir, fmt.Sprintf("wal.c%02d.s%02d.%06d.seg", shards, sh, 0))
		if err := os.WriteFile(paths[sh], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir, Options{Shards: shards, Owner: "alice"})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a sharded-era directory")
	}
	if !strings.Contains(err.Error(), paths[0]) {
		t.Fatalf("refusal does not name the file: %v", err)
	}
	for sh, path := range paths {
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, logs[sh]) {
			t.Fatalf("%s changed by the refused Open: %v", path, err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != shards {
		t.Fatalf("refused Open left files behind: %v %v", ents, err)
	}
}

// TestTornSealedSegmentAboveSnapshotRefused: a corrupt frame in a
// sealed segment whose records the snapshot does not cover leaves a
// hole in the history above the snapshot. Open must refuse to serve
// the state past the hole, naming the torn segment, and leave the
// segments as found.
func TestTornSealedSegmentAboveSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{SegmentBytes: 256})
	if err := s.FS().Mkdir("/d", 0o755, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snapLSN := s.AppliedLSN()
	for i := 0; i < 24; i++ {
		if err := s.FS().WriteFile(fmt.Sprintf("/d/f%d", i), []byte(strings.Repeat("z", 48)), 0o644, "alice"); err != nil {
			t.Fatal(err)
		}
		if err := s.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var full []segmentRef // segments holding records, in chain order
	segs, err := scanSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if data, err := os.ReadFile(seg.path); err == nil && len(data) > 0 {
			full = append(full, seg)
		}
	}
	if len(full) < 3 {
		t.Fatalf("only %d non-empty segments: no middle segment to tear", len(full))
	}
	victim := full[len(full)/2].path
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := DecodeAll(data)
	if len(recs) == 0 || recs[0].LSN <= snapLSN {
		t.Fatalf("middle segment starts at lsn %v, not above snapshot lsn %d", recs, snapLSN)
	}
	data[frameHeaderLen+3] ^= 0xff // first frame's body: checksum mismatch
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := LogBytes(dir)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err == nil {
		ri := s2.Recovery()
		s2.Close()
		t.Fatalf("Open served a log with a hole above the snapshot (%s)", ri)
	}
	if !errors.Is(err, ErrTorn) || !strings.Contains(err.Error(), victim) {
		t.Fatalf("refusal does not wrap ErrTorn and name %s: %v", victim, err)
	}
	if after, err := LogBytes(dir); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused Open changed the segments: %v", err)
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

// TestShipSeqResequences: concurrent writers in eight subtrees plus
// cross-subtree renames ship through Options.OnShip as strictly
// contiguous LSN runs from 1 — no gap, no duplicate, no flag bit set —
// because one chain assigns LSNs in commit order.
func TestShipSeqResequences(t *testing.T) {
	var mu sync.Mutex
	var next uint64 = 1 // the LSN the next shipped run must start at
	var bad []string
	s := openStore(t, t.TempDir(), Options{Shards: 8, OnShip: func(first, last uint64, records int, frames []byte) {
		mu.Lock()
		defer mu.Unlock()
		if first != next || int(last-first+1) != records {
			bad = append(bad, fmt.Sprintf("run [%d..%d] of %d records after lsn %d", first, last, records, next-1))
		}
		recs, _, torn := DecodeAll(frames)
		if torn || len(recs) != records {
			bad = append(bad, fmt.Sprintf("run [%d..%d] decodes to %d records (torn %v)", first, last, len(recs), torn))
		}
		for off, i := 0, 0; off < len(frames) && i < len(recs); i++ {
			if flags := frames[off+frameHeaderLen+2]; flags != 0 {
				bad = append(bad, fmt.Sprintf("lsn %d carries flags %#x", recs[i].LSN, flags))
			}
			if recs[i].LSN != first+uint64(i) {
				bad = append(bad, fmt.Sprintf("lsn %d at position %d of run [%d..%d]", recs[i].LSN, i, first, last))
			}
			off += frameHeaderLen + int(binary.LittleEndian.Uint32(frames[off:off+4]))
		}
		next = last + 1
	}})
	fs := s.FS()
	for _, d := range []string{"/sa", "/sb"} {
		if err := fs.Mkdir(d, 0o755, "alice"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := fmt.Sprintf("/t%d", g)
			if err := fs.Mkdir(root, 0o755, "alice"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 16; i++ {
				if err := fs.WriteFile(fmt.Sprintf("%s/f%d", root, i), []byte("x"), 0o644, "alice"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			src, dst := fmt.Sprintf("/sa/x%d", i), fmt.Sprintf("/sb/x%d", i)
			if err := fs.WriteFile(src, []byte("x"), 0o644, "alice"); err != nil {
				t.Error(err)
				return
			}
			if err := fs.Rename(src, dst); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	lastLSN := s.AppliedLSN()
	if err := s.Close(); err != nil { // drains the committer, OnShip included
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, b := range bad {
		t.Error(b)
	}
	if next != lastLSN+1 {
		t.Fatalf("shipped through lsn %d, the log ends at %d", next-1, lastLSN)
	}
}

// TestShardedAckedSurvivesCrashAcrossSegments: the commit chain under a
// disk that dies mid-stream, with segments small enough that the crash
// can land around rotation points. Writers on disjoint subtrees and a
// cross-subtree renamer ack each op with Barrier. Whatever was acked
// must survive recovery.
func TestShardedAckedSurvivesCrashAcrossSegments(t *testing.T) {
	for crashAt := 2; crashAt <= 26; crashAt += 4 {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crash-write-%d", crashAt), func(t *testing.T) {
			d := faultdisk.New(int64(7000+crashAt), faultdisk.Rule{AfterWrites: crashAt, Action: faultdisk.Crash})
			dir := t.TempDir()
			opts := faultOpts(d)
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
					if err := s.Barrier(); err != nil {
						return
					}
					for i := 0; i < 16; i++ {
						path := fmt.Sprintf("%s/f%d", root, i)
						content := fmt.Sprintf("payload %d/%d %s", g, i, strings.Repeat("q", 40))
						if _, err := s.FS().Create(path, 0o644, "alice"); err != nil {
							t.Error(err)
							return
						}
						// One chain coalesces every goroutine's records,
						// so only a writer's own barrier rounds bound the
						// group writes from below: 33 per writer, past
						// the last crash point.
						if err := s.Barrier(); err != nil {
							return
						}
						if _, err := s.FS().WriteAt(path, []byte(content), 0); err != nil {
							t.Error(err)
							return
						}
						if err := s.Barrier(); err != nil {
							return // crash: never acked
						}
						mu.Lock()
						acked[path] = content
						mu.Unlock()
					}
				}(g)
			}
			// One goroutine stirs in cross-subtree renames.
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, b := "/sa", "/sb"
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
