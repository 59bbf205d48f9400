package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// dumpFS walks a file system into a canonical textual image: one line
// per path carrying type, mode, owner, group and content (or link
// target). Two file systems are state-equal iff their dumps match.
func dumpFS(t *testing.T, fs *vfs.FS) string {
	t.Helper()
	var lines []string
	var walk func(path string)
	walk = func(path string) {
		st, err := fs.Lstat(path)
		if err != nil {
			t.Fatalf("lstat %s: %v", path, err)
		}
		line := fmt.Sprintf("%s type=%d mode=%o owner=%s group=%s", path, st.Type, st.Mode, st.Owner, st.Group)
		switch {
		case st.IsDir():
			ents, err := fs.ReadDir(path)
			if err != nil {
				t.Fatalf("readdir %s: %v", path, err)
			}
			lines = append(lines, line)
			for _, e := range ents {
				walk(vfs.Join(path, e.Name))
			}
			return
		case st.Type == vfs.TypeSymlink:
			target, err := fs.Readlink(path)
			if err != nil {
				t.Fatalf("readlink %s: %v", path, err)
			}
			line += " -> " + target
		default:
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			line += fmt.Sprintf(" size=%d content=%q", st.Size, data)
		}
		lines = append(lines, line)
	}
	walk("/")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// mutate applies a representative mix of every journaled mutation kind.
func mutate(t *testing.T, fs *vfs.FS) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir("/work", 0o755, "alice"))
	must(fs.WriteFile("/work/sim.exe", []byte("#!bin"), 0o755, "alice"))
	must(fs.WriteFile("/work/input.dat", []byte("particles=100"), 0o644, "alice"))
	must(fs.Truncate("/work/input.dat", 9))
	must(fs.Symlink("sim.exe", "/work/run", "alice"))
	must(fs.Link("/work/input.dat", "/work/input.bak"))
	must(fs.Rename("/work/input.bak", "/work/input.old"))
	must(fs.Chmod("/work/sim.exe", 0o700))
	must(fs.Chown("/work/input.dat", "bob", "grid"))
	must(fs.Mkdir("/tmp", 0o777, "alice"))
	must(fs.WriteFile("/tmp/junk", []byte("x"), 0o644, "alice"))
	must(fs.Unlink("/tmp/junk"))
	must(fs.Rmdir("/tmp"))
	h, err := fs.OpenHandle("/work/sim.exe")
	must(err)
	_, err = h.WriteAt([]byte("!!"), 1)
	must(err)
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReopenReplaysWAL: mutate, close, reopen — pure log replay (no
// snapshot) must reproduce the state byte for byte.
func TestReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	mutate(t, s.FS())
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatalf("state diverged after replay:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	ri := s2.Recovery()
	if ri.Replayed == 0 || ri.Skipped != 0 || ri.Unapplied != 0 || ri.Torn {
		t.Fatalf("unexpected recovery: %s", ri)
	}
}

// TestCompactionThenReplay: compact mid-history; recovery must load the
// snapshot and replay only the post-snapshot records.
func TestCompactionThenReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	mutate(t, s.FS())
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != 0 {
		t.Fatalf("wal size %d after compaction, want 0", s.WALSize())
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotName)); err != nil {
		t.Fatalf("no snapshot published: %v", err)
	}
	// Post-compaction mutations land in the fresh log.
	if err := s.FS().WriteFile("/work/out.dat", []byte("result"), 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatalf("state diverged after snapshot+replay:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	ri := s2.Recovery()
	if ri.SnapshotLSN == 0 {
		t.Fatal("snapshot LSN not recovered")
	}
	// Only the records after the snapshot should have been applied
	// (WriteFile journals as create + write + truncate).
	if ri.Replayed == 0 || ri.Replayed > 3 || ri.Skipped != 0 || ri.Unapplied != 0 {
		t.Fatalf("unexpected recovery: %s", ri)
	}
}

// TestCrashBetweenSnapshotAndWALReset simulates a crash in the
// compaction window after the snapshot rename but before the log reset:
// the new snapshot coexists with the full stale log, and replay must
// skip every record the snapshot already covers (applying none twice).
func TestCrashBetweenSnapshotAndWALReset(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	mutate(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	staleLog, err := LogBytes(dir)
	if err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir, Options{})
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Put the pre-compaction log back, as the segment the compaction
	// pruned: snapshot.img now covers all of it.
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(1, 0, 0)), staleLog, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatalf("state diverged:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	ri := s2.Recovery()
	if ri.Skipped == 0 || ri.Replayed != 0 || ri.Unapplied != 0 {
		t.Fatalf("stale records not skipped: %s", ri)
	}
	// Link count would betray a double apply; mutate created one hard link.
	st, err := s2.FS().Stat("/work/input.dat")
	if err != nil {
		t.Fatal(err)
	}
	if st.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2 (double replay?)", st.Nlink)
	}
}

// TestLeftoverSnapshotTmpIgnored: a crash mid-compaction leaves
// snapshot.tmp; Open must discard it and recover from the log.
func TestLeftoverSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	mutate(t, s.FS())
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotTmp), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("state diverged with leftover snapshot.tmp")
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotTmp)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("snapshot.tmp not cleaned up")
	}
}

// TestTornTailTruncatedOnDisk: garbage appended to the log (a torn
// write) is discarded at recovery and physically truncated, so the
// next recovery is clean.
func TestTornTailTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	mutate(t, s.FS())
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath, err := TailSegmentPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0xfe, 0xed}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openStore(t, dir, Options{})
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("state diverged after torn tail")
	}
	ri := s2.Recovery()
	if !ri.Torn || ri.TruncatedBytes != 4 {
		t.Fatalf("torn tail not reported: %s", ri)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	if ri := s3.Recovery(); ri.Torn {
		t.Fatalf("torn tail persisted across recoveries: %s", ri)
	}
}

// TestDedupePersistence: tokened replies survive both pure replay and
// snapshot compaction.
func TestDedupePersistence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.AppendDedupe("unix:alice\x00tok-1", []string{"ok", "42"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendDedupe("unix:bob\x00tok-2", []string{"err", "denied"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	got := s2.DedupeEntries()
	if len(got) != 2 || got["unix:alice\x00tok-1"][1] != "42" {
		t.Fatalf("dedupe table after replay = %v", got)
	}
	if s2.Recovery().DedupeEntries != 2 {
		t.Fatalf("recovery reports %d dedupe entries, want 2", s2.Recovery().DedupeEntries)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// After compaction the WAL is empty; entries must come from the snapshot.
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	got = s3.DedupeEntries()
	if len(got) != 2 || got["unix:bob\x00tok-2"][0] != "err" {
		t.Fatalf("dedupe table after compaction = %v", got)
	}
}

// TestMetricsWiring: the store's counters move when it journals,
// recovers and compacts.
func TestMetricsWiring(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openStore(t, dir, Options{Metrics: reg})
	mutate(t, s.FS())
	if err := s.Barrier(); err != nil { // drain the commit pipeline so counters settle
		t.Fatal(err)
	}
	if got := reg.Counter(MetricWALRecords).Value(); got == 0 {
		t.Fatal("wal record counter did not move")
	}
	if got := reg.Counter(MetricWALFsyncs).Value(); got == 0 {
		t.Fatal("fsync counter did not move (default policy is every record)")
	}
	if got := reg.Gauge(MetricWALSize).Value(); got != s.WALSize() {
		t.Fatalf("size gauge %d != wal size %d", got, s.WALSize())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCompactions).Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	if got := reg.Gauge(MetricWALSize).Value(); got != 0 {
		t.Fatalf("size gauge %d after compaction, want 0", got)
	}
	if got := reg.Gauge(MetricSnapshotBytes).Value(); got == 0 {
		t.Fatal("snapshot size gauge did not move")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	s2 := openStore(t, dir, Options{Metrics: reg2})
	defer s2.Close()
	if got := reg2.Counter(MetricRecoveries).Value(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// TestDegradedWALSurvivesViaCompaction: when appends start failing the
// store keeps serving (absorbing the error), reports it via Err, and a
// successful compaction restores durability.
func TestDegradedWALSurvivesViaCompaction(t *testing.T) {
	dir := t.TempDir()
	var fail atomic.Bool // read by the committer goroutine
	opts := Options{OpenAppend: func(path string) (File, error) {
		f, err := defaultOpenAppend(path)
		if err != nil {
			return nil, err
		}
		return &gateFile{f: f, fail: &fail}, nil
	}}
	s := openStore(t, dir, opts)
	if err := s.FS().Mkdir("/a", 0o755, "u"); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(); err != nil { // /a committed before the gate drops
		t.Fatal(err)
	}
	fail.Store(true)
	// The in-memory mutation must still succeed; the append error is absorbed.
	if err := s.FS().Mkdir("/b", 0o755, "u"); err != nil {
		t.Fatal(err)
	}
	if s.Err() == nil {
		t.Fatal("degraded WAL not reported")
	}
	fail.Store(false)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatalf("compaction did not clear degradation: %v", s.Err())
	}
	before := dumpFS(t, s.FS())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != before {
		t.Fatal("state lost across degradation + compaction")
	}
	if !s2.FS().Exists("/b") {
		t.Fatal("mutation made during degradation lost despite compaction")
	}
}

// gateFile fails writes while fail is set.
type gateFile struct {
	f    File
	fail *atomic.Bool
}

func (g *gateFile) Write(p []byte) (int, error) {
	if g.fail.Load() {
		return 0, errors.New("injected write failure")
	}
	return g.f.Write(p)
}
func (g *gateFile) Sync() error  { return g.f.Sync() }
func (g *gateFile) Close() error { return g.f.Close() }
