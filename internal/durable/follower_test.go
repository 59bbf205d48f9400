package durable

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/faultdisk"
	"identitybox/internal/obs"
)

// shipped is one commit group as a primary's OnShip hook handed it over.
type shipped struct {
	first, last uint64
	records     int
	frames      []byte
}

// shipLog collects shipped groups; its hook is an Options.OnShip.
type shipLog struct {
	mu     sync.Mutex
	groups []shipped
}

func (l *shipLog) ship(first, last uint64, records int, frames []byte) {
	l.mu.Lock()
	l.groups = append(l.groups, shipped{first, last, records, frames})
	l.mu.Unlock()
}

func (l *shipLog) since(from int) []shipped {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]shipped(nil), l.groups[from:]...)
}

// testPrimary is a primary store that keeps every group it ships, the
// source of replicated batches for a follower under test.
type testPrimary struct {
	*Store
	log shipLog
}

func openTestPrimary(t *testing.T) *testPrimary {
	t.Helper()
	p := &testPrimary{}
	p.Store = openStore(t, t.TempDir(), Options{OnShip: p.log.ship})
	t.Cleanup(func() { p.Close() })
	return p
}

// writeFiles makes n files of 64 bytes, acking each with a barrier, and
// returns the groups shipped meanwhile.
func (p *testPrimary) writeFiles(t *testing.T, n int) []shipped {
	t.Helper()
	from := len(p.log.since(0))
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/f%d", p.AppliedLSN())
		if err := p.FS().WriteFile(path, []byte(strings.Repeat("x", 64)), 0o644, "alice"); err != nil {
			t.Fatal(err)
		}
		if err := p.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	return p.log.since(from)
}

// applyAll applies groups to a follower in order, under the test
// primary's epoch (0: it never set one).
func applyAll(t *testing.T, f *Store, groups []shipped) {
	t.Helper()
	for _, g := range groups {
		if _, err := f.ApplyReplicated(0, g.first, g.last, g.frames); err != nil {
			t.Fatalf("apply [%d..%d]: %v", g.first, g.last, err)
		}
	}
}

// TestAppliedBatchWakesWithoutAllocating: a batch applied while nobody
// waits parks nobody; a parked WaitApplied is woken by the batch that
// covers it; and a wait that parks and is released by the applied
// horizon's advance allocates nothing, its waiter and timer pooled.
func TestAppliedBatchWakesWithoutAllocating(t *testing.T) {
	groups := openTestPrimary(t).writeFiles(t, 4)
	f := openStore(t, t.TempDir(), Options{ReplicaMode: true})
	defer f.Close()
	applyAll(t, f, groups[:len(groups)-1])
	if n := f.applied.Parked(); n != 0 {
		t.Fatalf("%d waits parked with nobody waiting", n)
	}
	last := groups[len(groups)-1]
	done := make(chan error, 1)
	go func() { done <- f.WaitApplied(last.last, 5*time.Second) }()
	awaitParked(t, &f.applied, 1)
	applyAll(t, f, []shipped{last})
	if err := <-done; err != nil {
		t.Fatalf("parked WaitApplied = %v", err)
	}

	lsn := last.last
	parked, released := make(chan uint64), make(chan struct{})
	go func() { // the apply loop: advances the horizon once each wait parks
		for l := range parked {
			for f.applied.Parked() == 0 {
				runtime.Gosched()
			}
			f.applied.Set(l)
			released <- struct{}{}
		}
	}()
	defer close(parked)
	got := testing.AllocsPerRun(100, func() {
		lsn++
		parked <- lsn
		if err := f.WaitApplied(lsn, 5*time.Second); err != nil {
			t.Error(err)
		}
		<-released
	})
	if got > 0 {
		t.Fatalf("a parked-then-applied WaitApplied allocates %.1f, want 0", got)
	}
}

// TestFollowerCommitMetrics: a follower's replicated groups commit
// through the same code as a primary's, so they feed the same group
// counters and latency histogram.
func TestFollowerCommitMetrics(t *testing.T) {
	groups := openTestPrimary(t).writeFiles(t, 8)
	reg := obs.NewRegistry()
	f := openStore(t, t.TempDir(), Options{ReplicaMode: true, Metrics: reg})
	defer f.Close()
	applyAll(t, f, groups)

	n := int64(len(groups))
	var records int64
	for _, g := range groups {
		records += int64(g.records)
	}
	if got := reg.Counter(MetricCommitGroups).Value(); got != n {
		t.Errorf("%s = %d, want %d", MetricCommitGroups, got, n)
	}
	if got := reg.Histogram(MetricCommitLatencyUs, commitLatBuckets).Count(); got != n {
		t.Errorf("%s has %d samples, want %d", MetricCommitLatencyUs, got, n)
	}
	if got := reg.Counter(MetricWALRecords).Value(); got != records {
		t.Errorf("%s = %d, want %d", MetricWALRecords, got, records)
	}
	if got := reg.Counter(MetricWALFsyncs).Value(); got != n {
		t.Errorf("%s = %d, want %d (policy: every group)", MetricWALFsyncs, got, n)
	}
}

// TestFollowerWriteFaultDegrades: a replicated batch whose write fails
// is never applied, the failure is logged once and sticks, and a
// snapshot bootstrap clears it.
func TestFollowerWriteFaultDegrades(t *testing.T) {
	p := openTestPrimary(t)
	groups := p.writeFiles(t, 6)
	if len(groups) < 5 {
		t.Fatalf("primary shipped %d groups, want at least 5", len(groups))
	}
	d := faultdisk.New(1, faultdisk.Rule{AfterWrites: 4, Action: faultdisk.ShortWrite})
	var degraded atomic.Int64
	opts := faultOpts(d)
	opts.ReplicaMode = true
	opts.Logf = func(format string, _ ...any) {
		if strings.Contains(format, "durability degraded") {
			degraded.Add(1)
		}
	}
	f := openStore(t, t.TempDir(), opts)
	defer f.Close()
	applyAll(t, f, groups[:3])

	applied, tree := f.AppliedLSN(), dumpFS(t, f.FS())
	// The fourth write is cut short; the fifth batch meets the sticky
	// error before any write.
	for _, g := range groups[3:5] {
		if _, err := f.ApplyReplicated(0, g.first, g.last, g.frames); err == nil {
			t.Fatalf("batch [%d..%d] applied past a failed write", g.first, g.last)
		}
		if got := f.AppliedLSN(); got != applied {
			t.Fatalf("applied horizon moved to %d on a failed batch, want %d", got, applied)
		}
		if dumpFS(t, f.FS()) != tree {
			t.Fatal("a failed batch touched the tree")
		}
	}
	if got := degraded.Load(); got != 1 {
		t.Fatalf("degradation logged %d times, want once", got)
	}
	if f.Err() == nil {
		t.Fatal("Err does not report the failed write")
	}

	blob, lsn, _, err := p.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fs := f.FS()
	if err := f.LoadReplicaSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if f.FS() != fs {
		t.Fatal("the snapshot load replaced the file system instead of its tree")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("snapshot bootstrap left the follower degraded: %v", err)
	}
	if got := f.AppliedLSN(); got != lsn {
		t.Fatalf("applied horizon %d after bootstrap, want %d", got, lsn)
	}
	applyAll(t, f, p.writeFiles(t, 2))
	if dumpFS(t, f.FS()) != dumpFS(t, p.FS()) {
		t.Fatal("follower diverged from the primary after recovering")
	}
}

// TestFollowerSegmentsRotateAndRecover: replicated groups rotate the
// follower's segment chain like a primary's groups do, and a restart
// in replica mode recovers the applied horizon and tree from it.
func TestFollowerSegmentsRotateAndRecover(t *testing.T) {
	p := openTestPrimary(t)
	groups := p.writeFiles(t, 64)
	dir := t.TempDir()
	f := openStore(t, dir, Options{ReplicaMode: true, SegmentBytes: 512})
	applyAll(t, f, groups)
	if got := f.Segments(); got < 3 {
		t.Fatalf("only %d segments after %d groups at a 512-byte limit", got, len(groups))
	}
	applied, tree := f.AppliedLSN(), dumpFS(t, f.FS())
	if tree != dumpFS(t, p.FS()) {
		t.Fatal("follower diverged from the primary")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2 := openStore(t, dir, Options{ReplicaMode: true})
	defer f2.Close()
	if got := f2.AppliedLSN(); got != applied {
		t.Fatalf("recovered applied horizon %d, want %d", got, applied)
	}
	if dumpFS(t, f2.FS()) != tree {
		t.Fatal("recovered tree differs from the follower's before restart")
	}
	if ri := f2.Recovery(); ri.Segments < 3 || ri.Unapplied != 0 || ri.Torn {
		t.Fatalf("unexpected recovery: %s", ri)
	}
}

// TestPromoteShipsFromAppliedHorizon: a follower ships nothing of what
// it replicates; once promoted it ships its own groups, the epoch
// record first at the applied horizon plus one, then contiguous runs.
func TestPromoteShipsFromAppliedHorizon(t *testing.T) {
	groups := openTestPrimary(t).writeFiles(t, 4)
	var out shipLog
	f := openStore(t, t.TempDir(), Options{ReplicaMode: true, OnShip: out.ship})
	defer f.Close()
	applyAll(t, f, groups)
	if got := out.since(0); len(got) != 0 {
		t.Fatalf("follower shipped %d groups before Promote", len(got))
	}

	applied := f.AppliedLSN()
	if err := f.Promote(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.FS().Mkdir(fmt.Sprintf("/p%d", i), 0o755, "alice"); err != nil {
			t.Fatal(err)
		}
		if err := f.Barrier(); err != nil {
			t.Fatal(err)
		}
	}

	ships := out.since(0)
	if len(ships) == 0 {
		t.Fatal("promoted store shipped nothing")
	}
	if recs, _, _ := DecodeAll(ships[0].frames); ships[0].first != applied+1 || len(recs) == 0 ||
		recs[0].Type != EpochType || recs[0].Epoch != 2 {
		t.Fatalf("first shipped run starts at lsn %d with %+v, want the epoch-2 record at %d", ships[0].first, recs, applied+1)
	}
	next := applied + 1
	for _, g := range ships {
		recs, _, torn := DecodeAll(g.frames)
		if g.first != next || torn || len(recs) != g.records || recs[0].LSN != g.first || recs[len(recs)-1].LSN != g.last {
			t.Fatalf("run [%d..%d] of %d records (%d decoded, torn %v) after lsn %d", g.first, g.last, g.records, len(recs), torn, next-1)
		}
		next = g.last + 1
	}
	if next-1 != f.AppliedLSN() {
		t.Fatalf("shipped through lsn %d, the log ends at %d", next-1, f.AppliedLSN())
	}
}
