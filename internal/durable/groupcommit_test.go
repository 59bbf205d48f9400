package durable

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/faultdisk"
	"identitybox/internal/vfs"
)

// TestGroupCommitLSNsMonotoneInCommitOrder: N goroutines mutate through
// the vfs concurrently; the log the committer wrote must carry every
// record with strictly contiguous LSNs in commit order, and replaying
// it must rebuild the exact final state.
func TestGroupCommitLSNsMonotoneInCommitOrder(t *testing.T) {
	const (
		writers = 8
		files   = 25
	)
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
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
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("%s/f%d", root, i)
				if _, err := s.FS().Create(path, 0o644, "alice"); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.FS().WriteAt(path, []byte(fmt.Sprintf("g%d i%d", g, i)), 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	live := dumpFS(t, s.FS())
	if err := s.Close(); err != nil { // drains the pipeline
		t.Fatal(err)
	}

	data, err := LogBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := DecodeAll(data)
	if torn {
		t.Fatal("clean shutdown left a torn log")
	}
	want := writers * (1 + 2*files)
	if len(recs) != want {
		t.Fatalf("log holds %d records, want %d", len(recs), want)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d: commit order not contiguous", i, rec.LSN)
		}
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if got := dumpFS(t, s2.FS()); got != live {
		t.Fatal("replayed state differs from the live state the log recorded")
	}
}

// TestGroupCommitAckedSurvivesCrashAtGroupBoundary: concurrent writers
// acknowledge an op only after Barrier reports its group durable; a
// disk crash at an arbitrary group boundary may lose unacknowledged
// work, but never an acked op.
func TestGroupCommitAckedSurvivesCrashAtGroupBoundary(t *testing.T) {
	for crashAt := 1; crashAt <= 10; crashAt++ {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crash-write-%d", crashAt), func(t *testing.T) {
			d := faultdisk.New(int64(100+crashAt), faultdisk.Rule{AfterWrites: crashAt, Action: faultdisk.Crash})
			dir := t.TempDir()
			s := openStore(t, dir, faultOpts(d))

			const writers = 4
			var mu sync.Mutex
			acked := map[string]string{} // path -> content known durable
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						path := fmt.Sprintf("/g%d_%d", g, i)
						content := fmt.Sprintf("payload %d/%d", g, i)
						if _, err := s.FS().Create(path, 0o644, "alice"); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.FS().WriteAt(path, []byte(content), 0); err != nil {
							t.Error(err)
							return
						}
						if err := s.Barrier(); err != nil {
							return // crash: this op was never acknowledged
						}
						mu.Lock()
						acked[path] = content
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if !d.Crashed() {
				t.Fatal("crash rule never fired")
			}
			s.Close()

			s2 := openStore(t, dir, Options{})
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

// blockFile parks the first Write until released, so a test can pile
// records into the commit queue while a group commit is in flight.
type blockFile struct {
	entered chan struct{}
	release chan struct{}
	first   atomic.Bool
}

func (f *blockFile) Write(p []byte) (int, error) {
	if f.first.CompareAndSwap(false, true) {
		close(f.entered)
		<-f.release
	}
	return len(p), nil
}
func (f *blockFile) Sync() error  { return nil }
func (f *blockFile) Close() error { return nil }

// TestGroupCommitCoalesces: records appended while a group commit is in
// flight all land in the next group — one write + one fsync for all of
// them, not one each.
func TestGroupCommitCoalesces(t *testing.T) {
	f := &blockFile{entered: make(chan struct{}), release: make(chan struct{})}
	w := newTestWAL(f)
	var mu sync.Mutex
	var groups []int
	w.StartGroupCommit(GroupConfig{OnGroup: func(recs, _ int, _ time.Duration) {
		mu.Lock()
		groups = append(groups, recs)
		mu.Unlock()
	}})
	rec := Record{Type: DedupeType, DedupeKey: "k", DedupeReply: []string{"ok"}}

	if _, err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	<-f.entered // the committer is mid-write on a 1-record group
	const backlog = 63
	for i := 0; i < backlog; i++ {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(f.release)
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(groups) != 2 || groups[0] != 1 || groups[1] != backlog {
		t.Fatalf("group sizes = %v, want [1 %d] (backlog not coalesced)", groups, backlog)
	}
	w.Close()
}

// TestWaitDurablePastErrorHorizon: a record that reached stable storage
// keeps reporting success even after a later group fails; records after
// the failure report the sticky error.
func TestWaitDurablePastErrorHorizon(t *testing.T) {
	dir := t.TempDir()
	f, err := defaultOpenAppend(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var fail atomic.Bool
	w := newTestWAL(&gateFile{f: f, fail: &fail})
	w.StartGroupCommit(GroupConfig{})
	rec := Record{Type: DedupeType, DedupeKey: "k", DedupeReply: []string{"ok"}}

	lsn1, err := w.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn1); err != nil {
		t.Fatal(err)
	}
	fail.Store(true)
	lsn2, err := w.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn2); err == nil {
		t.Fatal("failed group's waiter did not get the error")
	}
	if err := w.WaitDurable(lsn1); err != nil {
		t.Fatalf("already-durable record reports %v after a later failure", err)
	}
	if w.Err() == nil {
		t.Fatal("sticky error not reported")
	}
	w.Close()
}

// collectFile records everything written, for decoding after Close.
type collectFile struct{ buf []byte }

func (f *collectFile) Write(p []byte) (int, error) { f.buf = append(f.buf, p...); return len(p), nil }
func (f *collectFile) Sync() error                 { return nil }
func (f *collectFile) Close() error                { return nil }

// TestGroupCommitCloseDrainsQueue: Close must commit everything queued
// before the file is closed — no unacked-but-accepted record is simply
// dropped on shutdown.
func TestGroupCommitCloseDrainsQueue(t *testing.T) {
	f := &collectFile{}
	w := newTestWAL(f)
	w.StartGroupCommit(GroupConfig{Window: time.Millisecond})
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := w.Append(Record{Type: DedupeType, DedupeKey: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, torn := DecodeAll(f.buf)
	if torn {
		t.Fatal("close left a torn log")
	}
	if len(recs) != n {
		t.Fatalf("close drained %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, rec.LSN)
		}
	}
}

// BenchmarkGroupCommit measures durable append throughput with fsync
// enabled: group mode (commit pipeline, Append + WaitDurable) against
// a per-record-fsync baseline, at 1/4/16/64 writers. The baseline is
// the ablation that earns the pipeline its place, and lives only here:
// each writer frames, writes and fsyncs its own record under one lock.
// The recs/group metric shows how much coalescing the load produced;
// the 64-writer row checks that coalescing keeps per-op cost near the
// 16-writer row instead of collapsing under contention.
func BenchmarkGroupCommit(b *testing.B) {
	payload := make([]byte, 256)
	for _, writers := range []int{1, 4, 16, 64} {
		for _, mode := range []string{"group", "sync"} {
			b.Run(fmt.Sprintf("%s/writers=%d", mode, writers), func(b *testing.B) {
				f, err := defaultOpenAppend(filepath.Join(b.TempDir(), "wal"))
				if err != nil {
					b.Fatal(err)
				}
				rec := Record{Type: uint8(vfs.MutWrite), Mut: vfs.Mutation{Op: vfs.MutWrite, Path: "/f", Data: payload}}
				var groups, recs atomic.Int64
				var commit func() error // appends rec; returns once it is durable
				if mode == "group" {
					w := newTestWAL(f)
					w.StartGroupCommit(GroupConfig{
						Window: DefaultCommitWindow,
						OnGroup: func(r, _ int, _ time.Duration) {
							groups.Add(1)
							recs.Add(int64(r))
						},
					})
					defer w.Close()
					commit = func() error {
						lsn, err := w.Append(rec)
						if err != nil {
							return err
						}
						return w.WaitDurable(lsn)
					}
				} else {
					defer f.Close()
					var mu sync.Mutex
					var lsn uint64
					var frame []byte
					commit = func() error {
						mu.Lock()
						defer mu.Unlock()
						lsn++
						r := rec
						r.LSN = lsn
						frame = EncodeRecord(frame[:0], r)
						if _, err := f.Write(frame); err != nil {
							return err
						}
						return f.Sync()
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					n := b.N / writers
					if g < b.N%writers {
						n++
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
				b.StopTimer()
				if g := groups.Load(); g > 0 {
					b.ReportMetric(float64(recs.Load())/float64(g), "recs/group")
				}
			})
		}
	}
}

// simFile models one WAL segment on a bandwidth-limited device with an
// independent flush queue per segment chain (striped volumes, NVMe
// namespaces): a flush costs a fixed command latency plus the unsynced
// bytes at the device's sustained write bandwidth. The data itself
// stays in memory, which makes the benchmark deterministic — the host
// filesystem's journal (ext4 jbd2 serializes concurrent fsyncs
// device-wide) would otherwise measure the host, not the commit
// pipeline. Costs sit well above the scheduler's ~1ms sleep
// granularity so the model, not the timer, sets the floor.
type simFile struct {
	mu       sync.Mutex
	unsynced int
}

const (
	simSyncLatency = 2 * time.Millisecond // per-flush command cost
	simBytesPerUS  = 32                   // 32 MB/s sustained write bandwidth
)

func (f *simFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.unsynced += len(p)
	f.mu.Unlock()
	return len(p), nil
}

func (f *simFile) Sync() error {
	f.mu.Lock()
	n := f.unsynced
	f.unsynced = 0
	f.mu.Unlock()
	time.Sleep(simSyncLatency + time.Duration(n/simBytesPerUS)*time.Microsecond)
	return nil
}

func (f *simFile) Close() error { return nil }

// evenRoots picks writer subtrees that rendezvous-hash evenly across
// the shard count, so the benchmark measures pipeline scaling rather
// than the luck of the draw on a handful of names (real deployments
// have enough subtrees for the hash to even out).
func evenRoots(writers, shards int) []string {
	per := writers / shards
	count := make([]int, shards)
	roots := make([]string, 0, writers)
	for i := 0; len(roots) < writers; i++ {
		name := fmt.Sprintf("/w%d", i)
		if sh := vfs.ShardOf(name, shards); count[sh] < per {
			count[sh]++
			roots = append(roots, name)
		}
	}
	return roots
}

// BenchmarkGroupCommitStore measures the full store pipeline — vfs
// mutation + journal append + per-op durability barrier — with the
// commit pipeline unsharded vs sharded per top-level subtree, on the
// simulated device above. Writers stay on disjoint subtrees, so the
// sharded rows split the serial write+flush data plane across
// independent committer goroutines and segment chains; the acceptance
// bar is sharded ≥ 3× unsharded throughput at 16 writers, with the
// 64-writer per-op cost within 1.5× of the 16-writer row. The
// payload is sized so the flush cost is data-dominated — the regime
// where a single committer's serial data plane is the bottleneck;
// when a fixed per-flush latency dominates instead, unsharded group
// commit already amortizes it and sharding buys commit latency, not
// throughput.
func BenchmarkGroupCommitStore(b *testing.B) {
	payload := make([]byte, 64<<10)
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"store-unsharded", 1},
		{"store-sharded", 8},
	} {
		for _, writers := range []int{16, 64} {
			b.Run(fmt.Sprintf("%s/writers=%d", cfg.name, writers), func(b *testing.B) {
				dir := b.TempDir()
				s, err := Open(dir, Options{
					Owner:        "alice",
					Shards:       cfg.shards,
					CommitWindow: -1, // closed loop: groups form from queue pressure alone
					OpenAppend:   func(string) (File, error) { return &simFile{}, nil },
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				roots := evenRoots(writers, 8)
				paths := make([]string, writers)
				for g := 0; g < writers; g++ {
					if err := s.FS().Mkdir(roots[g], 0o755, "alice"); err != nil {
						b.Fatal(err)
					}
					paths[g] = roots[g] + "/f"
					if _, err := s.FS().Create(paths[g], 0o644, "alice"); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Barrier(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					n := b.N / writers
					if g < b.N%writers {
						n++
					}
					wg.Add(1)
					go func(g, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := s.FS().WriteAt(paths[g], payload, 0); err != nil {
								b.Error(err)
								return
							}
							if err := s.BarrierPath(paths[g]); err != nil {
								b.Error(err)
								return
							}
						}
					}(g, n)
				}
				wg.Wait()
				b.StopTimer()
			})
		}
	}
}
