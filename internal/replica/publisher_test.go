package replica

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"identitybox/internal/durable"
	"identitybox/internal/obs"
)

// openPrimary opens a fresh primary store wired to pub.
func openPrimary(t *testing.T, pub *Publisher) *durable.Store {
	t.Helper()
	opts := durable.Options{Owner: "owner", SyncEveryN: 1}
	if pub != nil {
		opts.OnShip = pub.Ship
	}
	store, err := durable.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if pub != nil {
		pub.Bind(store)
	}
	return store
}

// openFollower opens a fresh replica-mode store.
func openFollower(t *testing.T) *durable.Store {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Options{Owner: "owner", SyncEveryN: 1, ReplicaMode: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// mutate journals one write through the store's file system and waits
// for durability, so the commit group has shipped by return.
func mutate(t *testing.T, store *durable.Store, path string) {
	t.Helper()
	if err := store.FS().WriteFile(path, []byte("payload"), 0o644, "owner"); err != nil {
		t.Fatal(err)
	}
	if err := store.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestPublisherFanOutAndAck: a shipped group reaches the subscriber in
// commit order, and its ack releases the semi-sync wait.
func TestPublisherFanOutAndAck(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, time.Second)
	store := openPrimary(t, pub)

	sub, catchup, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if catchup.Records != 0 || catchup.Snap != nil {
		t.Fatalf("subscribe from the durable horizon returned catch-up %d records / snapshot %d bytes", catchup.Records, len(catchup.Snap))
	}

	mutate(t, store, "/a")
	select {
	case b := <-sub.C:
		if b.Records < 1 || b.First == 0 || b.Last < b.First {
			t.Fatalf("bad batch %+v", b)
		}
		// Semi-sync: the wait must not release before the ack.
		done := make(chan error, 1)
		go func() { done <- pub.WaitShipped(b.Last) }()
		select {
		case <-done:
			t.Fatal("WaitShipped released before the follower acked")
		case <-time.After(20 * time.Millisecond):
		}
		sub.Ack(b.Last)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no batch shipped")
	}
	if got := reg.Counter(MetricGroupsShipped).Value(); got < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricGroupsShipped, got)
	}
}

// TestWaitShippedDegrades: no subscribers means immediate return, and a
// stalled follower degrades the wait to local durability after the sync
// timeout — counted, never an error.
func TestWaitShippedDegrades(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, 30*time.Millisecond)
	store := openPrimary(t, pub)

	if err := pub.WaitShipped(99); err != nil {
		t.Fatalf("WaitShipped with no subscribers = %v", err)
	}
	if got := reg.Counter(MetricSyncTimeouts).Value(); got != 0 {
		t.Fatalf("no-subscriber wait counted as a timeout")
	}

	sub, _, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Two timeouts back to back: the second wait reuses the timer the
	// first one fired, and must still wait its own full timeout.
	for i := int64(1); i <= 2; i++ {
		start := time.Now()
		if err := pub.WaitShipped(99); err != nil {
			t.Fatalf("timed-out wait %d = %v", i, err)
		}
		if took := time.Since(start); took < 30*time.Millisecond || took > 2*time.Second {
			t.Fatalf("timed-out wait %d took %v, want the 30ms sync timeout", i, took)
		}
		if got := reg.Counter(MetricSyncTimeouts).Value(); got != i {
			t.Fatalf("%s = %d after %d timeouts", MetricSyncTimeouts, got, i)
		}
	}
}

// TestWaitShippedTimerReuseNoStaleFire: an ack that lands at the edge of
// a wait's sync timeout settles the wait either way round, and the next
// wait, which reuses the pooled waiter and its timer, still waits its
// own full timeout: no fired value is left behind for it to read.
func TestWaitShippedTimerReuseNoStaleFire(t *testing.T) {
	const timeout = 30 * time.Millisecond
	pub := NewPublisher(nil, timeout)
	store := openPrimary(t, pub)
	sub, _, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	lsn := store.DurableLSN()
	for _, edge := range []time.Duration{25, 28, 30, 32, 35} {
		lsn++
		done := make(chan struct{})
		go func() {
			pub.WaitShipped(lsn)
			close(done)
		}()
		if !waitParked(pub, 1) {
			t.Fatal("the wait never parked")
		}
		time.Sleep(edge * time.Millisecond)
		sub.Ack(lsn)
		<-done

		start := time.Now()
		pub.WaitShipped(lsn + 1)
		if took := time.Since(start); took < timeout*2/3 {
			t.Fatalf("after an ack at %dms, the next wait timed out in %v: a stale timer value survived", edge, took)
		}
	}
}

// TestWaitShippedManyWaitersOneAck: one acknowledgement releases every
// waiter parked on it, none of them counted as a timeout.
func TestWaitShippedManyWaitersOneAck(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, time.Minute)
	store := openPrimary(t, pub)
	sub, _, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const waiters = 16
	done := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		lsn := uint64(100 + i%4) // four horizons, all covered by one ack
		go func() {
			pub.WaitShipped(lsn)
			done <- struct{}{}
		}()
	}
	if !waitParked(pub, waiters) {
		t.Fatal("not every waiter parked")
	}
	sub.Ack(103)
	for i := 0; i < waiters; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiters still parked after the ack", waiters-i, waiters)
		}
	}
	if got := reg.Counter(MetricSyncTimeouts).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricSyncTimeouts, got)
	}
}

// waitParked polls until n WaitShipped calls have parked on pub,
// reporting false if they do not within five seconds.
func waitParked(pub *Publisher, n int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if pub.acked.Parked() == n {
			return true
		}
	}
	return false
}

// TestWaitShippedParkedAllocs pins the cost of a semi-sync wait that
// parks and is released by an ack: nothing. The wait reuses a pooled
// waiter, wake channel and timer included, and the ack wakes it without
// a fresh channel.
func TestWaitShippedParkedAllocs(t *testing.T) {
	pub := NewPublisher(nil, time.Minute)
	store := openPrimary(t, pub)
	sub, _, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	lsn := store.DurableLSN()
	parked, released := make(chan uint64), make(chan struct{})
	go func() { // the follower: acks each wait once it has parked
		for l := range parked {
			if !waitParked(pub, 1) {
				t.Error("the wait never parked")
			}
			sub.Ack(l)
			released <- struct{}{}
		}
	}()
	defer close(parked)
	got := testing.AllocsPerRun(100, func() {
		lsn++
		parked <- lsn
		pub.WaitShipped(lsn)
		<-released
	})
	if got > 0 {
		t.Fatalf("a parked-then-acked WaitShipped allocates %.1f, want 0", got)
	}
}

// TestSubscriberOverflowCutLoose: a follower that stops draining is
// dropped with a channel close (the gap signal) instead of buffering
// the primary's stream without bound.
func TestSubscriberOverflowCutLoose(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, time.Second)
	store := openPrimary(t, pub)
	sub, _, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		t.Fatal(err)
	}
	// Never drain: the buffer holds subChanDepth batches, so shipping one
	// more cuts the subscriber loose.
	for i := 0; i <= subChanDepth; i++ {
		pub.Ship(uint64(i+1), uint64(i+1), 1, []byte("x"))
	}
	drained := 0
	for range sub.C {
		drained++
	}
	if drained != subChanDepth {
		t.Fatalf("drained %d buffered batches, want %d", drained, subChanDepth)
	}
	if got := reg.Counter(MetricSubOverflows).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricSubOverflows, got)
	}
	if pub.Subscribers() != 0 {
		t.Fatalf("overflowed subscriber still registered")
	}
}

// TestSubscribeCatchUpTail: a follower subscribing from behind receives
// the WAL tail it missed and replays it into an identical store.
func TestSubscribeCatchUpTail(t *testing.T) {
	pub := NewPublisher(nil, time.Second)
	store := openPrimary(t, pub)
	for i := 0; i < 3; i++ {
		mutate(t, store, fmt.Sprintf("/f%d", i))
	}
	sub, catchup, err := pub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if catchup.Snap != nil {
		t.Fatalf("uncompacted log answered with a snapshot")
	}
	if catchup.Records < 3 {
		t.Fatalf("catch-up = %+v, want >= 3 records", catchup)
	}
	follower := openFollower(t)
	if _, err := follower.ApplyReplicated(catchup.Epoch, catchup.First, catchup.Last, catchup.Frames); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := follower.FS().Stat(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatalf("replayed tree missing /f%d: %v", i, err)
		}
	}
	if follower.AppliedLSN() != catchup.Last {
		t.Fatalf("applied lsn %d, want %d", follower.AppliedLSN(), catchup.Last)
	}
}

// TestSubscribeCatchUpSnapshot: once compaction truncates the history a
// follower needs, Subscribe answers with a bootstrap snapshot instead.
func TestSubscribeCatchUpSnapshot(t *testing.T) {
	pub := NewPublisher(nil, time.Second)
	store := openPrimary(t, pub)
	mutate(t, store, "/pre")
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	sub, catchup, err := pub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if catchup.Frames != nil {
		t.Fatalf("compacted log still answered with a tail")
	}
	snapLSN := catchup.Last
	if catchup.Snap == nil || snapLSN == 0 {
		t.Fatalf("no snapshot for a follower behind the compacted log (lsn %d)", snapLSN)
	}
	follower := openFollower(t)
	if err := follower.LoadReplicaSnapshot(catchup.Snap); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.FS().Stat("/pre"); err != nil {
		t.Fatalf("bootstrapped tree missing /pre: %v", err)
	}
	if follower.AppliedLSN() != snapLSN {
		t.Fatalf("applied lsn %d, want %d", follower.AppliedLSN(), snapLSN)
	}
}

// TestSetEpochMonotone: the stamped epoch never moves backwards.
func TestSetEpochMonotone(t *testing.T) {
	pub := NewPublisher(nil, time.Second)
	pub.SetEpoch(5)
	pub.SetEpoch(3)
	if got := pub.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want 5", got)
	}
}

// TestParseLeaseReply covers the three-field grant/deny grammar and its
// malformed rejections.
func TestParseLeaseReply(t *testing.T) {
	res, err := parseLeaseReply("grant 7 3000")
	if err != nil || !res.Granted || res.Epoch != 7 || res.TTL != 3*time.Second {
		t.Fatalf("grant = %+v, %v", res, err)
	}
	res, err = parseLeaseReply("deny 9 127.0.0.1:9094")
	if err != nil || res.Granted || res.Epoch != 9 || res.Holder != "127.0.0.1:9094" {
		t.Fatalf("deny = %+v, %v", res, err)
	}
	for _, bad := range []string{"", "grant 7", "grant x 3000", "grant 7 -1", "nope 1 2", "deny 9 a b"} {
		if _, err := parseLeaseReply(bad); err == nil {
			t.Errorf("parseLeaseReply(%q) accepted", bad)
		}
	}
}

// TestSoloPrimaryNodeBarrier: a node without catalog or followers is a
// static primary whose barrier degrades to local durability.
func TestSoloPrimaryNodeBarrier(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(reg, time.Second)
	store := openPrimary(t, pub)
	n, err := Start(Config{Name: "solo", Addr: "127.0.0.1:1", Store: store, Publisher: pub, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if role, _ := n.Role(); role != RolePrimary {
		t.Fatalf("role = %s, want primary", role)
	}
	if err := store.FS().WriteFile("/solo", []byte("x"), 0o644, "owner"); err != nil {
		t.Fatal(err)
	}
	if err := n.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := n.AppendDedupe("k", []string{"ok"}); err != nil {
		t.Fatal(err)
	}
	if n.AppliedLSN() == 0 {
		t.Fatal("applied lsn still 0 after a durable mutation")
	}
	if got := reg.Gauge(MetricAppliedLSN).Value(); got != int64(n.AppliedLSN()) {
		t.Fatalf("%s gauge = %d, want %d", MetricAppliedLSN, got, n.AppliedLSN())
	}
}
