package chirp

import (
	"net"
	"sync"
	"testing"
	"time"

	"identitybox/internal/obs"
	"identitybox/internal/replica"
)

// fakeClock is an injectable catalog clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestCatalogStalenessExpiry: entries age against the injected clock
// and vanish from Entries once past the Expiry budget.
func TestCatalogStalenessExpiry(t *testing.T) {
	cat := NewCatalog()
	clk := newFakeClock()
	cat.SetClock(clk.now)
	cat.Expiry = time.Minute

	cat.Record(`chirp "fileserver" "127.0.0.1:9094" "fred"`)
	clk.advance(30 * time.Second)
	entries := cat.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %v, want the one live server", entries)
	}
	if got := entries[0].Age; got != 30*time.Second {
		t.Fatalf("age = %v, want 30s", got)
	}
	clk.advance(31 * time.Second)
	if entries := cat.Entries(); len(entries) != 0 {
		t.Fatalf("stale server still listed: %v", entries)
	}
	// A fresh heartbeat resurrects it.
	cat.Record(`chirp "fileserver" "127.0.0.1:9094" "fred"`)
	if entries := cat.Entries(); len(entries) != 1 {
		t.Fatalf("re-announced server missing: %v", entries)
	}
}

// TestCatalogQueryCarriesAgeEpochRole: the TCP query line carries the
// last-seen age and the heartbeat's replication tokens end to end.
func TestCatalogQueryCarriesAgeEpochRole(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	cat.Record(`chirp "fileserver" "127.0.0.1:9094" "fred" epoch=4 lsn=77 role=primary`)
	cat.Record(`chirp "oldserver" "127.0.0.1:9095" "barney"`)

	entries, err := QueryCatalog(cat.Addr())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CatalogEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	fs, ok := byName["fileserver"]
	if !ok {
		t.Fatalf("fileserver missing from %v", entries)
	}
	if fs.Epoch != 4 || fs.LSN != 77 || fs.Role != "primary" {
		t.Fatalf("replication tokens lost in transit: %+v", fs)
	}
	if fs.Age < 0 || fs.Age > 10*time.Second {
		t.Fatalf("age = %v, want a small fresh-heartbeat age", fs.Age)
	}
	if old := byName["oldserver"]; old.Role != "" || old.Epoch != 0 {
		t.Fatalf("role-less heartbeat grew tokens: %+v", old)
	}
}

// claimCatalog wraps a LeaseClient against a test catalog.
func claimCatalog(cat *Catalog, addr string, lsn, epoch uint64) (replica.LeaseResult, error) {
	lc := &replica.LeaseClient{CatalogAddr: cat.Addr(), Name: "vol", Addr: addr, Timeout: 2 * time.Second}
	return lc.Claim(lsn, epoch)
}

// TestLeaseGrantRenewDeny: the first claimant gets epoch 1, renewals
// keep it, and a rival is denied with the holder named.
func TestLeaseGrantRenewDeny(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = time.Second
	reg := obs.NewRegistry()
	cat.SetMetrics(reg)
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	res, err := claimCatalog(cat, "127.0.0.1:1111", 5, 0)
	if err != nil || !res.Granted {
		t.Fatalf("first claim = %+v, %v", res, err)
	}
	if res.Epoch == 0 || res.TTL != time.Second {
		t.Fatalf("grant = %+v", res)
	}
	epoch := res.Epoch

	res, err = claimCatalog(cat, "127.0.0.1:1111", 9, epoch)
	if err != nil || !res.Granted || res.Epoch != epoch {
		t.Fatalf("renewal = %+v, %v", res, err)
	}

	res, err = claimCatalog(cat, "127.0.0.1:2222", 100, 0)
	if err != nil || res.Granted {
		t.Fatalf("rival claim against a live lease = %+v, %v", res, err)
	}
	if res.Holder != "127.0.0.1:1111" || res.Epoch != epoch {
		t.Fatalf("deny = %+v, want holder 127.0.0.1:1111 epoch %d", res, epoch)
	}
	if holder, e := cat.LeaseHolder("vol"); holder != "127.0.0.1:1111" || e != epoch {
		t.Fatalf("LeaseHolder = %s/%d", holder, e)
	}
}

// TestLeaseElectionPicksHighestLSN: after expiry, concurrent claims
// are collected for an election window and the freshest follower (the
// highest applied LSN) takes the next epoch; the loser is denied and
// told who won.
func TestLeaseElectionPicksHighestLSN(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = 400 * time.Millisecond // election window 100ms
	clk := newFakeClock()
	cat.SetClock(clk.now)
	reg := obs.NewRegistry()
	cat.SetMetrics(reg)
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	res, err := claimCatalog(cat, "127.0.0.1:1111", 50, 0)
	if err != nil || !res.Granted {
		t.Fatalf("seed claim = %+v, %v", res, err)
	}
	firstEpoch := res.Epoch

	// Kill the primary's renewals: the lease expires on the catalog
	// clock, and two followers claim inside one election window.
	clk.advance(cat.LeaseTTL + time.Millisecond)
	type outcome struct {
		addr string
		res  replica.LeaseResult
		err  error
	}
	results := make(chan outcome, 2)
	for _, c := range []struct {
		addr string
		lsn  uint64
	}{{"127.0.0.1:3333", 40}, {"127.0.0.1:4444", 48}} {
		c := c
		go func() {
			res, err := claimCatalog(cat, c.addr, c.lsn, firstEpoch)
			results <- outcome{c.addr, res, err}
		}()
	}
	var winner, loser outcome
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("claim from %s: %v", o.addr, o.err)
		}
		if o.res.Granted {
			winner = o
		} else {
			loser = o
		}
	}
	if winner.addr != "127.0.0.1:4444" {
		t.Fatalf("winner = %s (want the higher-LSN claimant 127.0.0.1:4444); loser = %+v", winner.addr, loser)
	}
	if winner.res.Epoch <= firstEpoch {
		t.Fatalf("election did not advance the epoch: %d -> %d", firstEpoch, winner.res.Epoch)
	}
	if loser.res.Holder != winner.addr || loser.res.Epoch != winner.res.Epoch {
		t.Fatalf("loser was not told the winner: %+v", loser.res)
	}
	if got := reg.Counter(MetricCatalogElections).Value(); got < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricCatalogElections, got)
	}

	// The fence holds: the deposed holder claiming with its old epoch is
	// denied and shown the new term.
	res, err = claimCatalog(cat, "127.0.0.1:1111", 50, firstEpoch)
	if err != nil || res.Granted {
		t.Fatalf("deposed holder reclaimed the lease: %+v, %v", res, err)
	}
	if res.Epoch != winner.res.Epoch {
		t.Fatalf("deny to the deposed holder carries epoch %d, want %d", res.Epoch, winner.res.Epoch)
	}
}

// TestLeaseTieBreaksOnAddress: equal LSNs fall back to the smallest
// address, keeping the election deterministic.
func TestLeaseTieBreaksOnAddress(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = 400 * time.Millisecond
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	results := make(chan string, 2)
	for _, addr := range []string{"127.0.0.1:5555", "127.0.0.1:4444"} {
		addr := addr
		go func() {
			res, err := claimCatalog(cat, addr, 10, 0)
			if err == nil && res.Granted {
				results <- addr
			} else {
				results <- ""
			}
		}()
	}
	var granted []string
	for i := 0; i < 2; i++ {
		if a := <-results; a != "" {
			granted = append(granted, a)
		}
	}
	if len(granted) != 1 || granted[0] != "127.0.0.1:4444" {
		t.Fatalf("granted = %v, want exactly [127.0.0.1:4444]", granted)
	}
}

// TestLeaseSurvivesCatalogRestart: a holder renewing against a fresh
// catalog (its lease table empty) re-seeds the lease at its own epoch,
// so a catalog restart cannot hand the lease to a stale claimant at a
// lower term.
func TestLeaseSurvivesCatalogRestart(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = 400 * time.Millisecond
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// The holder renews at epoch 7 (adopted from its durable store).
	res, err := claimCatalog(cat, "127.0.0.1:1111", 50, 7)
	if err != nil || !res.Granted {
		t.Fatalf("renewal against a fresh catalog = %+v, %v", res, err)
	}
	if res.Epoch < 7 {
		t.Fatalf("fresh catalog granted epoch %d below the holder's %d", res.Epoch, 7)
	}
	// A stale rival at a lower epoch stays fenced.
	res, err = claimCatalog(cat, "127.0.0.1:2222", 999, 2)
	if err != nil || res.Granted {
		t.Fatalf("stale rival won against the re-seeded lease: %+v, %v", res, err)
	}
	if res.Epoch < 7 {
		t.Fatalf("deny epoch = %d, want >= 7", res.Epoch)
	}
}

// TestCatalogListenFixedPortTaken: Listen on a fixed port whose TCP
// side another socket holds fails once, as asked, and leaks no socket:
// the UDP port it bound on the way is free again afterwards.
func TestCatalogListenFixedPortTaken(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	addr := held.Addr().String()
	cat := NewCatalog()
	if err := cat.Listen(addr); err == nil {
		cat.Close()
		t.Fatalf("Listen(%s) succeeded with its TCP port taken", addr)
	}
	if got := cat.Addr(); got != "" {
		t.Fatalf("failed Listen left a bound address %q", got)
	}
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	u, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		t.Fatalf("UDP port of the failed Listen still held: %v", err)
	}
	u.Close()
}
