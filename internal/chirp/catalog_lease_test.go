package chirp

import (
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"identitybox/internal/obs"
	"identitybox/internal/replica"
)

// fakeClock is the clock tests drive: its time moves only when the test
// advances it or a client on it sleeps, and each afterFunc timer runs
// inside the advance that reaches it. sleep records what it was asked
// for and runs onSleep, when set, before it advances.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	timers  []*fakeTimer
	slept   []time.Duration
	onSleep func(time.Duration)
}

type fakeTimer struct {
	at   time.Time
	f    func()
	done bool
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) afterFunc(d time.Duration, fn func()) func() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	tm := &fakeTimer{at: f.t.Add(d), f: fn}
	f.timers = append(f.timers, tm)
	return func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		stopped := !tm.done
		tm.done = true
		return stopped
	}
}

// advance moves the time on by d and runs the timers it reaches, in
// the order of their deadlines.
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	var due []*fakeTimer
	live := f.timers[:0]
	for _, tm := range f.timers {
		switch {
		case tm.done:
		case tm.at.After(f.t):
			live = append(live, tm)
		default:
			tm.done = true
			due = append(due, tm)
		}
	}
	f.timers = live
	f.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, tm := range due {
		tm.f()
	}
}

// pending reports the timers that have neither run nor been stopped.
func (f *fakeClock) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, tm := range f.timers {
		if !tm.done {
			n++
		}
	}
	return n
}

func (f *fakeClock) sleep(d time.Duration) {
	f.mu.Lock()
	f.slept = append(f.slept, d)
	hook := f.onSleep
	f.mu.Unlock()
	if hook != nil {
		hook(d)
	}
	f.advance(d)
}

// sleeps reports every sleep asked of the clock so far.
func (f *fakeClock) sleeps() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

const expiryHeartbeat = `chirp "fileserver" "127.0.0.1:9094" "fred"`

// TestCatalogExpiry: under the default 15-minute Expiry a server is
// still listed, aged 15m, at the budget and gone a minute past it.
func TestCatalogExpiry(t *testing.T) {
	clk := newFakeClock()
	cat := newCatalog(clk)
	cat.Record(expiryHeartbeat)
	clk.advance(15 * time.Minute)
	if entries := cat.Entries(); len(entries) != 1 || entries[0].Age != 15*time.Minute {
		t.Fatalf("entries at the default expiry = %+v, want the server aged 15m", entries)
	}
	clk.advance(time.Minute)
	if entries := cat.Entries(); len(entries) != 0 {
		t.Fatalf("server silent 16m still listed: %v", entries)
	}
}

// TestCatalogStalenessExpiry: with a custom Expiry, entries age against
// the catalog's clock and vanish from Entries once past the budget; a
// fresh heartbeat brings one back.
func TestCatalogStalenessExpiry(t *testing.T) {
	clk := newFakeClock()
	cat := newCatalog(clk)
	cat.Expiry = time.Minute
	cat.Record(expiryHeartbeat)
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
	cat.Record(expiryHeartbeat)
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

// fakeLeaseCatalog starts a catalog on a fake clock with the given
// lease term; its registry counts the claims it has taken.
func fakeLeaseCatalog(t *testing.T, ttl time.Duration) (*Catalog, *fakeClock, *obs.Registry) {
	t.Helper()
	clk := newFakeClock()
	cat := newCatalog(clk)
	cat.LeaseTTL = ttl
	reg := obs.NewRegistry()
	cat.SetMetrics(reg)
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat, clk, reg
}

// claimant is one bid in an election.
type claimant struct {
	addr       string
	lsn, epoch uint64
}

// elect sends every claim at once, waits until the catalog has taken
// them all into the window the first one opens, then advances the
// clock to the window's end, which answers them. It returns each
// claimant's answer by address.
func elect(t *testing.T, cat *Catalog, clk *fakeClock, reg *obs.Registry, claims ...claimant) map[string]replica.LeaseResult {
	t.Helper()
	taken := reg.Counter(MetricCatalogClaims)
	want := taken.Value() + int64(len(claims))
	type outcome struct {
		addr string
		res  replica.LeaseResult
		err  error
	}
	results := make(chan outcome, len(claims))
	for _, c := range claims {
		go func() {
			res, err := claimCatalog(cat, c.addr, c.lsn, c.epoch)
			results <- outcome{c.addr, res, err}
		}()
	}
	waitFor(t, "the catalog to take every claim", func() bool { return taken.Value() == want })
	if n := clk.pending(); n != 1 {
		t.Fatalf("%d timers pending after the claims, want the one election window", n)
	}
	clk.advance(cat.LeaseTTL / 4)
	out := map[string]replica.LeaseResult{}
	for range claims {
		o := <-results
		if o.err != nil {
			t.Fatalf("claim from %s: %v", o.addr, o.err)
		}
		out[o.addr] = o.res
	}
	return out
}

// TestLeaseGrantRenewDeny: the first claimant gets epoch 1 once its
// window closes, renewals keep it, and a rival is denied with the
// holder named.
func TestLeaseGrantRenewDeny(t *testing.T) {
	cat, clk, reg := fakeLeaseCatalog(t, time.Second)

	res := elect(t, cat, clk, reg, claimant{"127.0.0.1:1111", 5, 0})["127.0.0.1:1111"]
	if !res.Granted || res.Epoch == 0 || res.TTL != time.Second {
		t.Fatalf("first claim = %+v", res)
	}
	epoch := res.Epoch

	// A renewal late in the term extends it by a whole term.
	clk.advance(900 * time.Millisecond)
	res, err := claimCatalog(cat, "127.0.0.1:1111", 9, epoch)
	if err != nil || !res.Granted || res.Epoch != epoch {
		t.Fatalf("renewal = %+v, %v", res, err)
	}
	clk.advance(900 * time.Millisecond)

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
	clk.advance(100 * time.Millisecond)
	if holder, _ := cat.LeaseHolder("vol"); holder != "" {
		t.Fatalf("LeaseHolder = %s a whole term after the last renewal, want none", holder)
	}
}

// TestLeaseElectionPicksHighestLSN: after expiry, concurrent claims
// are collected for an election window and the freshest follower (the
// highest applied LSN) takes the next epoch; the loser is denied and
// told who won.
func TestLeaseElectionPicksHighestLSN(t *testing.T) {
	cat, clk, reg := fakeLeaseCatalog(t, 400*time.Millisecond)

	res := elect(t, cat, clk, reg, claimant{"127.0.0.1:1111", 50, 0})["127.0.0.1:1111"]
	if !res.Granted {
		t.Fatalf("seed claim = %+v", res)
	}
	firstEpoch := res.Epoch

	// Kill the primary's renewals: the lease expires on the catalog
	// clock, and two followers claim inside one election window.
	clk.advance(cat.LeaseTTL + time.Millisecond)
	got := elect(t, cat, clk, reg, claimant{"127.0.0.1:3333", 40, firstEpoch}, claimant{"127.0.0.1:4444", 48, firstEpoch})
	winner, loser := got["127.0.0.1:4444"], got["127.0.0.1:3333"]
	if !winner.Granted || loser.Granted {
		t.Fatalf("winner = %+v, loser = %+v; want the higher-LSN claimant 127.0.0.1:4444 granted alone", winner, loser)
	}
	if winner.Epoch <= firstEpoch {
		t.Fatalf("election did not advance the epoch: %d -> %d", firstEpoch, winner.Epoch)
	}
	if loser.Holder != "127.0.0.1:4444" || loser.Epoch != winner.Epoch {
		t.Fatalf("loser was not told the winner: %+v", loser)
	}
	if got := reg.Counter(MetricCatalogElections).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", MetricCatalogElections, got)
	}

	// The fence holds: the deposed holder claiming with its old epoch is
	// denied and shown the new term.
	res, err := claimCatalog(cat, "127.0.0.1:1111", 50, firstEpoch)
	if err != nil || res.Granted {
		t.Fatalf("deposed holder reclaimed the lease: %+v, %v", res, err)
	}
	if res.Epoch != winner.Epoch {
		t.Fatalf("deny to the deposed holder carries epoch %d, want %d", res.Epoch, winner.Epoch)
	}
}

// TestLeaseTieBreaksOnAddress: equal LSNs fall back to the smallest
// address, keeping the election deterministic.
func TestLeaseTieBreaksOnAddress(t *testing.T) {
	cat, clk, reg := fakeLeaseCatalog(t, 400*time.Millisecond)
	got := elect(t, cat, clk, reg, claimant{"127.0.0.1:5555", 10, 0}, claimant{"127.0.0.1:4444", 10, 0})
	if !got["127.0.0.1:4444"].Granted || got["127.0.0.1:5555"].Granted {
		t.Fatalf("answers = %+v, want exactly 127.0.0.1:4444 granted", got)
	}
}

// TestLeaseSurvivesCatalogRestart: a holder renewing against a fresh
// catalog (its lease table empty) re-seeds the lease above its own
// epoch, so a catalog restart cannot hand the lease to a stale
// claimant at a lower term.
func TestLeaseSurvivesCatalogRestart(t *testing.T) {
	cat, clk, reg := fakeLeaseCatalog(t, 400*time.Millisecond)

	// The holder renews at epoch 7 (adopted from its durable store).
	res := elect(t, cat, clk, reg, claimant{"127.0.0.1:1111", 50, 7})["127.0.0.1:1111"]
	if !res.Granted || res.Epoch < 7 {
		t.Fatalf("renewal against a fresh catalog = %+v, want a grant at epoch 7 or above", res)
	}
	// A stale rival at a lower epoch stays fenced.
	res, err := claimCatalog(cat, "127.0.0.1:2222", 999, 2)
	if err != nil || res.Granted {
		t.Fatalf("stale rival won against the re-seeded lease: %+v, %v", res, err)
	}
	if res.Epoch < 7 {
		t.Fatalf("deny epoch = %d, want >= 7", res.Epoch)
	}
}

// TestCatalogCloseStopsWindow: closing a catalog stops the timer of an
// election window its claims opened.
func TestCatalogCloseStopsWindow(t *testing.T) {
	cat, clk, reg := fakeLeaseCatalog(t, 400*time.Millisecond)
	go claimCatalog(cat, "127.0.0.1:1111", 1, 0)
	waitFor(t, "the claim", func() bool { return reg.Counter(MetricCatalogClaims).Value() == 1 })
	if n := clk.pending(); n != 1 {
		t.Fatalf("%d timers pending, want the election window's", n)
	}
	cat.Close()
	if n := clk.pending(); n != 0 {
		t.Fatalf("%d timers pending after Close, want none", n)
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
