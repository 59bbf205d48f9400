package chirp

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
)

// replTTL is the lease term the replication tests run with: short
// enough that a failover completes inside a test, long enough that the
// race detector's scheduling jitter cannot expire a healthy primary.
const replTTL = 400 * time.Millisecond

func adminAuth() []auth.Authenticator {
	return []auth.Authenticator{&auth.UnixClient{User: "admin"}}
}

// freePort reserves a listening address for a member whose replication
// node must know it before the server exists (the lease identity and
// the catalog entry must agree).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// replMember is one replica-set member wired exactly like chirpd does
// it: durable store shipping into a publisher, a kernel over the
// store's file system, a replication node running the role (a follower
// gets its state from the node's first dial, as chirpd's does), and a
// server whose durability/dedupe/role hooks all point at the node.
type replMember struct {
	t       *testing.T
	name    string
	addr    string
	reg     *obs.Registry
	store   *durable.Store
	pub     *replica.Publisher
	node    *replica.Node
	srv     *Server
	execs   atomic.Int64
	shipped atomic.Int64

	// killAt arms a crash at an absolute shipped-group count (0 =
	// disarmed); see armKill. killDelay (nanoseconds) jitters the crash
	// past the boundary. The chaos matrix sets both before driving
	// traffic at the member.
	killAt      atomic.Int64
	killDelay   atomic.Int64
	killTrigger chan struct{}

	killOnce sync.Once
	trigOnce sync.Once

	// streamGate, held for writing, stalls this follower's replication
	// stream before its next batch, as a slow follower would stall.
	streamGate sync.RWMutex
}

// gatedStream is a follower's replication stream that waits at gate
// before each batch.
type gatedStream struct {
	replica.Stream
	gate *sync.RWMutex
}

func (g gatedStream) Next() (replica.Batch, error) {
	g.gate.RLock()
	g.gate.RUnlock()
	return g.Stream.Next()
}

// armKill schedules this member's death right after the next `after`
// commit groups ship. Arming relative to the current count keeps the
// chaos matrix aligned on workflow boundaries regardless of how many
// groups setup itself shipped (the epoch-adoption record, for one).
func (m *replMember) armKill(after int64) {
	m.killAt.Store(m.shipped.Load() + after)
}

// startReplMember brings a member up. replicaOf empty starts a
// primary; armKill schedules a group-boundary crash (server severed,
// node stopped, stream closed) for the chaos matrix.
func startReplMember(t *testing.T, name, catalogAddr, replicaOf string) *replMember {
	t.Helper()
	m := &replMember{t: t, name: name, killTrigger: make(chan struct{})}
	m.reg = obs.NewRegistry()
	m.pub = replica.NewPublisher(m.reg, replTTL)
	onShip := func(first, last uint64, records int, frames []byte) {
		m.pub.Ship(first, last, records, frames)
		if at := m.killAt.Load(); m.shipped.Add(1) == at && at > 0 {
			m.trigOnce.Do(func() { close(m.killTrigger) })
		}
	}
	store, err := durable.Open(t.TempDir(), durable.Options{
		Owner:       "owner",
		SyncEveryN:  1,
		ReplicaMode: replicaOf != "",
		OnShip:      onShip,
		Metrics:     m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.store = store
	t.Cleanup(func() { store.Close() })
	m.pub.Bind(store)

	k := kernel.New(store.FS(), vclock.Default())
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		m.execs.Add(1)
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		if err := p.WriteFile("out.dat", bytes.ToUpper(in), 0o644); err != nil {
			return 2
		}
		return 0
	})

	m.addr = freePort(t)
	dial := func(target string, fromLSN uint64) (replica.Stream, error) {
		rs, err := DialReplica(target, adminAuth(), fromLSN, 2*time.Second)
		if err != nil {
			return nil, err
		}
		rs.IdleTimeout = replTTL
		return gatedStream{rs, &m.streamGate}, nil
	}
	node, err := replica.Start(replica.Config{
		Name:        name,
		Addr:        m.addr,
		CatalogAddr: catalogAddr,
		TTL:         replTTL,
		Store:       store,
		Publisher:   m.pub,
		PrimaryAddr: replicaOf,
		Dial:        dial,
		Metrics:     m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.node = node

	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	hb := time.Duration(0)
	if catalogAddr != "" {
		hb = replTTL / 3
	}
	srv, err := NewServer(k, ServerOptions{
		Name:           name,
		Owner:          "owner",
		RootACL:        rootACL,
		Verifiers:      map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		CatalogAddr:    catalogAddr,
		HeartbeatEvery: hb,
		Repl:           m.pub,
		Role:           node,
		Durability:     node,
		DedupeJournal:  node,
		Metrics:        m.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.srv = srv
	if err := srv.Listen(m.addr); err != nil {
		t.Fatal(err)
	}
	go func() {
		<-m.killTrigger
		if d := time.Duration(m.killDelay.Load()); d > 0 {
			time.Sleep(d)
		}
		m.kill()
	}()
	t.Cleanup(m.kill)
	return m
}

// kill simulates this member's death: sessions severed, role loops
// stopped, the ship stream closed (followers see the break at once).
func (m *replMember) kill() {
	m.trigOnce.Do(func() { close(m.killTrigger) }) // release the armed-kill goroutine
	m.killOnce.Do(func() {
		if m.srv != nil {
			m.srv.Close()
		}
		if m.node != nil {
			m.node.Stop()
		}
		m.pub.Close()
	})
}

func (m *replMember) role() string {
	r, _ := m.node.Role()
	return r
}

// pollUntil waits for cond with an explicit deadline (promotions take a
// lease TTL plus an election window; waitFor's two seconds can be
// tight under -race).
func pollUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationEndToEnd streams a primary's writes to a live
// follower over the wire: the follower serves reads behind a waitlsn
// barrier, reports its role in stats, and refuses writes with
// ENOTPRIMARY naming the primary.
func TestReplicationEndToEnd(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)

	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.Mkdir("/work", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/data", []byte("replicated payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != replica.RolePrimary || st.AppliedLSN == 0 {
		t.Fatalf("primary stats = role %q lsn %d", st.Role, st.AppliedLSN)
	}

	// Bounded-staleness read: wait for the primary's horizon, then read.
	fcl := adminClient(t, follower.srv, ClientOptions{})
	applied, err := fcl.WaitLSN(st.AppliedLSN, 2*time.Second)
	if err != nil {
		t.Fatalf("waitlsn: %v", err)
	}
	if applied < st.AppliedLSN {
		t.Fatalf("waitlsn reported %d, want >= %d", applied, st.AppliedLSN)
	}
	data, err := fcl.GetFile("/work/data")
	if err != nil || string(data) != "replicated payload" {
		t.Fatalf("follower read = %q, %v", data, err)
	}
	fst, err := fcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != replica.RoleFollower {
		t.Fatalf("follower stats role = %q", fst.Role)
	}

	// Writes against the follower are refused, naming the primary.
	err = fcl.Mkdir("/nope", 0o755)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower write = %v, want ErrNotPrimary", err)
	}
	if _, re := classOf(err); re.Primary != primary.addr {
		t.Fatalf("ENOTPRIMARY names primary %q, want %q", re.Primary, primary.addr)
	}

	// Semi-sync: the follower has acked the durable horizon (the write
	// replies above already waited on it).
	if acked := primary.pub.MaxAcked(); acked < st.AppliedLSN {
		t.Fatalf("follower acked %d, want >= %d", acked, st.AppliedLSN)
	}
	if groups := primary.reg.Counter(replica.MetricGroupsShipped).Value(); groups < 2 {
		t.Fatalf("%s = %d, want >= 2", replica.MetricGroupsShipped, groups)
	}
	// The standalone server answers waitlsn with 0 (no replication).
	srv, _, _ := testServer(t)
	scl := adminClient(t, srv, ClientOptions{})
	if applied, err := scl.WaitLSN(42, time.Second); err != nil || applied != 0 {
		t.Fatalf("standalone waitlsn = %d, %v", applied, err)
	}
	if sst, err := scl.Stats(); err != nil || sst.Role != "" {
		t.Fatalf("standalone stats role = %q, %v", sst.Role, err)
	}
}

// TestWaitLSNTimeoutIsDeadline: a waitlsn whose horizon does not
// arrive in time answers EDEADLINE — the read barrier's budget ran out —
// with the follower's account of its horizon in the message.
func TestWaitLSNTimeoutIsDeadline(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	fcl := adminClient(t, follower.srv, ClientOptions{})
	_, err := fcl.WaitLSN(1<<40, 20*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("waitlsn past the horizon = %v, want EDEADLINE", err)
	}
	if _, re := classOf(err); re.Name != "EDEADLINE" || !strings.Contains(re.Message, "short of demanded lsn") {
		t.Fatalf("waitlsn refusal = %v, want EDEADLINE naming the horizon", err)
	}
}

// TestFollowerBootstrapFromSnapshot compacts the primary before the
// follower ever subscribes, forcing the snapshot path.
func TestFollowerBootstrapFromSnapshot(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.PutFile("/pre-compaction", []byte("early history"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := primary.store.Compact(); err != nil {
		t.Fatal(err)
	}
	follower := startReplMember(t, "vol", "", primary.addr)
	fcl := adminClient(t, follower.srv, ClientOptions{})
	// The follower serves before its node has loaded the snapshot; a
	// read of the bootstrapped state waits for the primary's horizon.
	pst, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fcl.WaitLSN(pst.AppliedLSN, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	data, err := fcl.GetFile("/pre-compaction")
	if err != nil || string(data) != "early history" {
		t.Fatalf("bootstrapped read = %q, %v", data, err)
	}
	// And the live stream still works past the snapshot.
	if err := cl.PutFile("/post-snapshot", []byte("later"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fcl.WaitLSN(st.AppliedLSN, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if data, err := fcl.GetFile("/post-snapshot"); err != nil || string(data) != "later" {
		t.Fatalf("post-snapshot read = %q, %v", data, err)
	}
}

// TestFollowerRejoinsThroughSnapshot cuts a stalled follower loose
// while its primary compacts past the follower's applied LSN. Without
// a restart the follower resubscribes, loads the primary's snapshot
// into the file system its kernel and server already serve, and then
// serves a file written after the compaction.
func TestFollowerRejoinsThroughSnapshot(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })
	cl := adminClient(t, primary.srv, ClientOptions{})
	fcl := adminClient(t, follower.srv, ClientOptions{})
	fs := follower.store.FS()
	if err := cl.PutFile("/before", []byte("streamed"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Stall the follower and flood the primary's file system directly
	// (no semi-sync wait), one commit group per write, until the
	// publisher cuts the follower loose: the socket's buffers and the
	// subscriber's queue are both full.
	follower.streamGate.Lock()
	gated := true
	defer func() {
		if gated {
			follower.streamGate.Unlock()
		}
	}()
	chunk := bytes.Repeat([]byte("f"), 64<<10)
	for i := 0; primary.pub.Subscribers() != 0; i++ {
		if i == 5000 {
			t.Fatal("the stalled follower was never cut loose")
		}
		if err := primary.store.FS().WriteFile("/flood", chunk, 0o644, "owner"); err != nil {
			t.Fatal(err)
		}
		if err := primary.store.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.store.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/after", []byte("past the compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if applied := follower.store.AppliedLSN(); applied >= st.AppliedLSN {
		t.Fatalf("stalled follower applied %d, primary at %d", applied, st.AppliedLSN)
	}

	gated = false
	follower.streamGate.Unlock()
	if _, err := fcl.WaitLSN(st.AppliedLSN, 10*time.Second); err != nil {
		t.Fatalf("follower did not rejoin: %v", err)
	}
	for path, want := range map[string]string{"/before": "streamed", "/after": "past the compaction"} {
		if data, err := fcl.GetFile(path); err != nil || string(data) != want {
			t.Fatalf("follower read of %s = %q, %v", path, data, err)
		}
	}
	if follower.store.FS() != fs {
		t.Fatal("the snapshot load replaced the file system the server holds")
	}
	if follower.role() != replica.RoleFollower {
		t.Fatalf("follower role = %s", follower.role())
	}
}

// TestUnfollowedFollowerNeverClaims: a follower whose primary has been
// unreachable since it started keeps re-dialling and never claims the
// lease, although nobody holds it: its state may be arbitrarily stale.
func TestUnfollowedFollowerNeverClaims(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	follower := startReplMember(t, "vol", cat.Addr(), freePort(t))
	fcl := adminClient(t, follower.srv, ClientOptions{})
	// Several lease terms: a follower that stood for election would
	// have won the free lease and promoted within one.
	deadline := time.Now().Add(8 * replTTL)
	for time.Now().Before(deadline) {
		if holder, _ := cat.LeaseHolder("vol"); holder != "" {
			t.Fatalf("lease claimed by %s", holder)
		}
		if follower.role() != replica.RoleFollower {
			t.Fatalf("follower became %s", follower.role())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := follower.reg.Counter(replica.MetricPromotions).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", replica.MetricPromotions, got)
	}
	// It serves meanwhile, and refuses writes.
	if _, err := fcl.Whoami(); err != nil {
		t.Fatalf("read against the unfollowed follower: %v", err)
	}
	if err := fcl.Mkdir("/nope", 0o755); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("write against the unfollowed follower = %v, want ErrNotPrimary", err)
	}
}

// TestPromotionOnPrimaryKill is the basic failover: the primary dies,
// the follower takes the lease within roughly one TTL, accepts writes
// under the new epoch, and replays acked tokened requests from its
// replicated dedupe journal instead of re-executing them.
func TestPromotionOnPrimaryKill(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	primary := startReplMember(t, "vol", cat.Addr(), "")
	follower := startReplMember(t, "vol", cat.Addr(), primary.addr)
	pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.Mkdir("/work", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/sim.exe", kernel.ExecutableBytes("sim"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/work/input.dat", []byte("signal data"), 0o644); err != nil {
		t.Fatal(err)
	}
	token := NewRequestToken()
	res, err := cl.ExecToken(token, "/work", "/work/sim.exe")
	if err != nil || res.Code != 0 {
		t.Fatalf("exec = %+v, %v", res, err)
	}
	if primary.execs.Load() != 1 {
		t.Fatalf("primary execs = %d", primary.execs.Load())
	}
	_, oldEpoch := primary.node.Role()

	killed := time.Now()
	primary.kill()
	pollUntil(t, 10*replTTL, "follower promotion", func() bool { return follower.role() == replica.RolePrimary })
	t.Logf("promotion %v after the kill (lease ttl %v)", time.Since(killed), replTTL)

	if got := follower.reg.Counter(replica.MetricPromotions).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", replica.MetricPromotions, got)
	}
	fcl := adminClient(t, follower.srv, ClientOptions{})
	fst, err := fcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Role != replica.RolePrimary || fst.Epoch <= oldEpoch {
		t.Fatalf("promoted stats = role %q epoch %d (old epoch %d)", fst.Role, fst.Epoch, oldEpoch)
	}

	// Every acked mutation survived the failover.
	if data, err := fcl.GetFile("/work/out.dat"); err != nil || string(data) != "SIGNAL DATA" {
		t.Fatalf("acked exec output after failover = %q, %v", data, err)
	}
	// The tokened retry replays from the replicated dedupe journal.
	res2, err := fcl.ExecToken(token, "/work", "/work/sim.exe")
	if err != nil || res2.Code != res.Code {
		t.Fatalf("retried exec = %+v, %v", res2, err)
	}
	if follower.execs.Load() != 0 {
		t.Fatalf("tokened retry re-executed on the promoted follower (%d times)", follower.execs.Load())
	}
	// And the promoted primary accepts fresh writes.
	if err := fcl.PutFile("/work/after.txt", []byte("new epoch"), 0o644); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
}

// TestPromotionAfterCatalogRestart: a follower claims with the epoch
// its store applied from the primary's stream, not only the one a lease
// answer told it. After the catalog restarts and forgets the lease, and
// the primary dies, the follower's grant is therefore above its store's
// epoch, and it promotes; claiming with its starting epoch would be
// granted the epoch it already applied, which the store refuses.
func TestPromotionAfterCatalogRestart(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := cat.Addr()
	primary := startReplMember(t, "vol", addr, "")
	follower := startReplMember(t, "vol", addr, primary.addr)
	pollUntil(t, 10*replTTL, "the follower applying the primary's epoch", func() bool {
		_, epoch := primary.node.Role()
		return epoch > 0 && follower.store.Epoch() == epoch
	})
	_, oldEpoch := primary.node.Role()

	cat.Close()
	primary.kill()
	restarted := NewCatalog()
	restarted.LeaseTTL = replTTL
	if err := restarted.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()

	pollUntil(t, 20*replTTL, "follower promotion", func() bool { return follower.role() == replica.RolePrimary })
	if _, epoch := follower.node.Role(); epoch <= oldEpoch {
		t.Fatalf("promoted at epoch %d, want above the old primary's %d", epoch, oldEpoch)
	}
	if holder, _ := restarted.LeaseHolder("vol"); holder != follower.addr {
		t.Fatalf("lease holder = %q, want the follower %s", holder, follower.addr)
	}
}

// TestFencingAfterPartitionHeals: a deposed primary coming back finds
// the lease held at a higher epoch, fences itself (refusing writes and
// naming the real primary), and its stale stream cannot apply — the
// epoch check rejects replication from a fenced source.
func TestFencingAfterPartitionHeals(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// A holds the lease first.
	a := startReplMember(t, "vol", cat.Addr(), "")
	pollUntil(t, 2*time.Second, "A holding the lease", func() bool {
		holder, _ := cat.LeaseHolder("vol")
		return holder == a.addr
	})
	// B boots believing it is also a primary (a healed partition where
	// both sides kept primary state). Its first claim is denied: fenced.
	b := startReplMember(t, "vol", cat.Addr(), "")
	pollUntil(t, 10*replTTL, "B fenced", func() bool { return b.role() == replica.RoleFenced })

	bcl := adminClient(t, b.srv, ClientOptions{})
	err := bcl.Mkdir("/split-brain", 0o755)
	if !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("fenced write = %v, want ErrNotPrimary", err)
	}
	if _, re := classOf(err); re.Primary != a.addr {
		t.Fatalf("fenced refusal names %q, want %q", re.Primary, a.addr)
	}
	// Reads still serve (the fenced state is stale, not gone).
	if _, err := bcl.Whoami(); err != nil {
		t.Fatalf("read against fenced member: %v", err)
	}
	// The fence is sticky: even with A's renewals stopped and the lease
	// expired, B refuses a re-grant — its log may have diverged.
	a.kill()
	time.Sleep(3 * replTTL)
	if b.role() != replica.RoleFenced {
		t.Fatalf("fenced node resumed as %s after the lease freed", b.role())
	}

	// A stale-epoch stream cannot apply: a follower that adopted epoch N
	// rejects batches stamped with an older term.
	f, err := durable.Open(t.TempDir(), durable.Options{Owner: "owner", SyncEveryN: 1, ReplicaMode: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frames, first, last, _, err := a.store.WALTailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(5, first, last, frames); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyReplicated(3, last+1, last+1, frames); !errors.Is(err, durable.ErrStaleEpoch) {
		t.Fatalf("stale-epoch apply = %v, want ErrStaleEpoch", err)
	}
}

// TestReplicationStatsAndMetrics: the replication series land in the
// registry exposition — lag gauge, applied LSN, subscriber gauge.
func TestReplicationStatsAndMetrics(t *testing.T) {
	primary := startReplMember(t, "vol", "", "")
	follower := startReplMember(t, "vol", "", primary.addr)
	pollUntil(t, 2*time.Second, "subscription", func() bool { return primary.pub.Subscribers() == 1 })
	cl := adminClient(t, primary.srv, ClientOptions{})
	if err := cl.PutFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	text := primary.reg.Text()
	for _, name := range []string{replica.MetricGroupsShipped, replica.MetricBytesShipped, replica.MetricSubscribers, replica.MetricLag, replica.MetricAppliedLSN} {
		if !contains(text, name) {
			t.Errorf("primary exposition missing %s", name)
		}
	}
	ftext := follower.reg.Text()
	if !contains(ftext, replica.MetricAppliedLSN) {
		t.Errorf("follower exposition missing %s", replica.MetricAppliedLSN)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
