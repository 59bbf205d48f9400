package chirp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
)

// journaledServer opens (or recovers) a durable store in dir and serves
// it the way chirpd does with -state: the store is the server's dedupe
// table and its durability barrier. fsync is off — these tests count
// executions, not crashes. It returns the server, the store and the
// number of sim executions on this incarnation.
func journaledServer(t *testing.T, dir string) (*Server, *durable.Store, *atomic.Int64) {
	t.Helper()
	store, err := durable.Open(dir, durable.Options{Owner: "owner", SyncEveryN: -1})
	if err != nil {
		t.Fatal(err)
	}
	fs := store.FS()
	k := kernel.New(fs, vclock.Default())
	var execs atomic.Int64
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		execs.Add(1)
		return 0
	})
	if !fs.Exists("/sim.exe") {
		if err := fs.WriteFile("/sim.exe", kernel.ExecutableBytes("sim"), 0o755, "owner"); err != nil {
			t.Fatal(err)
		}
	}
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := NewServer(k, ServerOptions{
		Owner:         "owner",
		RootACL:       rootACL,
		Verifiers:     map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		DedupeJournal: store,
		Durability:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })
	return srv, store, &execs
}

// TestExactlyOnceAcrossRestart: every token a journaled server answered
// replays after a restart, however many there were. The recovered store
// answers retries itself; a server that copied it into its 1 024-entry
// in-memory table kept a random subset and re-executed the rest.
func TestExactlyOnceAcrossRestart(t *testing.T) {
	const n = 1100
	dir := t.TempDir()
	srv, store, execs := journaledServer(t, dir)
	cl := adminClient(t, srv, ClientOptions{})
	tokens := make([]string, n)
	for i := range tokens {
		tokens[i] = NewRequestToken()
		if _, err := cl.ExecToken(tokens[i], "/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != n {
		t.Fatalf("sim ran %d times, want %d", got, n)
	}
	cl.Close()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, store2, execs2 := journaledServer(t, dir)
	if got := store2.Recovery().DedupeEntries; got != n {
		t.Fatalf("recovery found %d dedupe entries, want %d", got, n)
	}
	cl2 := adminClient(t, srv2, ClientOptions{})
	for _, token := range tokens {
		if _, err := cl2.ExecToken(token, "/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs2.Load(); got != 0 {
		t.Fatalf("%d of %d retried tokens re-executed after the restart, want 0", got, n)
	}
}

// TestExactlyOnceOnFollowerAndPromotion: a follower's store applies the
// primary's dedupe records with the rest of the log, so a retry sent to
// the follower replays the recorded reply instead of being refused
// ENOTPRIMARY, and once the follower is promoted the same retry replays
// with nothing copied into the server at promotion.
func TestExactlyOnceOnFollowerAndPromotion(t *testing.T) {
	cat := NewCatalog()
	cat.LeaseTTL = replTTL
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	bothWindows(t, func(t *testing.T, win int) {
		name := fmt.Sprintf("vol-w%d", win) // one lease per subtest
		primary := startReplMember(t, name, cat.Addr(), "")
		follower := startReplMember(t, name, cat.Addr(), primary.addr)
		pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

		cl := adminClient(t, primary.srv, ClientOptions{Window: win})
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
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}

		fcl := adminClient(t, follower.srv, ClientOptions{Window: win})
		if _, err := fcl.WaitLSN(st.AppliedLSN, 2*time.Second); err != nil {
			t.Fatalf("waitlsn: %v", err)
		}
		if got, err := fcl.ExecToken(token, "/work", "/work/sim.exe"); err != nil || got != res {
			t.Fatalf("retry on the follower = %+v, %v; want replay of %+v", got, err, res)
		}

		primary.kill()
		pollUntil(t, 10*replTTL, "follower promotion", func() bool { return follower.role() == replica.RolePrimary })
		if got, err := fcl.ExecToken(token, "/work", "/work/sim.exe"); err != nil || got != res {
			t.Fatalf("retry on the promoted follower = %+v, %v; want replay of %+v", got, err, res)
		}
		if n := follower.execs.Load(); n != 0 {
			t.Fatalf("follower ran sim %d times, want 0", n)
		}
	})
}
