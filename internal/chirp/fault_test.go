package chirp

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/faultnet"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/parrot"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// readThrough reads the whole of path through d's read-only open, the
// call a failover driver routes by its read rule.
func readThrough(p *kernel.Proc, d parrot.Driver, path string) ([]byte, error) {
	f, err := d.Open(p, path, kernel.ORdonly, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	n, err := f.ReadAt(buf, 0)
	return buf[:n], err
}

// waitFor polls cond until it holds or a two-second deadline expires —
// for effects that land on a server goroutine after the client already
// saw an injected fault.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// bothWindows runs fn twice, at both ends of the client's credit
// window: every guarantee the suites check must hold whether a session
// keeps one call in flight or pipelines. Subtest "v1" passes win 1, the
// lock-step exchange (the serial chunk path, replies in request order)
// that the retired v1 line framing gave and whose name the subtest
// keeps; "v2" passes 0, the default window. win goes into
// ClientOptions.Window.
func bothWindows(t *testing.T, fn func(t *testing.T, win int)) {
	for _, w := range []struct {
		name string
		win  int
	}{{"v1", 1}, {"v2", 0}} {
		t.Run(w.name, func(t *testing.T) { fn(t, w.win) })
	}
}

// replyLoser is a dialer wrapper that loses exactly one reply: once
// armed, the next bytes the server sends are dropped and the connection
// dies — the request reached the server and ran, its answer never
// reaches the client. faultnet decides read faults on entry to Read, so
// it cannot touch a reader already parked there (the client's reply
// loop); this drops on the way out instead.
type replyLoser struct{ armed atomic.Bool }

func (l *replyLoser) loseNext() { l.armed.Store(true) }

func (l *replyLoser) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &lossyConn{Conn: c, l: l}, nil
}

type lossyConn struct {
	net.Conn
	l *replyLoser
}

func (c *lossyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("injected: reply lost")
	}
	return n, err
}

// dialAs dials srv as a with opts; the client is closed when the test
// ends.
func dialAs(t *testing.T, srv *Server, a auth.Authenticator, opts ClientOptions) *Client {
	t.Helper()
	return dialOn(t, srv, a, opts, wallClock{})
}

// dialOn is dialAs with the client on clk.
func dialOn(t *testing.T, srv *Server, a auth.Authenticator, opts ClientOptions, clk clock) *Client {
	t.Helper()
	cl, err := dialOpts(srv.Addr(), []auth.Authenticator{a}, opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// adminClient dials as unix:admin (rwlax at the root, and the shortest
// auth handshake — fault schedules key on client-written bytes).
func adminClient(t *testing.T, srv *Server, opts ClientOptions) *Client {
	return dialAs(t, srv, &auth.UnixClient{User: "admin"}, opts)
}

// adminClientOn is adminClient with the client on clk.
func adminClientOn(t *testing.T, srv *Server, opts ClientOptions, clk clock) *Client {
	return dialOn(t, srv, &auth.UnixClient{User: "admin"}, opts, clk)
}

// registerSim installs the Figure-3 simulation program: reads its
// staged input, writes out.dat uppercased.
func registerSim(k *kernel.Kernel) {
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		if err := p.WriteFile("out.dat", bytes.ToUpper(in), 0o644); err != nil {
			return 2
		}
		return 0
	})
}

// figure3Workflow runs the full Figure-3 sequence (reserve /work, stage
// sim.exe and input, remote exec, fetch out.dat) and returns the first
// error. Exec carries a request token, the documented opt-in for
// retrying job submission.
func figure3Workflow(cl *Client) error {
	if err := cl.Mkdir("/work", 0o755); err != nil {
		return err
	}
	if err := cl.PutFile("/work/sim.exe", kernel.ExecutableBytes("sim"), 0o755); err != nil {
		return err
	}
	if err := cl.PutFile("/work/input.dat", []byte("signal data"), 0o644); err != nil {
		return err
	}
	res, err := cl.ExecToken(NewRequestToken(), "/work", "/work/sim.exe")
	if err != nil {
		return err
	}
	if res.Code != 0 {
		return errors.New("exec exit code nonzero")
	}
	out, err := cl.GetFile("/work/out.dat")
	if err != nil {
		return err
	}
	if string(out) != "SIGNAL DATA" {
		return errors.New("out.dat content wrong")
	}
	return nil
}

// chaosSchedule is the seeded acceptance schedule: every 3rd connection
// is reset on its first write (it never even authenticates), and every
// connection is reset at its 7th write. The client writes each request
// whole, in one write, after an authentication of two writes and the
// version exchange, so the 7th write is a request: a connection carries
// at most three of the workflow's five requests (the tokened exec is
// reset), while what is left after one redial always fits.
func chaosSchedule() *faultnet.Injector {
	return faultnet.New(7,
		faultnet.Rule{EveryNth: 3, Op: faultnet.OpWrite, Action: faultnet.Reset},
		faultnet.Rule{Op: faultnet.OpWrite, AfterOps: 7, Action: faultnet.Reset},
	)
}

// TestFigure3UnderFaults is the acceptance test: under the seeded chaos
// schedule the retrying client completes the full Figure-3 workflow
// with no caller-visible errors, while the same schedule with retries
// disabled fails — at either window.
func TestFigure3UnderFaults(t *testing.T) {
	t.Run("retries-on", func(t *testing.T) {
		bothWindows(t, func(t *testing.T, win int) {
			srv, k, _ := testServer(t)
			registerSim(k)
			inj := chaosSchedule()
			cl := adminClient(t, srv, ClientOptions{Dialer: inj.Dialer("tcp"), Window: win})
			if err := figure3Workflow(cl); err != nil {
				t.Fatalf("workflow under faults: %v", err)
			}
			if inj.ConnCount() < 2 {
				t.Fatalf("ConnCount = %d; the schedule should have forced redials", inj.ConnCount())
			}
			text := cl.LocalMetrics().Text()
			for _, name := range []string{MetricClientRetries, MetricClientRedials, MetricClientBreakerState} {
				if !strings.Contains(text, name) {
					t.Errorf("client exposition missing %s", name)
				}
			}
			if !strings.Contains(text, MetricClientRetries+" ") || strings.Contains(text, MetricClientRetries+" 0\n") {
				t.Errorf("no retries recorded under the chaos schedule:\n%s", text)
			}
		})
	})
	t.Run("retries-off", func(t *testing.T) {
		bothWindows(t, func(t *testing.T, win int) {
			srv, k, _ := testServer(t)
			registerSim(k)
			inj := chaosSchedule()
			cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}},
				ClientOptions{Dialer: inj.Dialer("tcp"), MaxRetries: -1, Window: win})
			if err != nil {
				return // even the dial may die; that also demonstrates the point
			}
			t.Cleanup(func() { cl.Close() })
			if err := figure3Workflow(cl); err == nil {
				t.Fatal("workflow succeeded with retries disabled under the chaos schedule")
			}
		})
	})
}

// TestRetryTransparentForIdempotent kills the connection during the
// request write and loses the reply of idempotent RPCs and expects
// transparent success, including the lost-reply mkdir/unlink cases
// where the retry observes the first attempt's effect.
func TestRetryTransparentForIdempotent(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		inj := faultnet.New(1)
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Window: win, Dialer: func(addr string) (net.Conn, error) {
			c, err := loser.dial(addr)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(c), nil
		}})
		if err := cl.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := cl.PutFile("/d/f", []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}

		// Kill during the request write: the server never saw the call.
		inj.InjectOnce(faultnet.OpWrite, 0, faultnet.Reset, 0)
		if st, err := cl.Stat("/d/f"); err != nil || st.Size != 4 {
			t.Fatalf("stat with send fault = %+v, %v", st, err)
		}
		// Lose the reply: the server executed, the client never hears.
		loser.loseNext()
		if st, err := cl.Lstat("/d/f"); err != nil || st.Size != 4 {
			t.Fatalf("lstat with reply fault = %+v, %v", st, err)
		}
		// Lost-reply mkdir: the retry sees EEXIST from its own first
		// attempt and reports success.
		loser.loseNext()
		if err := cl.Mkdir("/d/sub", 0o755); err != nil {
			t.Fatalf("mkdir with reply fault = %v", err)
		}
		if _, err := cl.Stat("/d/sub"); err != nil {
			t.Fatalf("mkdir did not take effect: %v", err)
		}
		// Lost-reply unlink: the retry sees ENOENT and reports success.
		loser.loseNext()
		if err := cl.Unlink("/d/f"); err != nil {
			t.Fatalf("unlink with reply fault = %v", err)
		}
		if _, err := cl.Stat("/d/f"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("unlink did not take effect: %v", err)
		}
		if got := cl.LocalMetrics().Counter(MetricClientRedials).Value(); got != 4 {
			t.Fatalf("redials = %d, want 4 (one per injected fault)", got)
		}
	})
}

// TestRetryNotSafeForMutating loses the reply of non-idempotent RPCs
// and expects the typed refusal — with the first attempt's effect
// visible, proving the client was right not to re-send blindly.
func TestRetryNotSafeForMutating(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		var execs atomic.Int64
		k.RegisterProgram("cnt", func(p *kernel.Proc, _ []string) int {
			execs.Add(1)
			return 0
		})
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Dialer: loser.dial, Window: win})
		if err := cl.PutFile("/a", []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		// rename with a lost reply: refused, yet the rename happened.
		loser.loseNext()
		if err := cl.Rename("/a", "/b"); !errors.Is(err, ErrRetryNotSafe) {
			t.Fatalf("rename with reply fault = %v, want ErrRetryNotSafe", err)
		}
		if _, err := cl.Stat("/b"); err != nil {
			t.Fatalf("the refused rename's first attempt did not land: %v", err)
		}
		// exec without a token: same refusal, and the job ran exactly once.
		if err := cl.PutFile("/cnt.exe", kernel.ExecutableBytes("cnt"), 0o755); err != nil {
			t.Fatal(err)
		}
		loser.loseNext()
		if _, err := cl.Exec("/", "/cnt.exe"); !errors.Is(err, ErrRetryNotSafe) {
			t.Fatalf("exec with reply fault = %v, want ErrRetryNotSafe", err)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("exec ran %d times, want exactly 1", n)
		}
		if got := cl.LocalMetrics().Counter(MetricClientRetryUnsafe).Value(); got != 2 {
			t.Fatalf("retry-unsafe counter = %d, want 2", got)
		}
	})
}

// TestRetryTokenDedupe opts job submission into retry with a request
// token: the reply is lost, the client re-sends over a fresh session,
// and the server answers from its dedupe table instead of running the
// job twice.
func TestRetryTokenDedupe(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		var execs atomic.Int64
		k.RegisterProgram("cnt", func(p *kernel.Proc, _ []string) int {
			execs.Add(1)
			return 0
		})
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Dialer: loser.dial, Window: win})
		if err := cl.PutFile("/cnt.exe", kernel.ExecutableBytes("cnt"), 0o755); err != nil {
			t.Fatal(err)
		}
		token := NewRequestToken()
		loser.loseNext()
		res, err := cl.ExecToken(token, "/", "/cnt.exe")
		if err != nil || res.Code != 0 {
			t.Fatalf("tokened exec under reply fault = %+v, %v", res, err)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("tokened exec ran %d times, want exactly 1 (dedupe)", n)
		}
		// An explicit duplicate submission replays the reply too.
		res2, err := cl.ExecToken(token, "/", "/cnt.exe")
		if err != nil || res2 != res {
			t.Fatalf("duplicate tokened exec = %+v, %v; want replay of %+v", res2, err, res)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("after duplicate: ran %d times, want 1", n)
		}
		text, err := cl.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, MetricDedupeHits+" 2") {
			t.Fatalf("server exposition should show 2 dedupe hits:\n%s", text)
		}
		if !strings.Contains(text, MetricDedupeEntries+" 1") {
			t.Fatalf("server exposition should show 1 dedupe entry:\n%s", text)
		}
	})
}

// TestRetryBackoffSchedule records the sleeps the retry loop takes
// against a dead server: capped exponential, half fixed + half jitter,
// so sleep n lands in [d/2, d] for d = min(retryBase<<(n-1), retryMax).
// Seven retries reach the cap.
func TestRetryBackoffSchedule(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		clk := newFakeClock()
		cl := adminClientOn(t, srv, ClientOptions{Window: win, MaxRetries: 7}, clk)
		srv.Close()
		if _, err := cl.Whoami(); err == nil {
			t.Fatal("whoami against a closed server should fail")
		}
		sleeps := clk.sleeps()
		want := []time.Duration{retryBase, 2 * retryBase, 4 * retryBase, 8 * retryBase, 16 * retryBase, 32 * retryBase, retryMax}
		if len(sleeps) != len(want) {
			t.Fatalf("recorded %d sleeps, want %d (MaxRetries)", len(sleeps), len(want))
		}
		for i, d := range sleeps {
			if d < want[i]/2 || d > want[i] {
				t.Errorf("sleep %d = %v, want in [%v, %v]", i+1, d, want[i]/2, want[i])
			}
		}
	})
}

// TestRetryBreakerFailsFast trips the circuit breaker against a dead
// server and expects subsequent calls to fail fast with the typed
// error, without redial attempts.
func TestRetryBreakerFailsFast(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		// The fake clock moves only by the backoff sleeps, well short
		// of the cool-off.
		cl := adminClientOn(t, srv, ClientOptions{Window: win, BreakerThreshold: 2}, newFakeClock())
		srv.Close()
		if _, err := cl.Whoami(); err == nil {
			t.Fatal("whoami against a closed server should fail")
		}
		if cl.Breaker().State() != BreakerOpen {
			t.Fatalf("breaker state = %v, want open", cl.Breaker().State())
		}
		if _, err := cl.Stat("/"); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("call with open breaker = %v, want ErrBreakerOpen", err)
		}
		text := cl.LocalMetrics().Text()
		if !strings.Contains(text, MetricClientBreakerOpens+" 1") {
			t.Fatalf("exposition should show one breaker open:\n%s", text)
		}
		if !strings.Contains(text, MetricClientBreakerState+" 1") {
			t.Fatalf("exposition should show breaker state 1 (open):\n%s", text)
		}
	})
}

// TestRetryCloseAfterFault is the satellite Close fix: closing a client
// whose transport already failed must not surface the farewell write
// error, and double-close is a no-op.
func TestRetryCloseAfterFault(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClientOn(t, srv, ClientOptions{Window: win, MaxRetries: 1}, newFakeClock())
		srv.Close()
		if _, err := cl.Whoami(); err == nil {
			t.Fatal("whoami against a closed server should fail")
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("close of a broken client = %v, want nil (no quit-error masking)", err)
		}
		if err := cl.Close(); err != nil {
			t.Fatalf("double close = %v, want nil", err)
		}
		if _, err := cl.Whoami(); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("call after close = %v, want ErrClientClosed", err)
		}
	})
}

func TestRetryDedupeTableBounded(t *testing.T) {
	m := newSrvMetrics(obs.NewRegistry())
	tbl := newDedupeTable(4, dedupeTableBytes, m)
	for i := 0; i < 6; i++ {
		tbl.AppendDedupe(dedupeKey("u", string(rune('a'+i))), []string{"ok", "1"})
	}
	if size := m.dedupeEntries.Value(); size != 4 {
		t.Fatalf("table size = %d, want cap 4", size)
	}
	// The two oldest were evicted; the newest survive.
	if _, hit := tbl.LookupDedupe(dedupeKey("u", "a")); hit {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, hit := tbl.LookupDedupe(dedupeKey("u", "f")); !hit {
		t.Fatal("newest entry should be present")
	}
	// Keys are principal-scoped: another principal's token misses.
	if _, hit := tbl.LookupDedupe(dedupeKey("v", "f")); hit {
		t.Fatal("token must not cross principals")
	}
}

// TestFailoverReadsToReplica serves a replicated name through the
// failover driver: with the primary dead and its breaker open, reads
// come from the replica and writes degrade with the typed error.
func TestFailoverReadsToReplica(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv1, _, _ := testServer(t)
		srv2, _, _ := testServer(t)
		// Each client's fake clock moves only by its own backoff
		// sleeps, so an open breaker stays open.
		fast := ClientOptions{Window: win, MaxRetries: 1, BreakerThreshold: 1}
		c1 := adminClientOn(t, srv1, fast, newFakeClock())
		c2 := adminClientOn(t, srv2, fast, newFakeClock())
		for cl, tag := range map[*Client]string{c1: "from-primary", c2: "from-replica"} {
			if err := cl.Mkdir("/pub", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := cl.PutFile("/pub/data", []byte(tag), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var notes []string
		fd := NewFailoverDriver(
			[]*Driver{NewDriver(c1, vclock.Default()), NewDriver(c2, vclock.Default())},
			func(s string) { notes = append(notes, s) })

		fs := vfs.New("dthain")
		k := kernel.New(fs, vclock.Default())
		box, err := core.New(k, "dthain", "unix:admin", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := box.Run(func(p *kernel.Proc, _ []string) int {
			// Healthy: the primary serves.
			data, err := readThrough(p, fd, "/pub/data")
			if err != nil || string(data) != "from-primary" {
				t.Errorf("healthy read = %q, %v", data, err)
				return 1
			}
			srv1.Close() // the primary dies
			// The read fails over to the replica (and opens c1's breaker).
			data, err = readThrough(p, fd, "/pub/data")
			if err != nil || string(data) != "from-replica" {
				t.Errorf("failover read = %q, %v", data, err)
				return 2
			}
			// With the breaker open, reads skip the primary outright.
			data, err = readThrough(p, fd, "/pub/data")
			if err != nil || string(data) != "from-replica" {
				t.Errorf("breaker-open read = %q, %v", data, err)
				return 3
			}
			// Writes never fail over: degraded, typed.
			err = fd.WriteFileSmall(p, "/pub/new", []byte("x"), 0o644)
			if !errors.Is(err, ErrDegraded) {
				t.Errorf("degraded write = %v, want ErrDegraded", err)
				return 4
			}
			// A writable open is a write, even without create or truncate.
			for _, flags := range []int{kernel.OWronly, kernel.ORdwr} {
				if _, err := fd.Open(p, "/pub/data", flags, 0); !errors.Is(err, ErrDegraded) {
					t.Errorf("open with flags %#o = %v, want ErrDegraded", flags, err)
					return 5
				}
			}
			// O_RDONLY|O_TRUNC truncates nothing: a read, served by the replica.
			f, err := fd.Open(p, "/pub/data", kernel.ORdonly|kernel.OTrunc, 0)
			if err != nil {
				t.Errorf("O_RDONLY|O_TRUNC open = %v, want the replica to serve it", err)
				return 6
			}
			f.Close()
			if data, err := readThrough(p, fd, "/pub/data"); err != nil || string(data) != "from-replica" {
				t.Errorf("read after the O_RDONLY|O_TRUNC open = %q, %v; want it unchanged", data, err)
				return 7
			}
			return 0
		})
		if st.Code != 0 {
			t.Fatalf("box run exit %d", st.Code)
		}
		if c1.Breaker().State() != BreakerOpen {
			t.Fatalf("primary breaker = %v, want open", c1.Breaker().State())
		}
		if len(notes) == 0 {
			t.Fatal("failover decisions should land in the audit note hook")
		}
	})
}

// TestFailoverReadRejoinsAfterCooloff: a primary whose breaker tripped
// rejoins reads once the cooloff elapses, with no background loop — the
// MountAll path starts none. The read after the cooloff is the breaker's
// half-open probe; it lands on the primary and closes the breaker.
func TestFailoverReadRejoinsAfterCooloff(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv1, _, _ := testServer(t)
		srv2, _, _ := testServer(t)
		opts := ClientOptions{Window: win, BreakerThreshold: 1}
		clk := newFakeClock()
		c1 := adminClientOn(t, srv1, opts, clk)
		c2 := adminClient(t, srv2, opts)
		for cl, tag := range map[*Client]string{c1: "from-primary", c2: "from-replica"} {
			if err := cl.Mkdir("/pub", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := cl.PutFile("/pub/data", []byte(tag), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fd := NewFailoverDriver(
			[]*Driver{NewDriver(c1, vclock.Default()), NewDriver(c2, vclock.Default())}, nil)
		box, err := core.New(kernel.New(vfs.New("dthain"), vclock.Default()), "dthain", "unix:admin", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		read := func() string {
			var data []byte
			var rerr error
			box.Run(func(p *kernel.Proc, _ []string) int {
				data, rerr = readThrough(p, fd, "/pub/data")
				return 0
			})
			if rerr != nil {
				t.Fatalf("read through the failover driver: %v", rerr)
			}
			return string(data)
		}
		c1.Breaker().Fail() // one failure trips a threshold-1 breaker
		if got := read(); got != "from-replica" {
			t.Fatalf("read with the primary's breaker open = %q, want from-replica", got)
		}
		clk.advance(breakerCooloff - time.Millisecond)
		if got := read(); got != "from-replica" {
			t.Fatalf("read just inside the cooloff = %q, want from-replica", got)
		}
		clk.advance(time.Millisecond)
		if got := read(); got != "from-primary" {
			t.Fatalf("read after the cooloff = %q, want the primary to rejoin", got)
		}
		if st := c1.Breaker().State(); st != BreakerClosed {
			t.Fatalf("primary breaker after the probe = %v, want closed", st)
		}
	})
}

// mutedConn drops every write once muted is set, reporting it sent: the
// server never sees another request, so a client talking through it
// meets a primary that accepts connections and never answers.
type mutedConn struct {
	net.Conn
	muted *atomic.Bool
}

func (c mutedConn) Write(p []byte) (int, error) {
	if c.muted.Load() {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestFailoverBreakerSkipsHungPrimary is the client breaker's ablation
// row: a primary that accepts connections and never answers costs the
// failover driver one ClientOptions.Timeout. The read that waits it out
// trips the threshold-1 breaker, and the reads after it go straight to
// the replica: n of them in well under n timeouts, where without the
// breaker each would wait the timeout out again.
func TestFailoverBreakerSkipsHungPrimary(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		const timeout, n = 100 * time.Millisecond, 10
		srv1, _, _ := testServer(t)
		srv2, _, _ := testServer(t)
		opts := ClientOptions{
			Window:           win,
			Timeout:          timeout,
			MaxRetries:       -1,
			BreakerThreshold: 1,
		}
		c2 := adminClient(t, srv2, opts)
		var muted atomic.Bool
		opts.Dialer = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return mutedConn{c, &muted}, nil
		}
		// The primary's breaker runs on a fake clock that never moves:
		// it stays open however long the reads take.
		c1 := adminClientOn(t, srv1, opts, newFakeClock())
		for cl, tag := range map[*Client]string{c1: "from-primary", c2: "from-replica"} {
			if err := cl.Mkdir("/pub", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := cl.PutFile("/pub/data", []byte(tag), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fd := NewFailoverDriver(
			[]*Driver{NewDriver(c1, vclock.Default()), NewDriver(c2, vclock.Default())}, nil)
		box, err := core.New(kernel.New(vfs.New("dthain"), vclock.Default()), "dthain", "unix:admin", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		read := func() (string, time.Duration) {
			var data []byte
			var rerr error
			start := time.Now()
			box.Run(func(p *kernel.Proc, _ []string) int {
				data, rerr = readThrough(p, fd, "/pub/data")
				return 0
			})
			if rerr != nil {
				t.Fatalf("read through the failover driver: %v", rerr)
			}
			return string(data), time.Since(start)
		}
		if got, _ := read(); got != "from-primary" {
			t.Fatalf("healthy read = %q, want from-primary", got)
		}
		muted.Store(true)
		if got, took := read(); got != "from-replica" || took < timeout {
			t.Fatalf("first read of a hung primary = %q after %v, want from-replica after the %v timeout", got, took, timeout)
		}
		if st := c1.Breaker().State(); st != BreakerOpen {
			t.Fatalf("primary breaker after the timeout = %v, want open", st)
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			got, took := read()
			if got != "from-replica" {
				t.Fatalf("read %d with the breaker open = %q, want from-replica", i, got)
			}
			total += took
		}
		t.Logf("%d reads with the primary's breaker open took %v", n, total)
		if total >= n*timeout/2 {
			t.Fatalf("%d reads with the breaker open took %v, want well under %d × %v", n, total, n, timeout)
		}
	})
}

// TestFaultServerDrainFinishesInflight starts a slow exec, then drains:
// the in-flight job completes and new connections are refused.
func TestFaultServerDrainFinishesInflight(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		k.RegisterProgram("slow", func(p *kernel.Proc, _ []string) int {
			time.Sleep(150 * time.Millisecond)
			return 0
		})
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		if err := cl.PutFile("/slow.exe", kernel.ExecutableBytes("slow"), 0o755); err != nil {
			t.Fatal(err)
		}
		before := srv.Metrics().Text()
		if !strings.Contains(before, MetricDraining+" 0") {
			t.Fatalf("draining gauge should start at 0:\n%s", before)
		}
		type execOut struct {
			res ExecResult
			err error
		}
		done := make(chan execOut, 1)
		go func() {
			res, err := cl.Exec("/", "/slow.exe")
			done <- execOut{res, err}
		}()
		time.Sleep(50 * time.Millisecond) // let the exec reach the server
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Fatalf("graceful shutdown = %v", err)
		}
		out := <-done
		if out.err != nil || out.res.Code != 0 {
			t.Fatalf("in-flight exec across drain = %+v, %v", out.res, out.err)
		}
		if _, err := Dial(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}}); err == nil {
			t.Fatal("dial after drain should fail")
		}
		after := srv.Metrics().Text()
		if !strings.Contains(after, MetricDraining+" 1") {
			t.Fatalf("draining gauge should be 1 after shutdown:\n%s", after)
		}
	})
}

// TestFaultStalledRequestTimesOut checks the per-request read deadline
// on a payload: a client that announces a pwrite payload of 100 bytes in
// a frame and never sends it is disconnected.
func TestFaultStalledRequestTimesOut(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.opts.RequestTimeout = 100 * time.Millisecond
	conn, _ := rawV2Session(t, srv)
	line := "pwrite 1 0 100"
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(line))
	putFrameHeader(frame, 1, len(line), 100)
	expectDropped(t, conn, append(frame, line...))
}

// TestFaultDrainAnswersMidFrameRequest: a session is busy from the
// arrival of a frame header, so a drain that begins while the frame's
// payload is still on its way waits for it and answers the request,
// whatever the RequestTimeout. A payload that never comes holds the
// drain until its timeout, which then severs the session.
func TestFaultDrainAnswersMidFrameRequest(t *testing.T) {
	const acl = "unix:admin rwlax\n"
	line := `setacl "/" 17`
	// sendHead sends the frame's header and line, withholding the
	// payload, and returns once the server has read them.
	sendHead := func(t *testing.T, srv *Server) (net.Conn, *codec) {
		conn, c := rawV2Session(t, srv)
		frame := make([]byte, frameHeaderSize, frameHeaderSize+len(line))
		putFrameHeader(frame, 1, len(line), len(acl))
		frame = append(frame, line...)
		before := srv.rxBytes.Load()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the frame header to arrive", func() bool { return srv.rxBytes.Load() >= before+int64(len(frame)) })
		return conn, c
	}
	// drain starts Shutdown and returns once the listener is closed, and
	// so every idle session nudged.
	drain := func(t *testing.T, srv *Server, timeout time.Duration) <-chan error {
		done := make(chan error, 1)
		go func() { done <- srv.Shutdown(timeout) }()
		waitFor(t, "the listener to close", func() bool {
			c, err := net.Dial("tcp", srv.Addr())
			if err == nil {
				c.Close()
			}
			return err != nil
		})
		return done
	}
	for _, rt := range []time.Duration{0, 2 * time.Second} {
		t.Run("answered/timeout="+rt.String(), func(t *testing.T) {
			srv, _, _ := testServer(t)
			srv.opts.RequestTimeout = rt
			conn, c := sendHead(t, srv)
			done := drain(t, srv, time.Second)
			if _, err := conn.Write([]byte(acl)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			h, err := c.readFrameHeader()
			if err != nil {
				t.Fatalf("reply to a request whose payload came during the drain: %v", err)
			}
			if reply, err := c.readFrameLine(h.lineLen); err != nil || string(reply) != "ok" {
				t.Fatalf("reply = %q, %v; want ok", reply, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("Shutdown = %v, want a clean drain", err)
			}
		})
	}
	t.Run("withheld", func(t *testing.T) {
		srv, _, _ := testServer(t)
		sendHead(t, srv)
		err := <-drain(t, srv, 200*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "drain timed out") {
			t.Fatalf("Shutdown with a frame's payload withheld = %v, want the drain to time out", err)
		}
	})
}

// failingListener fails Accept while fails is positive, then accepts
// from the listener it wraps.
type failingListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *failingListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, errors.New("accept4: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesFailedAccept: a failed Accept is logged through
// the server's logger and retried after a pause, and the server goes on
// serving; it stops accepting only when it stops.
func TestAcceptLoopSurvivesFailedAccept(t *testing.T) {
	srv, _, _ := unstartedServer(t)
	var logged atomic.Int32
	srv.log = logger{sink: func(format string, args ...any) {
		if strings.HasPrefix(format, "accept:") {
			logged.Add(1)
		}
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &failingListener{Listener: ln}
	fl.fails.Store(3)
	srv.ln = fl
	srv.wg.Add(1)
	go srv.acceptLoop()
	cl := adminClient(t, srv, ClientOptions{Timeout: 2 * time.Second, MaxRetries: -1})
	if _, err := cl.Whoami(); err != nil {
		t.Fatalf("whoami after failed accepts: %v", err)
	}
	if n := logged.Load(); n != 3 {
		t.Fatalf("logged %d accept failures, want 3", n)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v", took)
	}
}
