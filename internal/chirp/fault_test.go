package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/faultnet"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

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

// bothFramings runs fn once per wire framing, as subtests "v1" and
// "v2": every guarantee the suites check must hold whichever framing
// the client speaks. proto goes into ClientOptions.Protocol.
func bothFramings(t *testing.T, fn func(t *testing.T, proto int)) {
	for _, proto := range []int{ProtocolV1, ProtocolV2} {
		proto := proto
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) { fn(t, proto) })
	}
}

// replyLoser is a dialer wrapper that loses exactly one reply: once
// armed, the next bytes the server sends are dropped and the connection
// dies — the request reached the server and ran, its answer never
// reaches the client. faultnet decides read faults on entry to Read, so
// it cannot touch a reader already parked there (the v2 reply loop);
// this drops on the way out, which places the fault identically on both
// framings.
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

// adminClient dials as unix:admin (rwlax at the root, and the shortest
// auth handshake — fault schedules key on client-written bytes).
func adminClient(t *testing.T, srv *Server, opts ClientOptions) *Client {
	t.Helper()
	cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
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
// connection is reset once it has carried 220 client-written bytes —
// the whole workflow writes several times that (v2 framing adds a ~22-
// byte version exchange per connection and a 16-byte header per
// request), so no single connection can carry it, while the largest
// single retry sequence (~155 bytes from a fresh connection, auth and
// version exchange included) always fits.
func chaosSchedule() *faultnet.Injector {
	return faultnet.New(7,
		faultnet.Rule{EveryNth: 3, Op: faultnet.OpWrite, Action: faultnet.Reset},
		faultnet.Rule{Op: faultnet.OpWrite, AfterBytes: 220, Action: faultnet.Reset},
	)
}

// TestFigure3UnderFaults is the acceptance test: under the seeded chaos
// schedule the retrying client completes the full Figure-3 workflow
// with no caller-visible errors, while the same schedule with retries
// disabled fails — over either framing.
func TestFigure3UnderFaults(t *testing.T) {
	t.Run("retries-on", func(t *testing.T) {
		bothFramings(t, func(t *testing.T, proto int) {
			srv, k, _ := testServer(t)
			registerSim(k)
			inj := chaosSchedule()
			cl := adminClient(t, srv, ClientOptions{Dialer: inj.Dialer("tcp"), Protocol: proto})
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
		bothFramings(t, func(t *testing.T, proto int) {
			srv, k, _ := testServer(t)
			registerSim(k)
			inj := chaosSchedule()
			cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}},
				ClientOptions{Dialer: inj.Dialer("tcp"), DisableRetries: true, Protocol: proto})
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		inj := faultnet.New(1)
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, Dialer: func(addr string) (net.Conn, error) {
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, _ := testServer(t)
		var execs atomic.Int64
		k.RegisterProgram("cnt", func(p *kernel.Proc, _ []string) int {
			execs.Add(1)
			return 0
		})
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Dialer: loser.dial, Protocol: proto})
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, _ := testServer(t)
		var execs atomic.Int64
		k.RegisterProgram("cnt", func(p *kernel.Proc, _ []string) int {
			execs.Add(1)
			return 0
		})
		var loser replyLoser
		cl := adminClient(t, srv, ClientOptions{Dialer: loser.dial, Protocol: proto})
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
// so sleep n lands in [d/2, d] for d = min(base<<(n-1), max).
func TestRetryBackoffSchedule(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		var sleeps []time.Duration
		base, max := 100*time.Millisecond, 400*time.Millisecond
		cl := adminClient(t, srv, ClientOptions{
			Protocol:  proto,
			RetryBase: base,
			RetryMax:  max,
			Sleep:     func(d time.Duration) { sleeps = append(sleeps, d) },
		})
		srv.Close()
		if _, err := cl.Whoami(); err == nil {
			t.Fatal("whoami against a closed server should fail")
		}
		if len(sleeps) != 3 {
			t.Fatalf("recorded %d sleeps, want 3 (MaxRetries)", len(sleeps))
		}
		want := []time.Duration{base, 2 * base, 4 * base} // 4*base == max
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{
			Protocol:         proto,
			BreakerThreshold: 2,
			BreakerCooloff:   time.Hour,
			Sleep:            func(time.Duration) {},
		})
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{
			Protocol:   proto,
			MaxRetries: 1,
			Sleep:      func(time.Duration) {},
		})
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
	tbl := newDedupeTable(4, 0)
	for i := 0; i < 6; i++ {
		tbl.store(dedupeKey("u", string(rune('a'+i))), []string{"ok", "1"})
	}
	if _, size := tbl.stats(); size != 4 {
		t.Fatalf("table size = %d, want cap 4", size)
	}
	// The two oldest were evicted; the newest survive.
	if _, hit := tbl.lookup(dedupeKey("u", "a")); hit {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, hit := tbl.lookup(dedupeKey("u", "f")); !hit {
		t.Fatal("newest entry should be present")
	}
	// Keys are principal-scoped: another principal's token misses.
	if _, hit := tbl.lookup(dedupeKey("v", "f")); hit {
		t.Fatal("token must not cross principals")
	}
}

// TestFailoverReadsToReplica serves a replicated name through the
// failover driver: with the primary dead and its breaker open, reads
// come from the replica and writes degrade with the typed error.
func TestFailoverReadsToReplica(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv1, _, _ := testServer(t)
		srv2, _, _ := testServer(t)
		fast := ClientOptions{
			Protocol:         proto,
			MaxRetries:       1,
			BreakerThreshold: 1,
			BreakerCooloff:   time.Hour,
			Sleep:            func(time.Duration) {},
		}
		c1 := adminClient(t, srv1, fast)
		c2 := adminClient(t, srv2, fast)
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
			data, err := fd.ReadFileSmall(p, "/pub/data")
			if err != nil || string(data) != "from-primary" {
				t.Errorf("healthy read = %q, %v", data, err)
				return 1
			}
			srv1.Close() // the primary dies
			// The read fails over to the replica (and opens c1's breaker).
			data, err = fd.ReadFileSmall(p, "/pub/data")
			if err != nil || string(data) != "from-replica" {
				t.Errorf("failover read = %q, %v", data, err)
				return 2
			}
			// With the breaker open, reads skip the primary outright.
			data, err = fd.ReadFileSmall(p, "/pub/data")
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

// TestFaultServerDrainFinishesInflight starts a slow exec, then drains:
// the in-flight job completes and new connections are refused.
func TestFaultServerDrainFinishesInflight(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, _ := testServer(t)
		k.RegisterProgram("slow", func(p *kernel.Proc, _ []string) int {
			time.Sleep(150 * time.Millisecond)
			return 0
		})
		cl := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true})
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

// TestFaultStalledRequestTimesOut checks the per-request read deadline:
// a client that announces a payload and stalls is disconnected. Pinned
// to v1 because it pokes raw protocol lines at the codec; the v2 frame
// equivalent is TestMuxStalledFrameTimesOut.
func TestFaultStalledRequestTimesOut(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.opts.RequestTimeout = 100 * time.Millisecond
	cl := adminClient(t, srv, ClientOptions{DisableRetries: true, Protocol: ProtocolV1})
	// Announce a pwrite payload of 100 bytes and send nothing.
	cl.mu.Lock()
	err := cl.mux.c.writeLine([]byte("pwrite 1 0 100"))
	cl.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	cl.mu.Lock()
	cl.conn.SetReadDeadline(deadline)
	_, rerr := cl.mux.c.readLine()
	cl.mu.Unlock()
	if rerr == nil {
		t.Fatal("server should have dropped the stalled session")
	}
	if time.Now().After(deadline) {
		t.Fatal("server did not enforce the request deadline")
	}
}
