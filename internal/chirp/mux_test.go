package chirp

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/faultnet"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// TestMuxNegotiationMatrix covers every pairing the version exchange
// meets: a v2 client and server settle on the smaller window and byte
// budget, a peer that skips or lowers the exchange is refused by the
// server, and a client facing a server that will not speak v2 fails its
// dial instead of falling back to another framing.
func TestMuxNegotiationMatrix(t *testing.T) {
	t.Run("client-v2-server-v2", func(t *testing.T) {
		// A multi-chunk transfer and a tokened exec over the negotiated
		// session.
		srv, k, _ := testServer(t)
		registerSim(k)
		cl := adminClient(t, srv, ClientOptions{Window: 4})
		data := patterned(2*transferChunk + 7)
		if err := cl.PutFile("/blob", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.GetFile("/blob"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("round trip: %d bytes, %v", len(got), err)
		}
		if err := figure3Workflow(cl); err != nil {
			t.Fatalf("Figure 3 workflow: %v", err)
		}
	})
	t.Run("v2-v2-min-window", func(t *testing.T) {
		srv, _, _ := testServer(t)
		srv.opts.Window = 8
		srv.opts.MaxInflightBytes = 1 << 20
		cl := adminClient(t, srv, ClientOptions{Window: 32, MaxInflightBytes: 4 << 20})
		ws := cl.WindowStats()
		if ws.Window != 8 || ws.MaxInflightBytes != 1<<20 {
			t.Fatalf("negotiated window = %+v, want the server's smaller caps (8, 1MiB)", ws)
		}
		if _, err := cl.Whoami(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("v2-v2-client-caps-win", func(t *testing.T) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: 4, MaxInflightBytes: 1 << 19})
		ws := cl.WindowStats()
		if ws.Window != 4 || ws.MaxInflightBytes != 1<<19 {
			t.Fatalf("negotiated window = %+v, want the client's smaller caps (4, 512KiB)", ws)
		}
	})
	// A v1 client opens with a request line; one that asks for version 1
	// is no better off.
	for name, first := range map[string]string{"client-v1-server-v2": `stat "/"`, "v1-client-v2-server": "version 1 1 1048576"} {
		t.Run(name, func(t *testing.T) {
			srv, _, _ := testServer(t)
			refusedFirstLine(t, srv, first)
		})
	}
	// A v1 server answers the version line like any unknown command; a
	// server that answers it with a lower version is refused by the
	// client in turn.
	for _, old := range []struct{ name, reply, want string }{
		{"client-v2-server-v1", `err ENOSYS "unknown command version"`, "version exchange refused"},
		{"v2-client-v1-server-fallback", "ok 1 1 1048576", "unsupported protocol 1"},
	} {
		t.Run(old.name, func(t *testing.T) {
			_, err := Dial(oldServer(t, old.reply), []auth.Authenticator{&auth.UnixClient{User: "admin"}})
			if err == nil || !strings.Contains(err.Error(), old.want) {
				t.Fatalf("dial of a server answering %q = %v, want %q and no fallback", old.reply, err, old.want)
			}
		})
	}
}

// TestFirstLineMustBeVersion: a session whose first line after
// authentication is a request, not the version exchange, gets one err
// line and is closed. The request is neither executed nor counted.
func TestFirstLineMustBeVersion(t *testing.T) {
	srv, k, _ := testServer(t)
	refusedFirstLine(t, srv, `mkdir 755 "/x"`)
	if _, err := k.FS().Stat("/x"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat /x after the refused session = %v, want ENOENT", err)
	}
}

// TestRefusedVersionExchangeCounted: the refusal of a first line that is
// no version exchange is an error reply like any other, so it is counted
// under its errno and in stats' Errors.
func TestRefusedVersionExchangeCounted(t *testing.T) {
	srv, _, _ := testServer(t)
	einval := srv.Metrics().Counter(obs.With(MetricErrors, "errno", "EINVAL"))
	before, beforeAll := einval.Value(), srv.ErrorCount()
	refusedFirstLine(t, srv, `stat "/"`)
	if n, all := einval.Value()-before, srv.ErrorCount()-beforeAll; n != 1 || all != 1 {
		t.Fatalf("the refusal counted %d EINVAL and %d errors in all, want 1 and 1", n, all)
	}
}

// refusedFirstLine opens an authenticated session on srv, sends line
// where the version exchange belongs, and checks that the server answers
// one EINVAL err line, counts no request, and closes the session.
func refusedFirstLine(t *testing.T, srv *Server, line string) {
	t.Helper()
	before := srv.RequestCount()
	conn, c := rawSession(t, srv)
	if err := c.writeLine([]byte(line)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := c.readLine()
	if err != nil || !strings.HasPrefix(string(reply), "err EINVAL ") {
		t.Fatalf("reply to %q = %q, %v; want one EINVAL err line", line, reply, err)
	}
	if extra, err := c.readLine(); err != io.EOF {
		t.Fatalf("after the refusal the session read %q, %v; want EOF", extra, err)
	}
	if n := srv.RequestCount() - before; n != 0 {
		t.Fatalf("the refused line counted %d requests, want 0", n)
	}
}

// rawSession dials srv and authenticates as unix:admin, returning the
// connection and a codec over it before any version exchange, for tests
// that write bytes a Client never would.
func rawSession(t *testing.T, srv *Server) (net.Conn, *codec) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := auth.ClientNegotiate(auth.NewConn(conn), []auth.Authenticator{&auth.UnixClient{User: "admin"}}); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	c := newCodec(conn)
	t.Cleanup(func() {
		conn.Close()
		c.release()
	})
	return conn, c
}

// rawV2Session is rawSession past the version exchange: the caller
// speaks frames.
func rawV2Session(t *testing.T, srv *Server) (net.Conn, *codec) {
	t.Helper()
	conn, c := rawSession(t, srv)
	if _, _, _, err := exchangeVersion(c, 4, 1<<20); err != nil {
		t.Fatalf("version exchange: %v", err)
	}
	return conn, c
}

// oldServer serves one connection as a server that predates v2 would:
// it authenticates the client and answers its version line with reply.
func oldServer(t *testing.T, reply string) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done // the client hangs up on the reply, or never dialled
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ac := auth.NewConn(conn)
		verifiers := map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}}
		if _, err := auth.ServerNegotiate(ac, verifiers, "127.0.0.1"); err != nil {
			return
		}
		if _, err := ac.ReadLine(); err == nil {
			ac.WriteLine(reply)
			ac.ReadLine() // until the client hangs up
		}
	}()
	return ln.Addr().String()
}

// TestMuxSlowOpDoesNotBlockMetadata parks an exec on one of the
// session's workers behind a gate, then proves the same session still
// answers metadata and read traffic: the other workers are not
// head-of-line blocked by a slow operation.
func TestMuxSlowOpDoesNotBlockMetadata(t *testing.T) {
	srv, k, _ := testServer(t)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	k.RegisterProgram("gate", func(p *kernel.Proc, _ []string) int {
		started <- struct{}{}
		<-release
		return 0
	})
	defer close(release)
	cl := adminClient(t, srv, ClientOptions{})
	if err := cl.PutFile("/gate.exe", kernel.ExecutableBytes("gate"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Grab the fd before parking the exec, so the pread below needs no
	// open of its own while the gate holds.
	fd, err := cl.Open("/gate.exe", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Exec("/", "/gate.exe")
		done <- err
	}()
	<-started // the exec now occupies a worker
	for i := 0; i < 5; i++ {
		if _, err := cl.Whoami(); err != nil {
			t.Fatalf("whoami while exec in flight: %v", err)
		}
		if _, err := cl.Stat("/gate.exe"); err != nil {
			t.Fatalf("stat while exec in flight: %v", err)
		}
	}
	buf := make([]byte, 16)
	if n, err := cl.Pread(fd, buf, 0); err != nil || n == 0 {
		t.Fatalf("pread while exec in flight: %d bytes, %v", n, err)
	}
	select {
	case err := <-done:
		t.Fatalf("exec finished before release (err=%v); the gate never held", err)
	default:
	}
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("gated exec: %v", err)
	}
	if err := cl.CloseFD(fd); err != nil {
		t.Fatal(err)
	}
	ws := cl.WindowStats()
	if ws.InFlight != 0 {
		t.Fatalf("tags still in flight after quiesce: %+v", ws)
	}
}

// TestMuxTransferConcurrentWithMetadata overlaps a windowed multi-chunk
// PutFile with metadata calls on the same session and requires the
// metadata to complete while the transfer is still in flight — the
// mixed-workload shape the per-session worker pool exists for.
func TestMuxTransferConcurrentWithMetadata(t *testing.T) {
	srv, _, _ := testServer(t)
	cl := adminClient(t, srv, ClientOptions{Window: 8})
	data := patterned(48 * transferChunk) // 3 MiB: enough chunks to overlap
	var putDone atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := cl.PutFile("/big", data, 0o644)
		putDone.Store(true)
		done <- err
	}()
	overlapped := 0
	for !putDone.Load() {
		if _, err := cl.Whoami(); err != nil {
			t.Fatalf("whoami during transfer: %v", err)
		}
		if !putDone.Load() {
			overlapped++
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("PutFile: %v", err)
	}
	if overlapped == 0 {
		t.Fatal("no metadata call completed while the transfer was in flight")
	}
	got, err := cl.GetFile("/big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("readback: %d bytes, %v", len(got), err)
	}
	t.Logf("%d metadata calls overlapped the %d-chunk transfer", overlapped, 48)
}

// TestMuxChaosTokenedExactlyOnce drives retries through seeded
// mid-transfer connection resets: a transfer is reset partway through
// and restarts intact on a fresh session, and a tokened exec whose
// request write is killed still runs exactly once (dedupe on the retry
// path).
func TestMuxChaosTokenedExactlyOnce(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		var execs atomic.Int64
		k.RegisterProgram("cnt", func(p *kernel.Proc, _ []string) int {
			execs.Add(1)
			return 0
		})
		inj := faultnet.New(11,
			faultnet.Rule{Conn: 1, Op: faultnet.OpWrite, AfterBytes: 30_000, Action: faultnet.Reset})
		cl := adminClient(t, srv, ClientOptions{Window: cmp.Or(win, 8), Dialer: inj.Dialer("tcp")})
		// 384 KiB: one putfile, which the client's
		// 32 KiB buffered writer sends as a buffer-full and then the rest
		// in one write; the 30 000-byte reset cuts that second write,
		// mid-payload, so the server never executes the request.
		data := patterned(6 * transferChunk)
		if err := cl.PutFile("/blob", data, 0o644); err != nil {
			t.Fatalf("PutFile through mid-window reset: %v", err)
		}
		if inj.ConnCount() < 2 {
			t.Fatalf("ConnCount = %d; the reset should have forced a redial", inj.ConnCount())
		}
		if err := cl.PutFile("/cnt.exe", kernel.ExecutableBytes("cnt"), 0o755); err != nil {
			t.Fatal(err)
		}
		token := NewRequestToken()
		inj.InjectOnce(faultnet.OpWrite, 0, faultnet.Reset, 0) // kill the tokened request's send
		res, err := cl.ExecToken(token, "/", "/cnt.exe")
		if err != nil || res.Code != 0 {
			t.Fatalf("tokened exec under write fault = %+v, %v", res, err)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("tokened exec ran %d times through the reset, want exactly 1", n)
		}
		// An explicit duplicate replays the stored reply.
		res2, err := cl.ExecToken(token, "/", "/cnt.exe")
		if err != nil || res2 != res {
			t.Fatalf("duplicate tokened exec = %+v, %v; want replay of %+v", res2, err, res)
		}
		if n := execs.Load(); n != 1 {
			t.Fatalf("after duplicate: ran %d times, want 1", n)
		}
		got, err := cl.GetFile("/blob")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readback after chaos: %d bytes, %v", len(got), err)
		}
	})
}

// TestMuxStalledFrameTimesOut checks the per-request read deadline on a
// frame's line: a peer that announces a frame and never sends its body
// is disconnected.
func TestMuxStalledFrameTimesOut(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.opts.RequestTimeout = 100 * time.Millisecond
	conn, _ := rawV2Session(t, srv)
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], 1, 20, 0) // announce a 20-byte line, send nothing
	expectDropped(t, conn, hdr[:])
}

// expectDropped writes b to conn and checks that the server closes the
// session promptly, within two seconds.
func expectDropped(t *testing.T, conn net.Conn, b []byte) {
	t.Helper()
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	conn.SetReadDeadline(deadline)
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the session open")
	}
	if time.Now().After(deadline) {
		t.Fatal("server took more than two seconds to close the session")
	}
}

// TestMuxBackpressureBoundsInflight negotiates a tiny window and fires
// more concurrent calls than it admits: everything completes, the
// server never sees more than the window in flight (its occupancy
// histogram tops out at the window), and the client records stalls.
func TestMuxBackpressureBoundsInflight(t *testing.T) {
	srv, _, _ := testServer(t)
	cl := adminClient(t, srv, ClientOptions{Window: 2})
	if ws := cl.WindowStats(); ws.Window != 2 {
		t.Fatalf("negotiated window = %d, want 2", ws.Window)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Whoami(); err != nil {
				t.Errorf("whoami: %v", err)
			}
		}()
	}
	wg.Wait()
	if ws := cl.WindowStats(); ws.InFlight != 0 {
		t.Fatalf("tags in flight after quiesce = %d, want 0", ws.InFlight)
	}
	// With 16 concurrent calls against a window of 2, some submits must
	// have waited for space.
	if ws := cl.WindowStats(); ws.Stalls == 0 {
		t.Log("no window stalls recorded (replies may have raced submits); not failing")
	}
}

// TestMuxConcurrentStress hammers one v2 session from many goroutines
// with a mixed workload — the race-detector target for the reader/
// writer/worker locking.
func TestMuxConcurrentStress(t *testing.T) {
	srv, _, _ := testServer(t)
	cl := adminClient(t, srv, ClientOptions{Window: 4})
	seed := patterned(2*transferChunk + 17)
	if err := cl.PutFile("/seed", seed, 0o644); err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	iters := 20
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("/g%d", g)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					if err := cl.PutFile(mine, seed[:1+(i*331)%len(seed)], 0o644); err != nil {
						t.Errorf("g%d put: %v", g, err)
						return
					}
				case 1:
					if _, err := cl.GetFile("/seed"); err != nil {
						t.Errorf("g%d get: %v", g, err)
						return
					}
				case 2:
					if _, err := cl.Stat("/seed"); err != nil {
						t.Errorf("g%d stat: %v", g, err)
						return
					}
				case 3:
					d := fmt.Sprintf("/d%d-%d", g, i)
					if err := cl.Mkdir(d, 0o755); err != nil {
						t.Errorf("g%d mkdir: %v", g, err)
						return
					}
					if err := cl.Rmdir(d); err != nil {
						t.Errorf("g%d rmdir: %v", g, err)
						return
					}
				default:
					if _, err := cl.Whoami(); err != nil {
						t.Errorf("g%d whoami: %v", g, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if ws := cl.WindowStats(); ws.InFlight != 0 {
		t.Fatalf("tags in flight after stress = %d, want 0", ws.InFlight)
	}
	if got, err := cl.GetFile("/seed"); err != nil || !bytes.Equal(got, seed) {
		t.Fatalf("seed file corrupted by stress: %d bytes, %v", len(got), err)
	}
}

// overlapBarrier is a Durability whose Barrier holds each caller until
// want callers are inside at once, or a timeout passes, and records the
// peak number inside: how many barrier waits overlapped.
type overlapBarrier struct {
	want int
	full chan struct{}
	once sync.Once

	mu           sync.Mutex
	inside, peak int
}

func (o *overlapBarrier) Barrier() error {
	o.mu.Lock()
	o.inside++
	o.peak = max(o.peak, o.inside)
	if o.inside >= o.want {
		o.once.Do(func() { close(o.full) })
	}
	o.mu.Unlock()
	select {
	case <-o.full:
	case <-time.After(2 * time.Second):
	}
	o.mu.Lock()
	o.inside--
	o.mu.Unlock()
	return nil
}

// TestMuxSessionBarriersOverlap: three callers sharing one v2 session
// each issue a mutation — mkdir, rename, setacl — and all three wait on
// the durability barrier at once. A session serving its mutations one
// at a time would let only one caller inside the barrier.
func TestMuxSessionBarriersOverlap(t *testing.T) {
	srv, k, _ := testServer(t)
	fs := k.FS()
	if err := fs.WriteFile("/old", []byte("x"), 0o644, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/acl", 0o755, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	dur := &overlapBarrier{want: 3, full: make(chan struct{})}
	srv.opts.Durability = dur
	cl := adminClient(t, srv, ClientOptions{})
	ops := []func() error{
		func() error { return cl.Mkdir("/dir", 0o755) },
		func() error { return cl.Rename("/old", "/new") },
		func() error { return cl.SetACL("/acl", "unix:admin rwlax\n") },
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ops))
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = op()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	dur.mu.Lock()
	peak := dur.peak
	dur.mu.Unlock()
	if peak != 3 {
		t.Fatalf("peak barrier waiters on one session = %d, want 3", peak)
	}
}

// TestControlAnswersPastParkedBarriers: eight mutations on one session
// park in a durability barrier that holds them, and a whoami on the
// same session still answers at once. The session starts a worker for
// each request in flight, so none waits for a worker behind parked ones.
func TestControlAnswersPastParkedBarriers(t *testing.T) {
	const parked = 8
	srv, _, _ := testServer(t)
	dur := &overlapBarrier{want: parked + 1, full: make(chan struct{})}
	srv.opts.Durability = dur
	cl := adminClient(t, srv, ClientOptions{})
	var wg sync.WaitGroup
	errs := make([]error, parked)
	for i := range parked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.Mkdir(fmt.Sprintf("/d%d", i), 0o755)
		}()
	}
	inside := func() int {
		dur.mu.Lock()
		defer dur.mu.Unlock()
		return dur.inside
	}
	for deadline := time.Now().Add(time.Second); inside() < parked && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	who := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := cl.Whoami()
		who <- err
	}()
	var whoErr error
	var waited time.Duration
	select {
	case whoErr = <-who:
		waited = time.Since(start)
	case <-time.After(time.Second):
		waited = time.Since(start)
	}
	dur.once.Do(func() { close(dur.full) }) // release the barrier
	wg.Wait()
	if waited >= time.Second {
		whoErr = <-who
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mkdir %d: %v", i, err)
		}
	}
	if whoErr != nil || waited >= time.Second {
		t.Fatalf("whoami beside %d parked mutations answered after %v (%v), want within 1s", parked, waited, whoErr)
	}
	dur.mu.Lock()
	peak := dur.peak
	dur.mu.Unlock()
	if peak != parked {
		t.Fatalf("peak barrier waiters on one session = %d, want %d", peak, parked)
	}
}

// TestIdleSessionFootprint: a session that served lock-step traffic and
// went idle runs its reader and the one worker that traffic needed: the
// worker counts as free once its reply is handed to the frame writer,
// so the next request's header never finds it busy. The server runs
// under a goroutine label, and only session goroutines are counted.
func TestIdleSessionFootprint(t *testing.T) {
	const sessions, calls = 8, 100
	var srv *Server
	pprof.Do(context.Background(), pprof.Labels("idle", t.Name()), func(context.Context) {
		srv, _, _ = testServer(t)
	})
	for range sessions {
		cl := adminClient(t, srv, ClientOptions{})
		for range calls {
			if _, err := cl.Stat("/tmp"); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := labeledGoroutines(t.Name(), "chirp.(*Server).serveConn", "chirp.(*session).worker")
	if got != 2*sessions {
		t.Fatalf("%d idle sessions run %d server goroutines, want %d: a reader and one worker each", sessions, got, 2*sessions)
	}
}

// TestMuxConcurrentExecsOneBox runs eight execs at once on one v2
// session, each reading its own 64 KiB input and writing a transform of
// it, and checks every output. The session makes one identity box, at
// its first exec, and every exec runs as a process in it: a home ACL
// edited after that first exec outlives all eight (a new box would
// reset it, TestBoxScaffoldingWrittenOnce), and a second session's
// first exec does reset it.
func TestMuxConcurrentExecsOneBox(t *testing.T) {
	const jobs, size = 8, 64 << 10
	srv, k, _ := testServer(t)
	k.RegisterProgram("xform", func(p *kernel.Proc, args []string) int {
		in, err := p.ReadFile(args[0])
		if err != nil {
			return 1
		}
		for i := range in {
			in[i] ^= 0x5a
		}
		if err := p.WriteFile(args[1], in, 0o644); err != nil {
			return 2
		}
		return 0
	})
	cl := adminClient(t, srv, ClientOptions{})
	if err := cl.PutFile("/xform.exe", kernel.ExecutableBytes("xform"), 0o755); err != nil {
		t.Fatal(err)
	}
	home := "/.boxhomes/" + identity.Principal(cl.Identity()).Sanitized()
	if err := cl.PutFile("/seed", []byte("seed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := cl.Exec("/", "/xform.exe", "/seed", "/seed.out"); err != nil || res.Code != 0 {
		t.Fatalf("first exec = %+v, %v", res, err)
	}
	homeACL := home + "/" + acl.FileName
	made, err := k.FS().ReadFile(homeACL)
	if err != nil {
		t.Fatal(err)
	}
	edited := append(append([]byte(nil), made...), "unix:nobody rl\n"...)
	if err := k.FS().WriteFile(homeACL, edited, 0o644, "chirpowner"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := make([]byte, size)
			for i := range in {
				in[i] = byte(j*31 + i%251)
			}
			inName, outName := fmt.Sprintf("%s/in%d", home, j), fmt.Sprintf("%s/out%d", home, j)
			if err := cl.PutFile(inName, in, 0o644); err != nil {
				t.Errorf("job %d: put: %v", j, err)
				return
			}
			if res, err := cl.Exec(home, "/xform.exe", inName, outName); err != nil || res.Code != 0 {
				t.Errorf("job %d: exec = %+v, %v", j, res, err)
				return
			}
			out, err := cl.GetFile(outName)
			if err != nil || len(out) != size {
				t.Errorf("job %d: output of %d bytes, %v", j, len(out), err)
				return
			}
			for i := range out {
				if out[i] != in[i]^0x5a {
					t.Errorf("job %d: output byte %d = %#x, want %#x", j, i, out[i], in[i]^0x5a)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, err := k.FS().ReadFile(homeACL); err != nil || !bytes.Equal(got, edited) {
		t.Errorf("home ACL after the session's later execs = %q, %v; want the edit %q kept (a box was made again)", got, err, edited)
	}

	other := adminClient(t, srv, ClientOptions{})
	if res, err := other.Exec("/", "/xform.exe", "/seed", "/seed.out"); err != nil || res.Code != 0 {
		t.Fatalf("second session's exec = %+v, %v", res, err)
	}
	if got, err := k.FS().ReadFile(homeACL); err != nil || !bytes.Equal(got, made) {
		t.Errorf("home ACL after a second session's first exec = %q, %v; want it reset to %q", got, err, made)
	}
}

// TestMuxConcurrentExecsOnePrincipal runs execs of one principal
// concurrently on one v2 session, the race-detector target for boxes
// made while others run. Each box is made while the others write in the
// same home, whose ACL grants the principal its rights: a box that
// rewrote the home ACL could show a running one the ACL truncated and
// refuse its write (TestBoxScaffoldingWrittenOnce pins that it does not).
func TestMuxConcurrentExecsOnePrincipal(t *testing.T) {
	srv, k, _ := testServer(t)
	k.RegisterProgram("touch", func(p *kernel.Proc, args []string) int {
		for i := 0; i < 500; i++ {
			if err := p.WriteFile(args[0], []byte("x"), 0o644); err != nil {
				return 1
			}
		}
		return 0
	})
	cl := adminClient(t, srv, ClientOptions{})
	if err := cl.PutFile("/touch.exe", kernel.ExecutableBytes("touch"), 0o755); err != nil {
		t.Fatal(err)
	}
	home := "/.boxhomes/" + identity.Principal(cl.Identity()).Sanitized()
	if res, err := cl.Exec("/", "/touch.exe", "/first"); err != nil || res.Code != 0 {
		t.Fatalf("first exec = %+v, %v", res, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := cl.Exec(home, "/touch.exe", fmt.Sprintf("out%d", g))
				if err != nil || res.Code != 0 {
					t.Errorf("exec %d.%d = %+v, %v", g, i, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// labeledGoroutines counts the live goroutines carrying the pprof label
// idle=id, which a goroutine inherits from the one that started it; with
// frames, only those whose stack holds one of them.
func labeledGoroutines(id string, frames ...string) int {
	var b strings.Builder
	pprof.Lookup("goroutine").WriteTo(&b, 1)
	n := 0
	for _, group := range strings.Split(b.String(), "\n\n") {
		inFrames := len(frames) == 0
		for _, f := range frames {
			inFrames = inFrames || strings.Contains(group, f+"+")
		}
		if inFrames && strings.Contains(group, `"idle":"`+id+`"`) {
			_, stacks, _ := strings.Cut(group, "\n")
			if strings.HasPrefix(group, "goroutine profile") {
				group = stacks
			}
			var k int
			fmt.Sscanf(group, "%d @", &k)
			n += k
		}
	}
	return n
}

// TestMuxIdleClientOneGoroutine: a connected client runs one goroutine,
// its reader. Callers write their own frames, so nothing else waits on
// an idle connection; and closing the client ends the reader. The
// clients are dialled under a goroutine label, so only what they start
// is counted, not the server's side of their sessions.
func TestMuxIdleClientOneGoroutine(t *testing.T) {
	srv, _, _ := testServer(t)
	const n = 8
	clients := make([]*Client, n)
	pprof.Do(context.Background(), pprof.Labels("idle", t.Name()), func(context.Context) {
		for i := range clients {
			clients[i] = adminClient(t, srv, ClientOptions{})
			if _, err := clients[i].Whoami(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := labeledGoroutines(t.Name()); got != n {
		t.Fatalf("%d idle clients run %d goroutines, want %d", n, got, n)
	}
	for _, cl := range clients {
		cl.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for labeledGoroutines(t.Name()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("closed clients left %d goroutines running", labeledGoroutines(t.Name()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// deafServer authenticates one client and answers its version exchange,
// then reads nothing more, through a small receive buffer, until the
// test ends.
func deafServer(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done, hangUp := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		close(hangUp)
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		ac := auth.NewConn(conn)
		verifiers := map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}}
		if _, err := auth.ServerNegotiate(ac, verifiers, "127.0.0.1"); err != nil {
			return
		}
		if _, err := ac.ReadLine(); err == nil {
			ac.WriteLine(fmt.Sprintf("ok %d %d %d", ProtocolV2, DefaultWindow, DefaultMaxInflightBytes))
			<-hangUp
		}
	}()
	return ln.Addr().String()
}

// TestMuxWriteTimeoutAgainstDeafServer: against a server that stops
// reading, a call's own write is what blocks, and ClientOptions.Timeout,
// the frame writer's deadline, ends it within about that timeout.
func TestMuxWriteTimeoutAgainstDeafServer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	cl, err := DialOpts(deafServer(t), []auth.Authenticator{&auth.UnixClient{User: "admin"}}, ClientOptions{
		Timeout: timeout, MaxRetries: -1,
		Dialer: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.(*net.TCPConn).SetWriteBuffer(4 << 10)
			}
			return c, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- cl.PutFile("/big", make([]byte, MaxPayload), 0o644) }()
	select {
	case err := <-errc:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("putfile to a deaf server = %v, want its write's timeout", err)
		}
		if d := time.Since(start); d > 10*timeout {
			t.Fatalf("putfile to a deaf server took %v, want about %v", d, timeout)
		}
	case <-time.After(20 * timeout):
		t.Fatalf("putfile to a deaf server still blocked after %v", 20*timeout)
	}
}
