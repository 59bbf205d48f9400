package identitybox

// Supplementary benchmarks: substrate performance (real time, not
// virtual), authentication handshakes, and Chirp wire throughput.
// These measure the reproduction itself rather than reproducing a
// specific paper figure.

import (
	"bytes"
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/core"
	"identitybox/internal/faultnet"
	"identitybox/internal/harness"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
	"identitybox/internal/workload"
)

func BenchmarkVFSStat(b *testing.B) {
	fs := vfs.New("u")
	fs.MkdirAll("/a/b/c", 0o755, "u")
	fs.WriteFile("/a/b/c/f", []byte("x"), 0o644, "u")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Stat("/a/b/c/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVFSReadAt8k(b *testing.B) {
	fs := vfs.New("u")
	data := bytes.Repeat([]byte("x"), 1<<20)
	fs.WriteFile("/f", data, 0o644, "u")
	h, err := fs.OpenHandle("/f")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8192)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.ReadAt(buf, int64(i*8192)%(1<<20-8192)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVFSSnapshot(b *testing.B) {
	fs := vfs.New("u")
	for i := 0; i < 100; i++ {
		fs.MkdirAll(fmt.Sprintf("/d%02d", i), 0o755, "u")
		fs.WriteFile(fmt.Sprintf("/d%02d/f", i), bytes.Repeat([]byte("y"), 1024), 0o644, "u")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := fs.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := vfs.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkACLLookup(b *testing.B) {
	for _, entries := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			a := &acl.ACL{}
			for i := 0; i < entries; i++ {
				a.Set(fmt.Sprintf("globus:/O=Org%d/*", i), acl.Read|acl.List, acl.None)
			}
			p := harness.BenchIdentity
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Lookup(p)
			}
		})
	}
}

func BenchmarkNativeSyscall(b *testing.B) {
	// Raw simulator speed: one untraced getpid round trip.
	fs := vfs.New(kernel.RootAccount)
	k := kernel.New(fs, vclock.Default())
	var proc *kernel.Proc
	done := make(chan struct{})
	release := make(chan struct{})
	go func() {
		k.Run(kernel.ProcSpec{Account: "u"}, func(p *kernel.Proc, _ []string) int {
			proc = p
			close(done)
			<-release
			return 0
		})
	}()
	<-done
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Getpid()
	}
	b.StopTimer()
	close(release)
}

func BenchmarkAuthHandshakes(b *testing.B) {
	ca, err := auth.NewCA("CA")
	if err != nil {
		b.Fatal(err)
	}
	cred, err := ca.Issue("/O=U/CN=Bench")
	if err != nil {
		b.Fatal(err)
	}
	kdc := auth.NewKDC("R")
	key, _ := kdc.RegisterService("svc")
	ticket, _ := kdc.Grant("bench@r", "svc", time.Hour)

	fs := vfs.New("o")
	k := kernel.New(fs, vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("*", acl.Read|acl.List, acl.None)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{
		Owner: "o", RootACL: rootACL,
		Verifiers: map[auth.Method]auth.Verifier{
			auth.MethodGlobus:   &auth.GSIVerifier{TrustedCAs: map[string]*rsa.PublicKey{"CA": ca.PublicKey()}},
			auth.MethodKerberos: &auth.KerberosVerifier{Service: "svc", ServiceKey: key},
			auth.MethodUnix:     &auth.UnixVerifier{},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		name string
		auth auth.Authenticator
	}{
		{"gsi", &auth.GSIClient{Cred: cred}},
		{"kerberos", &auth.KerberosClient{Ticket: ticket}},
		{"unix", &auth.UnixClient{User: "bench"}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cl, err := chirp.Dial(srv.Addr(), []auth.Authenticator{c.auth})
				if err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
		})
	}
}

// BenchmarkChirpWireThroughput measures whole-file transfer speed for a
// 1 MiB file, which GetFile fetches in one getfile: the reply body is
// read straight into the result buffer, so -benchmem shows the exchange
// allocating little beyond the result and the server's snapshot of the
// file. The "loopback" variant runs over a raw local socket; the
// serial/pipelined variants run over a simulated high-latency link (a
// fixed per-write stall on the client side, the regime the tagged
// protocol exists for), where one request pays the stall once whatever
// the window. BenchmarkChirpChunkWindow measures what the window buys.
func BenchmarkChirpWireThroughput(b *testing.B) {
	benchTransfer(b, 1<<20, []transferVariant{
		{"loopback", 1, 0},
		{"serial", 1, benchWireLatency},
		{"pipelined4", 4, benchWireLatency},
		{"pipelined8", 8, benchWireLatency},
	})
}

// BenchmarkChirpExec is one Figure 3 exec over one v2 session: the
// staged program runs in the session's identity box and reads its
// 256 KiB input through ordinary 8 KiB reads. Staging happens once,
// before the timer; each op is the exec RPC, client and server
// together. Its allocations are gated in BENCH_baseline.json: a box
// made per exec, or an audit line rendered per trapped call, shows
// there.
func BenchmarkChirpExec(b *testing.B) {
	const inputSize = 256 << 10
	k := kernel.New(vfs.New("owner"), vclock.Default())
	k.RegisterProgram("readinput", func(p *kernel.Proc, _ []string) int {
		in, err := p.ReadFile("input.dat")
		if err != nil || len(in) != inputSize {
			return 1
		}
		return 0
	})
	cl := loopbackServer(b, k, false)
	if err := cl.Mkdir("/job", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := cl.PutFile("/job/input.dat", make([]byte, inputSize), 0o644); err != nil {
		b.Fatal(err)
	}
	if err := cl.PutFile("/job/prog.exe", kernel.ExecutableBytes("readinput"), 0o755); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cl.Exec("/job", "/job/prog.exe")
		if err != nil || res.Code != 0 {
			b.Fatalf("exec = %+v, %v", res, err)
		}
	}
}

// BenchmarkChirpChunkWindow measures the chunk path over the simulated
// high-latency link: a file over MaxPayload, which GetFile reads in
// 64 KiB preads after getfile's EFBIG. The serial client pays the stall
// once per chunk request, while the pipelined clients keep a window of
// chunk requests in flight and the mux writer coalesces queued requests
// into single writes, so depth >= 4 must come out measurably faster
// than serial.
func BenchmarkChirpChunkWindow(b *testing.B) {
	benchTransfer(b, chirp.MaxPayload+1, []transferVariant{
		{"serial", 1, benchWireLatency},
		{"pipelined4", 4, benchWireLatency},
		{"pipelined8", 8, benchWireLatency},
	})
}

// benchWireLatency is the simulated link's per-write stall.
const benchWireLatency = 150 * time.Microsecond

type transferVariant struct {
	// No "-N" suffix in sub-bench names: benchgate strips a trailing
	// -digits as the GOMAXPROCS tail.
	name    string
	depth   int
	latency time.Duration
}

// benchTransfer stages a size-byte file on a fresh server and times
// GetFile of it, once per variant.
func benchTransfer(b *testing.B, size int, variants []transferVariant) {
	fs := vfs.New("o")
	k := kernel.New(fs, vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("*", acl.All, acl.None)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{Owner: "o", RootACL: rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := bytes.Repeat([]byte("z"), size)
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := chirp.ClientOptions{Window: v.depth}
			if v.latency > 0 {
				inj := faultnet.New(1, faultnet.Rule{
					Op: faultnet.OpWrite, Action: faultnet.Latency, Delay: v.latency})
				opts.Dialer = inj.Dialer("tcp")
			}
			cl, err := chirp.DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "bench"}}, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if err := cl.PutFile("/blob", payload, 0o644); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			flushes := srv.Metrics().Counter(chirp.MetricFlushes)
			flushed, replied := flushes.Value(), srv.RequestCount()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := cl.GetFile("/blob")
				if err != nil || len(data) != len(payload) {
					b.Fatalf("get = %d bytes, %v", len(data), err)
				}
			}
			// Every request gets one reply; replies written while another
			// waits for the session's frame writer share its flush.
			b.ReportMetric(float64(flushes.Value()-flushed)/float64(srv.RequestCount()-replied), "flushes/reply")
		})
	}
}

func BenchmarkRecorderOverhead(b *testing.B) {
	// How much the recording tracer costs relative to a plain run.
	app, _ := workload.AppByName("ibis")
	a := app.Scaled(0.001)
	for i := 0; i < b.N; i++ {
		w, err := harness.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		_, st := workload.Record(w.K, "dthain", workload.BenchRoot, a.Program())
		if st.Code != 0 {
			b.Fatalf("recorded run exited %d", st.Code)
		}
	}
}

// BenchmarkPipeIPC measures pipe round trips native vs. boxed: the IPC
// path the paper says interposition must support ("interprocess
// communication ... supported in the same way as in a real kernel").
func BenchmarkPipeIPC(b *testing.B) {
	run := func(b *testing.B, boxed bool) {
		w, err := harness.NewWorld()
		if err != nil {
			b.Fatal(err)
		}
		var virtual float64
		prog := func(p *kernel.Proc, _ []string) int {
			r, wr, err := p.Pipe()
			if err != nil {
				return 1
			}
			buf := make([]byte, 256)
			before := p.Clock().Now()
			for i := 0; i < 100; i++ {
				if _, err := p.Write(wr, buf); err != nil {
					return 1
				}
				if _, err := p.Read(r, buf); err != nil {
					return 1
				}
			}
			virtual = float64(p.Clock().Now()-before) / 200
			return 0
		}
		for i := 0; i < b.N; i++ {
			var st kernel.ExitStatus
			if boxed {
				st, err = w.RunBoxed(core.Options{AuditLimit: 16}, prog)
				if err != nil {
					b.Fatal(err)
				}
			} else {
				st = w.RunNative(prog)
			}
			if st.Code != 0 {
				b.Fatalf("exit %d", st.Code)
			}
		}
		b.ReportMetric(virtual, "vus/pipe-op")
	}
	b.Run("native", func(b *testing.B) { run(b, false) })
	b.Run("boxed", func(b *testing.B) { run(b, true) })
}

// concurrentVFSMix runs b.N operations split across g goroutines
// against one shared FS, modelled on a file server's request stream:
// 64 KiB block reads on open handles, stat traffic on a shared path,
// and (in the mixed variant) block writes and namespace churn. Writes
// always target per-goroutine files so goroutines contend on locks,
// not data.
func concurrentVFSMix(b *testing.B, goroutines int, readHeavy bool) {
	const blockSize = 64 << 10
	fs := vfs.New("u")
	if err := fs.MkdirAll("/shared/a/b", 0o755, "u"); err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteFile("/shared/a/b/hot", bytes.Repeat([]byte("h"), 8192), 0o644, "u"); err != nil {
		b.Fatal(err)
	}
	handles := make([]*vfs.Handle, goroutines)
	for g := 0; g < goroutines; g++ {
		path := fmt.Sprintf("/g%d", g)
		if err := fs.WriteFile(path, bytes.Repeat([]byte("w"), 4*blockSize), 0o644, "u"); err != nil {
			b.Fatal(err)
		}
		h, err := fs.OpenHandle(path)
		if err != nil {
			b.Fatal(err)
		}
		handles[g] = h
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := handles[g]
			mine := fmt.Sprintf("/g%d", g)
			buf := make([]byte, blockSize)
			n := b.N / goroutines
			if g == 0 {
				n += b.N % goroutines
			}
			for i := 0; i < n; i++ {
				var op int
				if readHeavy {
					op = i % 10 // 0 = write, 1-2 = stat, rest = block reads
				} else {
					op = i % 10 / 2 * 2 // even spread incl. writes and churn
				}
				switch op {
				case 0:
					if _, err := h.WriteAt(buf, int64(i%4)*blockSize); err != nil {
						b.Error(err)
						return
					}
				case 1, 2:
					if _, err := fs.Stat("/shared/a/b/hot"); err != nil {
						b.Error(err)
						return
					}
				case 4:
					if !readHeavy {
						ln := fmt.Sprintf("/g%d.ln", g)
						if err := fs.Link(mine, ln); err != nil {
							b.Error(err)
							return
						}
						if err := fs.Unlink(ln); err != nil {
							b.Error(err)
							return
						}
						break
					}
					fallthrough
				default:
					if _, err := h.ReadAt(buf, int64(i%4)*blockSize); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkConcurrentVFS measures shared-FS throughput as goroutines
// scale. With the per-inode locking split, the read-heavy mix should
// scale well past one goroutine; the serialized seed design could not.
// (Scaling is only visible with GOMAXPROCS > 1 — on a single-CPU host
// every variant is CPU-bound and the curves are flat.)
func BenchmarkConcurrentVFS(b *testing.B) {
	for _, mix := range []struct {
		name      string
		readHeavy bool
	}{{"readheavy", true}, {"mixed", false}} {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/g%d", mix.name, g), func(b *testing.B) {
				concurrentVFSMix(b, g, mix.readHeavy)
			})
		}
	}
}

// concurrentChirpMix runs b.N RPCs split across g goroutines, each
// with its own client connection to one shared server.
func concurrentChirpMix(b *testing.B, goroutines int, readHeavy bool) {
	fs := vfs.New("o")
	k := kernel.New(fs, vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("*", acl.All, acl.None)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{Owner: "o", RootACL: rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}}})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	payload := bytes.Repeat([]byte("z"), 4096)
	clients := make([]*chirp.Client, goroutines)
	for g := range clients {
		cl, err := chirp.Dial(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "bench"}})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		clients[g] = cl
		if err := cl.PutFile(fmt.Sprintf("/f%d", g), payload, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := clients[g]
			mine := fmt.Sprintf("/f%d", g)
			n := b.N / goroutines
			if g == 0 {
				n += b.N % goroutines
			}
			for i := 0; i < n; i++ {
				var op int
				if readHeavy {
					op = i % 10
				} else {
					op = i % 2 * 5
				}
				switch {
				case op == 0:
					if err := cl.PutFile(mine, payload, 0o644); err != nil {
						b.Error(err)
						return
					}
				case op%2 == 1:
					if _, err := cl.Stat(mine); err != nil {
						b.Error(err)
						return
					}
				default:
					if _, err := cl.GetFile(mine); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkConcurrentChirp measures server throughput as concurrent
// client connections scale.
func BenchmarkConcurrentChirp(b *testing.B) {
	for _, mix := range []struct {
		name      string
		readHeavy bool
	}{{"readheavy", true}, {"mixed", false}} {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/g%d", mix.name, g), func(b *testing.B) {
				concurrentChirpMix(b, g, mix.readHeavy)
			})
		}
	}
}
