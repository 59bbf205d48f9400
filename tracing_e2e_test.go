package identitybox

// End-to-end request tracing: one trace ID must follow a request from
// the client's submit queue, across the v2 wire, through the server's
// ordered lane, into the WAL group-commit pipeline and the durability
// barrier, and back out through the reply — all on the wall clock,
// with the slow-request log capturing every traced request when the
// threshold is zero. Set TRACE_ARTIFACT_DIR to keep the collected
// spans and the slow log as files (CI uploads them as artifacts).

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/core"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// tracedWorld is an in-process chirpd: a durable store and a Chirp
// server sharing one span ring, with a slow-request log capturing
// every traced request (threshold zero).
type tracedWorld struct {
	srv     *chirp.Server
	store   *durable.Store
	spans   *obs.SpanRing
	reg     *obs.Registry
	slowLog *bytes.Buffer
}

func newTracedWorld(t testing.TB) *tracedWorld {
	t.Helper()
	w := &tracedWorld{
		reg:     obs.NewRegistry(),
		spans:   obs.NewSpanRing(4096),
		slowLog: &bytes.Buffer{},
	}
	store, err := durable.Open(filepath.Join(t.TempDir(), "state"), durable.Options{
		Owner:   "owner",
		Metrics: w.reg,
		Spans:   w.spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	w.store = store
	k := kernel.New(store.FS(), vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{
		Owner:      "owner",
		RootACL:    rootACL,
		Verifiers:  map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		Metrics:    w.reg,
		Spans:      w.spans,
		TraceLog:   core.NewJSONLSink(&syncWriter{buf: w.slowLog}),
		TraceSlow:  0, // log every traced request
		Durability: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	w.srv = srv
	return w
}

// syncWriter makes a bytes.Buffer safe behind the JSONL sink when
// worker lanes log concurrently (the sink serializes, but keep the
// write path obviously race-free for -race).
type syncWriter struct{ buf *bytes.Buffer }

func (s *syncWriter) Write(p []byte) (int, error) { return s.buf.Write(p) }

// phaseNames flattens a span's phase names for containment checks.
func phaseNames(s obs.Span) map[string]bool {
	out := make(map[string]bool, len(s.Phases))
	for _, ph := range s.Phases {
		out[ph.Name] = true
	}
	return out
}

// TestTracingEndToEnd drives the Figure-3 style workflow (make a work
// directory, stage input, rename, clean up) one traced call at a time
// and checks that every acked mutation produced a complete span chain:
// a client span with submit/send/await phases, a server span whose
// phases cover the lane queue, the handler, the durability barrier and
// the WAL group commit, and at least one wal.commit span from the
// store — all under the same trace ID.
func TestTracingEndToEnd(t *testing.T) {
	w := newTracedWorld(t)
	clSpans := obs.NewSpanRing(1024)
	cl, err := chirp.DialOpts(w.srv.Addr(),
		[]auth.Authenticator{&auth.UnixClient{User: "admin"}},
		chirp.ClientOptions{Spans: clSpans})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ws := cl.WindowStats(); !ws.Traced {
		t.Fatalf("trace capability not negotiated: %+v", ws)
	}

	input := bytes.Repeat([]byte("x"), 8192)
	steps := []struct {
		name string
		run  func() error
	}{
		{"mkdir", func() error { return cl.Mkdir("/work", 0o755) }},
		{"put", func() error { return cl.PutFile("/work/input.dat", input, 0o644) }},
		{"rename", func() error { return cl.Rename("/work/input.dat", "/work/staged.dat") }},
		{"unlink", func() error { return cl.Unlink("/work/staged.dat") }},
	}
	traces := make([]uint64, 0, len(steps))
	for _, step := range steps {
		id := obs.NewTraceID()
		cl.SetTrace(id)
		err := step.run()
		cl.SetTrace(0)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		traces = append(traces, id)

		// A server span is recorded once the reply it times has been
		// flushed, a wal.commit span once the group's waiters are
		// released — both moments after the client may already hold the
		// reply, so a fetch on its heels can precede them. Poll.
		var server []obs.Span
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if server, err = cl.TraceSpans(id); err != nil {
				t.Fatalf("%s: fetching spans: %v", step.name, err)
			}
			names := make(map[string]bool)
			for _, s := range server {
				names[s.Name] = true
			}
			if names["server"] && names["wal.commit"] || time.Now().After(deadline) {
				break
			}
		}
		var serverSpans, walSpans int
		var sawBarrier, sawGroup bool
		for _, s := range server {
			switch s.Name {
			case "server":
				serverSpans++
				ph := phaseNames(s)
				for _, want := range []string{"lane.queue", "handler", "reply"} {
					if !ph[want] {
						t.Errorf("%s: server span %q missing phase %q: %+v", step.name, s.Cmd, want, s.Phases)
					}
				}
				if ph["barrier.wait"] {
					sawBarrier = true
				}
				if ph["wal.group"] {
					sawGroup = true
				}
			case "wal.commit":
				walSpans++
			}
		}
		if serverSpans == 0 {
			t.Fatalf("%s: no server spans for trace %s", step.name, obs.FormatTraceID(id))
		}
		if !sawBarrier || !sawGroup {
			t.Errorf("%s: no server span carries the durability phases (barrier %v, wal.group %v)",
				step.name, sawBarrier, sawGroup)
		}
		if walSpans == 0 {
			t.Errorf("%s: no wal.commit span for trace %s", step.name, obs.FormatTraceID(id))
		}
		client := clSpans.Trace(id)
		if len(client) == 0 {
			t.Fatalf("%s: no client spans for trace %s", step.name, obs.FormatTraceID(id))
		}
		for _, s := range client {
			if !phaseNames(s)["submit.stall"] {
				t.Errorf("%s: client span %q missing submit.stall: %+v", step.name, s.Cmd, s.Phases)
			}
		}
	}

	// SLO quantiles are derived from the traced requests' latency
	// histogram and appear in the server's exposition.
	text := w.reg.Text()
	for _, want := range []string{
		`chirp_request_latency_us_quantile{quantile="0.5"}`,
		`chirp_request_latency_us_quantile{quantile="0.99"}`,
		`chirp_request_latency_us_quantile{quantile="0.999"}`,
		`trace_id=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The slow log (threshold 0) captured every traced server request,
	// as JSONL span records carrying their trace IDs.
	lines := strings.Split(strings.TrimSpace(w.slowLog.String()), "\n")
	logged := make(map[string]bool)
	for _, line := range lines {
		var sp obs.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad slow-log line %q: %v", line, err)
		}
		logged[sp.TraceS] = true
	}
	for i, id := range traces {
		if !logged[obs.FormatTraceID(id)] {
			t.Errorf("step %q trace %s missing from the slow-request log",
				steps[i].name, obs.FormatTraceID(id))
		}
	}

	// Keep the evidence when CI asks for artifacts.
	if dir := os.Getenv("TRACE_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		all, _ := json.MarshalIndent(w.spans.Spans(), "", "  ")
		if err := os.WriteFile(filepath.Join(dir, "spans.json"), all, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "slow_requests.jsonl"), w.slowLog.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTracingDisabledServerStillServes pins the ENOSYS-safety story:
// a traced client against a server without a span ring negotiates v2
// without the capability, runs untraced, and the trace-fetch RPC
// degrades to an empty span list instead of an error.
func TestTracingDisabledServerStillServes(t *testing.T) {
	fs := durableFreeFS(t)
	k := kernel.New(fs.FS(), vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{
		Owner:     "owner",
		RootACL:   rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl, err := chirp.DialOpts(srv.Addr(),
		[]auth.Authenticator{&auth.UnixClient{User: "admin"}},
		chirp.ClientOptions{Spans: obs.NewSpanRing(64)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ws := cl.WindowStats(); ws.Traced {
		t.Fatal("trace capability negotiated against a server without tracing")
	}
	if err := cl.Mkdir("/plain", 0o755); err != nil {
		t.Fatal(err)
	}
	spans, err := cl.TraceSpans(obs.NewTraceID())
	if err != nil {
		t.Fatalf("trace fetch against an untracing server: %v", err)
	}
	if len(spans) != 0 {
		t.Fatalf("expected no spans, got %d", len(spans))
	}
}

// durableFreeFS wraps a plain durable store (no span ring) so the
// disabled-server test still exercises the real stack.
func durableFreeFS(t *testing.T) *durable.Store {
	t.Helper()
	store, err := durable.Open(filepath.Join(t.TempDir(), "state"), durable.Options{Owner: "owner"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// BenchmarkTraceOverhead compares whoami round trips with tracing off
// (no span ring on either end: the wire format and hot path must stay
// untouched, which the alloc gate pins) and on (span ring both sides,
// every request traced end to end).
func BenchmarkTraceOverhead(b *testing.B) {
	for _, v := range []struct {
		name   string
		traced bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(v.name, func(b *testing.B) {
			k := kernel.New(vfs.New("owner"), vclock.Default())
			rootACL := &acl.ACL{}
			rootACL.Set("unix:admin", acl.All, acl.None)
			sopts := chirp.ServerOptions{
				Owner:     "owner",
				RootACL:   rootACL,
				Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
			}
			copts := chirp.ClientOptions{}
			if v.traced {
				sopts.Spans = obs.NewSpanRing(4096)
				copts.Spans = obs.NewSpanRing(4096)
			}
			srv, err := chirp.NewServer(k, sopts)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cl, err := chirp.DialOpts(srv.Addr(),
				[]auth.Authenticator{&auth.UnixClient{User: "admin"}}, copts)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			if ws := cl.WindowStats(); ws.Traced != v.traced {
				b.Fatalf("traced = %v, want %v", ws.Traced, v.traced)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Whoami(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
