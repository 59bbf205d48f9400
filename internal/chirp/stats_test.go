package chirp

import (
	"crypto/rsa"
	"strings"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// TestStatsMatchClientTallies drives a handful of RPCs and checks the
// wire-visible counters against the client's own bookkeeping: every
// request the client sent must show up in the server's dispatch count,
// and the byte counters must be live and nonzero.
func TestStatsMatchClientTallies(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")

	if err := cl.Mkdir("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/data/f", []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetFile("/data/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stat("/data/f"); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The client counts every line it sends, including the stats
	// request itself; the server counts every line it dispatches.
	// With a single client they must agree exactly.
	if st.Requests != cl.RequestCount() {
		t.Errorf("server dispatched %d requests, client sent %d", st.Requests, cl.RequestCount())
	}
	if st.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", st.Sessions)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
	if st.RxBytes <= 0 || st.TxBytes <= 0 {
		t.Errorf("byte counters not live: rx=%d tx=%d", st.RxBytes, st.TxBytes)
	}
	// The handshake happens before any RPC, so the server must have
	// read more bytes than the RPC lines alone would account for.
	if st.Name != "testserver" {
		t.Errorf("name = %q", st.Name)
	}

	// A second stats call advances the dispatch count in lockstep. The
	// server counts a reply's bytes once its write returns, which the
	// client's next request can race: wait for the first reply's count.
	waitFor(t, "the first stats reply to be counted", func() bool { return srv.txBytes.Load() > st.TxBytes })
	st2, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Requests != st.Requests+1 {
		t.Errorf("requests went %d -> %d, want +1", st.Requests, st2.Requests)
	}
	if st2.TxBytes <= st.TxBytes {
		t.Errorf("tx bytes did not advance: %d -> %d", st.TxBytes, st2.TxBytes)
	}
}

// TestStatsCountErrors checks that denied operations increment the
// error counter visible over the wire.
func TestStatsCountErrors(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")

	// The root directory grants Fred reserve, not write: creating a
	// file directly under / must fail and count as an error.
	if err := cl.PutFile("/forbidden", []byte("x"), 0o644); err == nil {
		t.Fatal("expected a denial writing to /")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors == 0 {
		t.Error("denied RPC did not count as an error")
	}
	if got := srv.ErrorCount(); got != st.Errors {
		t.Errorf("ErrorCount() = %d, stats reply says %d", got, st.Errors)
	}
}

// TestMetricsRPC fetches the Prometheus exposition over the wire and
// checks the per-command series reflect the RPCs this session issued.
func TestMetricsRPC(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")

	if err := cl.Mkdir("/data", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}
	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`chirp_requests_total{cmd="mkdir"} 1`,
		`chirp_requests_total{cmd="stats"} 1`,
		`chirp_requests_total{cmd="metrics"} 1`,
		"chirp_sessions_total 1",
		"chirp_open_conns 1",
		"chirp_rx_bytes_total",
		"chirp_tx_bytes_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// The server's registry is the same one serving the RPC.
	if got := srv.Metrics().Counter(obs.With(MetricRequests, "cmd", "mkdir")).Value(); got != 1 {
		t.Errorf("registry mkdir count = %d", got)
	}
	// The pool gauges sample the process-wide counters when read; no
	// reply has to pass for them to be current.
	before := srv.Metrics().Gauge(MetricPayloadPoolHits).Value()
	new(payloadScratch).bytes(0)
	if after := srv.Metrics().Gauge(MetricPayloadPoolHits).Value(); after <= before {
		t.Errorf("%s read %d, then %d after a pool hit", MetricPayloadPoolHits, before, after)
	}
}

// TestSharedRegistryAcrossServers checks the get-or-create semantics:
// two servers handed the same registry via ServerOptions.Metrics
// aggregate into shared series.
func TestSharedRegistryAcrossServers(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 2; i++ {
		srv, ca := testServerWithRegistry(t, reg)
		cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
		if _, err := cl.Whoami(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter(MetricSessions).Value(); got != 2 {
		t.Errorf("shared sessions counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.With(MetricRequests, "cmd", "whoami")).Value(); got != 2 {
		t.Errorf("shared whoami counter = %d, want 2", got)
	}
}

func testServerWithRegistry(t *testing.T, reg *obs.Registry) (*Server, *auth.CA) {
	t.Helper()
	fs := vfs.New("chirpowner")
	k := kernel.New(fs, vclock.Default())
	ca, err := auth.NewCA("UnivNowhereCA")
	if err != nil {
		t.Fatal(err)
	}
	rootACL := &acl.ACL{}
	rootACL.Set("globus:/O=UnivNowhere/*", acl.Reserve|acl.List, acl.All)
	srv, err := NewServer(k, ServerOptions{
		Name:    "shared",
		Owner:   "chirpowner",
		RootACL: rootACL,
		Metrics: reg,
		Verifiers: map[auth.Method]auth.Verifier{
			auth.MethodGlobus: &auth.GSIVerifier{TrustedCAs: map[string]*rsa.PublicKey{"UnivNowhereCA": ca.PublicKey()}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, ca
}
