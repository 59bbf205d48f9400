package chirp

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// ServerOptions configure a Chirp server.
type ServerOptions struct {
	// Name is the server's advertised name (defaults to the listen
	// address).
	Name string
	// Owner is the local account the server runs as: an ordinary user,
	// not root. Files created on behalf of clients are owned by it.
	Owner string
	// RootACL is installed at the export root if no ACL exists there.
	RootACL *acl.ACL
	// Verifiers are the accepted authentication methods.
	Verifiers map[auth.Method]auth.Verifier
	// Hosts resolves peer addresses for the hostname method and for
	// logging.
	Hosts auth.HostTable
	// CatalogAddr, when set, receives UDP heartbeats.
	CatalogAddr string
	// CASTrust, when set, lets clients present community-authorization
	// assertions ("assert" command); verified grants are unioned with
	// the local ACL rights for paths under the granted prefixes.
	CASTrust *auth.CASVerifier
	// Logf, when set, receives one line per request (debugging). It is
	// called concurrently from every connection goroutine and must be
	// safe for concurrent use (log.Printf and testing.T.Logf both are).
	// Lines carry a session id (sid=N) and request sequence (req=M) so
	// interleaved connections stay correlatable.
	Logf func(format string, args ...any)
	// AuthTimeout bounds the authentication dialogue, so an
	// unauthenticated socket cannot pin a server goroutine (default
	// 10 seconds).
	AuthTimeout time.Duration
	// Metrics, when set, is the registry the server records into
	// (per-command requests, errors, sessions, wire bytes). When nil
	// the server keeps a private registry, reachable via Metrics and
	// exported over the wire by the "metrics" command.
	Metrics *obs.Registry
	// RequestTimeout bounds the wire I/O of each request after its
	// command line arrives (payload read and reply write), so a client
	// that announces a payload and stalls cannot pin a session
	// goroutine. Zero means no per-request deadline.
	RequestTimeout time.Duration
	// Admission, when set, turns on overload protection: every normal
	// request is admitted against a bounded queue (EBUSY with a
	// retry-after hint once depth or the byte budget is exceeded),
	// scheduled onto execution slots fairly per principal, and shed
	// with EDEADLINE at the admit, dispatch, or durability-barrier hop
	// once its deadline budget expires. Control-plane commands (stats,
	// whoami, metrics, trace, waitlsn, replsub, replack) ride an exempt
	// class so overload can never trigger spurious failover. The server
	// echoes the "deadline" capability to v2 clients that request it.
	// Nil keeps admission off and the hot path unchanged.
	Admission *admission.Controller
	// DedupeJournal, when set, receives every tokened reply as it is
	// recorded, so the dedupe table survives a server restart and a
	// retried mutation stays exactly-once across the crash. Journal
	// failures degrade durability, never availability: the reply is
	// still sent and the error only counted and logged.
	DedupeJournal DedupeJournal
	// DedupeSeed pre-populates the dedupe table, normally with the
	// entries a durable store recovered. Keys are principal+token as
	// produced by the journal; values are the stored reply fields.
	DedupeSeed map[string][]string
	// Durability, when set, is barriered before the reply to any
	// mutating command reaches the wire: with a group-commit store this
	// parks the session until the op's commit group is durable, so an
	// acknowledged mutation can never be lost to a crash. Barrier
	// failures degrade durability, never availability — counted,
	// logged, and the reply still sent (matching the store's own
	// degradation contract). The durable store implements this.
	Durability interface{ Barrier() error }
	// Window is the per-session credit window the server advertises
	// during v2 negotiation: the most tagged requests one session may
	// have in flight at once (default DefaultWindow). The client
	// advertises its own cap and the minimum wins; the server enforces
	// the negotiated window against misbehaving clients too.
	Window int
	// MaxInflightBytes is the in-flight payload byte budget the server
	// advertises during v2 negotiation (default
	// DefaultMaxInflightBytes); the minimum of the two sides wins.
	MaxInflightBytes int64
	// Workers sizes the per-session pool executing non-conflicting v2
	// requests concurrently (default 4). Conflicting ops — descriptor
	// table changes, namespace mutations, tokened requests, exec — run
	// on a single ordered lane that preserves per-session FIFO order.
	Workers int
	// MaxProtocol caps the protocol version the server negotiates: 0 or
	// ProtocolV2 accept tagged v2 sessions, ProtocolV1 pins the server
	// to the lock-step line protocol (simulating an old server; v2
	// clients fall back transparently).
	MaxProtocol int
	// Spans, when set, turns on server-side request tracing: the server
	// echoes the trace capability to v2 clients that request it, strips
	// the per-frame trace prefix, records one "server" span per traced
	// request (lane-queue, handler, barrier and reply phases) into this
	// ring, and serves the "trace" RPC from it. Nil keeps tracing off
	// and the hot path unchanged. Spans are wall-clock only — recording
	// them never touches the virtual clock.
	Spans *obs.SpanRing
	// TraceLog, when set, receives every completed traced server span
	// whose total duration reaches TraceSlow, one JSON object per line
	// (the slow-request log). core.JSONLSink satisfies it. Log failures
	// are counted in the server log, never surfaced to the client.
	TraceLog interface{ RecordValue(v any) error }
	// TraceSlow is the slow-request threshold for TraceLog. Zero logs
	// every traced request — what the tracing end-to-end CI step uses to
	// capture complete chains.
	TraceSlow time.Duration
	// Repl, when set, exposes this server's WAL ship stream: v2
	// sessions that negotiate the "repl" capability may subscribe
	// (replsub) and receive every committed group as a pushed frame.
	// Nil refuses replication subscriptions.
	Repl *replica.Publisher
	// Role, when set, makes the server replication-aware: mutating
	// commands are refused with ENOTPRIMARY (naming the current
	// primary) unless the role is primary, stats and heartbeats carry
	// role/epoch/applied-LSN, and waitlsn serves bounded-staleness read
	// barriers. Nil behaves as a standalone primary.
	Role RoleSource
	// HeartbeatEvery re-announces the server to its catalog on this
	// period, keeping the catalog's freshness and role views live. Zero
	// preserves the single at-listen heartbeat.
	HeartbeatEvery time.Duration
}

// RoleSource reports a server's replication role. replica.Node
// implements it; the server only reads.
type RoleSource interface {
	// Role reports the node's role (replica.RolePrimary et al.) and
	// fencing epoch.
	Role() (string, uint64)
	// AppliedLSN reports the highest LSN applied to local state.
	AppliedLSN() uint64
	// WaitApplied blocks until local state reflects lsn (bounded by
	// timeout) — the waitlsn read barrier.
	WaitApplied(lsn uint64, timeout time.Duration) error
	// PrimaryAddr reports where writes should be sent.
	PrimaryAddr() string
}

// DedupeJournal persists tokened replies across restarts. The durable
// store implements it; the server stays ignorant of how entries reach
// stable storage.
type DedupeJournal interface {
	AppendDedupe(key string, reply []string) error
}

// logger is a structured printf sink that is safe to call when no sink
// is configured, so call sites never nil-check. with() stacks
// correlation prefixes (sid=N, then req=M per line).
type logger struct {
	sink   func(format string, args ...any)
	prefix string
}

// on reports whether lines go anywhere. Per-request call sites check it
// first, so a server without a sink does not box a line's arguments.
func (l logger) on() bool { return l.sink != nil }

func (l logger) printf(format string, args ...any) {
	if l.sink == nil {
		return
	}
	if l.prefix != "" {
		format = l.prefix + " " + format
	}
	l.sink(format, args...)
}

// with returns a logger whose lines carry an additional prefix.
func (l logger) with(prefix string) logger {
	if l.prefix != "" {
		prefix = l.prefix + " " + prefix
	}
	return logger{sink: l.sink, prefix: prefix}
}

// Metric names exported by every server.
const (
	MetricRequests = "chirp_requests_total"
	MetricErrors   = "chirp_errors_total"
	MetricSessions = "chirp_sessions_total"
	MetricRxBytes  = "chirp_rx_bytes_total"
	MetricTxBytes  = "chirp_tx_bytes_total"
	MetricConns    = "chirp_open_conns"

	// ACL directory lookups, and how many of them had to parse an ACL
	// file because no parse of that file version was memoised: the
	// ratio is the policy check's miss rate.
	MetricACLChecks = "chirp_acl_checks_total"
	MetricACLParses = "chirp_acl_parses_total"
)

// srvMetrics caches the server's metric handles.
type srvMetrics struct {
	reg           *obs.Registry
	requests      []*obs.Counter // per command, indexed by cmdSpec.idx
	unknownCmd    *obs.Counter   // every name the table does not know, as one series
	errors        *obs.Counter
	sessions      *obs.Counter
	rxBytes       *obs.Counter
	txBytes       *obs.Counter
	conns         *obs.Gauge
	dedupeHits    *obs.Counter
	dedupeEntries *obs.Gauge
	dedupeBytes   *obs.Gauge
	dedupeEvicts  *obs.Counter
	dedupeJErrs   *obs.Counter
	draining      *obs.Gauge
	barrierErrs   *obs.Counter
	tagsInFlight  *obs.Gauge
	bpStalls      *obs.Counter
	occupancy     *obs.Histogram
	v2Sessions    *obs.Counter
	requestLat    *obs.Histogram
	aclChecks     *obs.Counter
	aclParses     *obs.Counter
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	reg.Help(MetricRequests, "Requests dispatched, by command.")
	reg.Help(MetricErrors, "Requests answered with an error reply.")
	reg.Help(MetricSessions, "Sessions authenticated since start.")
	reg.Help(MetricRxBytes, "Bytes received on client connections.")
	reg.Help(MetricTxBytes, "Bytes sent on client connections.")
	reg.Help(MetricConns, "Connections currently tracked.")
	reg.Help(MetricDedupeHits, "Tokened retries answered from the dedupe table.")
	reg.Help(MetricDedupeEntries, "Replies currently held in the dedupe table.")
	reg.Help(MetricDedupeBytes, "Approximate bytes held by the dedupe table.")
	reg.Help(MetricDedupeEvictions, "Dedupe entries evicted by the entry or byte bound.")
	reg.Help(MetricDedupeJournalErrs, "Tokened replies that failed to persist to the dedupe journal.")
	reg.Help(MetricDraining, "1 while the server is draining for shutdown.")
	reg.Help(MetricBarrierErrs, "Commit barriers that failed before a mutating reply (durability degraded).")
	reg.Help(MetricPayloadPoolHits, "Payloads served from pooled codec scratch (process-wide).")
	reg.Help(MetricPayloadPoolMisses, "Payloads that had to grow codec scratch (process-wide).")
	reg.Help(MetricTagsInFlight, "Tagged requests currently admitted across v2 sessions.")
	reg.Help(MetricBackpressureStalls, "Frames that waited for credit-window space before dispatch.")
	reg.Help(MetricWindowOccupancy, "Window occupancy observed at each v2 frame admission.")
	reg.Help(MetricV2Sessions, "Sessions that negotiated protocol v2 since start.")
	reg.Help(MetricRequestLatency, "Request latency, arrival to reply flushed, in microseconds (traced requests leave exemplars).")
	reg.Help(MetricACLChecks, "Effective-ACL lookups made by permission checks, getacl and mkdir.")
	reg.Help(MetricACLParses, "ACL files parsed (lookups that found no memoised parse of the file's current version).")
	requests := make([]*obs.Counter, len(commandTable))
	for i, c := range commandTable {
		requests[i] = reg.Counter(obs.With(MetricRequests, "cmd", c.name))
	}
	reg.GaugeFunc(MetricPayloadPoolHits, poolHits.Load)
	reg.GaugeFunc(MetricPayloadPoolMisses, poolMisses.Load)
	return &srvMetrics{
		requests:      requests,
		unknownCmd:    reg.Counter(obs.With(MetricRequests, "cmd", "unknown")),
		reg:           reg,
		errors:        reg.Counter(MetricErrors),
		sessions:      reg.Counter(MetricSessions),
		rxBytes:       reg.Counter(MetricRxBytes),
		txBytes:       reg.Counter(MetricTxBytes),
		conns:         reg.Gauge(MetricConns),
		dedupeHits:    reg.Counter(MetricDedupeHits),
		dedupeEntries: reg.Gauge(MetricDedupeEntries),
		dedupeBytes:   reg.Gauge(MetricDedupeBytes),
		dedupeEvicts:  reg.Counter(MetricDedupeEvictions),
		dedupeJErrs:   reg.Counter(MetricDedupeJournalErrs),
		draining:      reg.Gauge(MetricDraining),
		barrierErrs:   reg.Counter(MetricBarrierErrs),
		tagsInFlight:  reg.Gauge(MetricTagsInFlight),
		bpStalls:      reg.Counter(MetricBackpressureStalls),
		occupancy:     reg.Histogram(MetricWindowOccupancy, []float64{1, 2, 4, 8, 16, 32, 64}),
		v2Sessions:    reg.Counter(MetricV2Sessions),
		requestLat:    reg.Histogram(MetricRequestLatency, requestLatencyBuckets()),
		aclChecks:     reg.Counter(MetricACLChecks),
		aclParses:     reg.Counter(MetricACLParses),
	}
}

// Negotiation caps with defaults applied.
func (s *Server) window() int {
	if s.opts.Window > 0 {
		return s.opts.Window
	}
	return DefaultWindow
}

func (s *Server) maxInflightBytes() int64 {
	if s.opts.MaxInflightBytes > 0 {
		return s.opts.MaxInflightBytes
	}
	return DefaultMaxInflightBytes
}

func (s *Server) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return 4
}

func (s *Server) maxProtocol() int {
	if s.opts.MaxProtocol > 0 {
		return s.opts.MaxProtocol
	}
	return ProtocolV2
}

// Server is a Chirp file server exporting the file system of a simulated
// kernel. It requires no privilege to run: deploying one is an
// ordinary-user operation, and visiting users are admitted purely by
// ACL policy over their authenticated identities.
// Connection goroutines share only the kernel/VFS (internally locked),
// the connection registry under s.mu, and atomic counters; every other
// piece of session state (descriptor table, CAS grants, codec) is owned
// by its single connection goroutine.
type Server struct {
	k    *kernel.Kernel
	fs   *vfs.FS
	opts ServerOptions

	ln       net.Listener
	mu       sync.Mutex // guards closed, draining and conns
	closed   bool
	draining bool // refusing new connections, finishing in-flight RPCs
	conns    map[net.Conn]*connState
	wg       sync.WaitGroup
	stop     chan struct{} // closed once, when Close or Shutdown begins
	stopOnce sync.Once

	log      logger
	metrics  *srvMetrics
	dedupe   *dedupeTable
	parseACL func(data []byte) any // bound once, so aclFor makes no per-call closure
	src      source                // the server as internal/policy reads it

	requests atomic.Int64 // requests dispatched, across all sessions
	sessions atomic.Int64 // authenticated sessions accepted, lifetime
	errors   atomic.Int64 // error replies sent, across all sessions
	rxBytes  atomic.Int64 // wire bytes received from clients
	txBytes  atomic.Int64 // wire bytes sent to clients
}

// NewServer creates a server exporting k's file system. The root ACL is
// installed if the export root has none.
func NewServer(k *kernel.Kernel, opts ServerOptions) (*Server, error) {
	if opts.Owner == "" {
		opts.Owner = "chirp"
	}
	s := &Server{k: k, fs: k.FS(), opts: opts, conns: make(map[net.Conn]*connState), stop: make(chan struct{})}
	s.log = logger{sink: opts.Logf}
	s.dedupe = newDedupeTable(dedupeTableEntries, dedupeTableBytes)
	for key, reply := range opts.DedupeSeed {
		s.dedupe.store(key, reply)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newSrvMetrics(reg)
	s.parseACL = s.parseACLVersion
	s.src = source{s.fs, s}
	if _, size := s.dedupe.stats(); size > 0 {
		s.syncDedupeMetrics()
	}
	if opts.RootACL != nil && !s.fs.Exists("/"+acl.FileName) {
		if err := s.fs.WriteFile("/"+acl.FileName, []byte(opts.RootACL.String()), 0o644, opts.Owner); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Listen binds the server to addr ("127.0.0.1:0" for an ephemeral port)
// and begins serving in background goroutines.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.opts.Name == "" {
		s.opts.Name = ln.Addr().String()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.opts.CatalogAddr != "" {
		s.SendHeartbeat()
		if every := s.opts.HeartbeatEvery; every > 0 {
			s.wg.Add(1)
			go s.heartbeatLoop(every)
		}
	}
	return nil
}

// heartbeatLoop re-announces the server to the catalog until shutdown,
// so the catalog's last-seen ages and role views stay fresh.
func (s *Server) heartbeatLoop(every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.SendHeartbeat(); err != nil {
				s.log.printf("heartbeat: %v", err)
			}
		}
	}
}

// Addr reports the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, severs live sessions immediately, and waits
// for the connection goroutines to drain. For a graceful stop that
// lets in-flight RPCs finish, use Shutdown.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	already := s.severAll()
	var err error
	if s.ln != nil && !already {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// severAll marks the server closed and cuts every live session,
// reporting whether the server was closed already. Every session is
// marked severed before any connection is closed: a severed session
// writes no more replies, so one connection going away (a follower's
// ship stream, say, whose loss degrades the semi-sync barrier to local
// durability) can never let another session acknowledge work in the
// gap before its own connection closes.
func (s *Server) severAll() (already bool) {
	s.mu.Lock()
	already = s.closed
	s.closed = true
	conns := make(map[net.Conn]*connState, len(s.conns))
	for c, st := range s.conns {
		conns[c] = st
	}
	s.mu.Unlock()
	// Sever outside s.mu: the abort hook takes the session slot mutex,
	// which workers hold while consulting server state.
	for _, st := range conns {
		st.sever()
	}
	for c := range conns {
		c.Close()
	}
	return already
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, lets every in-flight RPC finish, nudges idle sessions
// off their blocking reads, and waits up to timeout for the connection
// goroutines to exit before severing stragglers. It returns an error
// if any session had to be severed.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	s.metrics.draining.Set(1)
	ln := s.ln
	for c, st := range s.conns {
		if !st.busy.Load() {
			// An idle session is parked in readLine; expiring its read
			// deadline pops it out so the goroutine can exit. Busy
			// sessions notice draining after their current dispatch.
			c.SetReadDeadline(time.Now())
		}
	}
	s.mu.Unlock()
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	severed := false
	select {
	case <-done:
	case <-time.After(timeout):
		severed = true
	}
	s.severAll()
	s.wg.Wait()
	if severed {
		return fmt.Errorf("chirp: drain timed out after %v; severed remaining sessions", timeout)
	}
	return lnErr
}

// connState is the server's per-connection bookkeeping shared with the
// drain path: busy is true while a request is being dispatched, and
// abort (set once the connection has authenticated into a session)
// marks the session severed when the server cuts the connection.
type connState struct {
	busy  atomic.Bool
	abort atomic.Value // func()
}

// sever calls the session's abort hook, if one is registered.
func (st *connState) sever() {
	if f, ok := st.abort.Load().(func()); ok {
		f()
	}
}

// track registers a live connection; it reports nil when the server is
// closing or draining (the caller should drop the connection).
func (s *Server) track(c net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil
	}
	st := &connState{}
	s.conns[c] = st
	s.metrics.conns.Inc()
	return st
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.conns.Dec()
}

// SendHeartbeat reports the server to its catalog over UDP. A
// replication-aware server (opts.Role set) appends epoch/lsn/role
// tokens; an old catalog ignores trailing tokens it does not know.
func (s *Server) SendHeartbeat() error {
	if s.opts.CatalogAddr == "" {
		return errors.New("chirp: no catalog configured")
	}
	conn, err := net.Dial("udp", s.opts.CatalogAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	line := fmt.Sprintf("chirp %s %s %s", q(s.opts.Name), q(s.Addr()), q(s.opts.Owner))
	if rs := s.opts.Role; rs != nil {
		role, epoch := rs.Role()
		line += fmt.Sprintf(" epoch=%d lsn=%d role=%s", epoch, rs.AppliedLSN(), role)
	}
	_, err = fmt.Fprintln(conn, line)
	return err
}

// ReseedDedupe folds entries — the dedupe journal a durable store
// recovered — into the live dedupe table. A promoted follower calls it
// so tokened retries the old primary already answered replay here
// instead of re-executing: the journal replicated with the WAL, so the
// table converges on exactly the replies the old primary acknowledged.
func (s *Server) ReseedDedupe(entries map[string][]string) {
	for key, reply := range entries {
		s.dedupe.store(key, reply)
	}
	if _, size := s.dedupe.stats(); size > 0 {
		s.syncDedupeMetrics()
	}
}

// syncDedupeMetrics mirrors the dedupe table's size gauges. The
// eviction counter is advanced at each store by its return value, not
// here, so it stays monotonic under concurrent sessions.
func (s *Server) syncDedupeMetrics() {
	_, size := s.dedupe.stats()
	bytes, _ := s.dedupe.byteStats()
	s.metrics.dedupeEntries.Set(int64(size))
	s.metrics.dedupeBytes.Set(bytes)
}

// countingConn wraps a client connection so every wire byte — including
// the authentication dialogue — lands in the server's traffic counters.
type countingConn struct {
	net.Conn
	s *Server
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.s.rxBytes.Add(int64(n))
		c.s.metrics.rxBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.s.txBytes.Add(int64(n))
		c.s.metrics.txBytes.Add(int64(n))
	}
	return n, err
}

// Metrics returns the registry the server records into (the one
// supplied via ServerOptions.Metrics, or the server's private one).
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return
			}
			log.Printf("chirp: accept: %v", err)
			return
		}
		st := s.track(conn)
		if st == nil {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn, st)
		}()
	}
}

// isDraining reports whether the server has begun a graceful shutdown.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RequestCount reports the number of requests dispatched across all
// sessions since the server started.
func (s *Server) RequestCount() int64 { return s.requests.Load() }

// SessionCount reports the number of sessions authenticated since the
// server started (not just the currently live ones).
func (s *Server) SessionCount() int64 { return s.sessions.Load() }

// ErrorCount reports the number of error replies sent since the server
// started.
func (s *Server) ErrorCount() int64 { return s.errors.Load() }
