package chirp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/identity"
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

// session is one authenticated connection.
//
// The connection goroutine is the session's reader. On a v1 session it
// also runs each request inline (the framing's window is 1), so it owns
// everything. A session that upgrades to v2 becomes concurrent: the
// reader owns the codec's read side, workers share the write side under
// writeMu, and the descriptor table and CAS grants get their own
// RWMutexes. Lock order: fdMu and grantsMu are leaves (nothing else is
// acquired under them); writeMu is taken only around one reply's
// queue+flush and never with another session lock held.
type session struct {
	s     *Server
	id    int64 // session sequence number, for log correlation
	log   logger
	reqs  int64 // requests dispatched on this session (reader-owned)
	ident identity.Principal
	conn  net.Conn   // for per-request deadlines
	state *connState // busy flag shared with the drain path
	c     *codec

	fdMu   sync.RWMutex // guards fds and nextFD
	fds    map[int]*sessionFD
	nextFD int

	// grants are CAS-granted rights, verified against CASTrust.
	grantsMu sync.RWMutex
	grants   []auth.Grant

	// v2 is the framing the session speaks: nil is the v1 line framing,
	// non-nil the tagged frames a successful version exchange negotiated.
	// The reader sets it before starting the lanes, so workers (and the
	// replication pusher) read it without a lock.
	v2 *v2Conf

	// v2 credit-window state: slotMu/slotCond gate frame admission so at
	// most window requests are in flight per session. stopping is set
	// by abort() when the server severs the connection: it wakes a
	// reader parked on a full window and tells the lane workers to
	// drop queued jobs instead of executing them toward a dead socket.
	slotMu   sync.Mutex
	slotCond *sync.Cond
	inflight int
	stopping atomic.Bool

	writeMu sync.Mutex // serializes replies on the shared codec

	// replSub is the session's live replication subscription; pushWG
	// tracks its pusher goroutine so the codec is not released under it.
	replMu  sync.Mutex
	replSub *replica.Subscription
	pushWG  sync.WaitGroup
}

// v2Conf is the outcome of a version negotiation.
type v2Conf struct {
	window    int
	maxBytes  int64
	traced    bool // both sides negotiated the trace capability
	repl      bool // both sides negotiated the repl capability
	deadlined bool // both sides negotiated the deadline capability
}

// --- session state accessors (v2 workers run concurrently) -------------

func (sess *session) lookupFD(fd int) (*sessionFD, bool) {
	sess.fdMu.RLock()
	d, ok := sess.fds[fd]
	sess.fdMu.RUnlock()
	return d, ok
}

func (sess *session) addFD(d *sessionFD) int {
	sess.fdMu.Lock()
	fd := sess.nextFD
	sess.nextFD++
	sess.fds[fd] = d
	sess.fdMu.Unlock()
	return fd
}

func (sess *session) removeFD(fd int) bool {
	sess.fdMu.Lock()
	_, ok := sess.fds[fd]
	if ok {
		delete(sess.fds, fd)
	}
	sess.fdMu.Unlock()
	return ok
}

func (sess *session) fdCount() int {
	sess.fdMu.RLock()
	defer sess.fdMu.RUnlock()
	return len(sess.fds)
}

func (sess *session) grantCount() int {
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	return len(sess.grants)
}

type sessionFD struct {
	h     *vfs.Handle
	path  string
	flags int
}

func (s *Server) serveConn(conn net.Conn, st *connState) {
	remoteHost, _, _ := net.SplitHostPort(conn.RemoteAddr().String())
	wire := countingConn{Conn: conn, s: s}
	authTimeout := s.opts.AuthTimeout
	if authTimeout <= 0 {
		authTimeout = 10 * time.Second
	}
	if err := conn.SetDeadline(time.Now().Add(authTimeout)); err != nil {
		s.log.printf("setting auth deadline for %s: %v", remoteHost, err)
	}
	ac := auth.NewConn(wire)
	ident, err := auth.ServerNegotiate(ac, s.opts.Verifiers, remoteHost)
	if err != nil {
		s.log.printf("auth failed from %s: %v", remoteHost, err)
		return
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		s.log.printf("clearing auth deadline for %s: %v", remoteHost, err)
		return
	}
	sid := s.sessions.Add(1)
	s.metrics.sessions.Inc()
	sess := &session{
		s:      s,
		id:     sid,
		log:    s.log.with(fmt.Sprintf("sid=%d", sid)),
		ident:  ident,
		conn:   conn,
		state:  st,
		c:      newCodec(wire),
		fds:    make(map[int]*sessionFD),
		nextFD: 1,
	}
	sess.slotCond = sync.NewCond(&sess.slotMu)
	st.abort.Store(func() { sess.abort() })
	sess.log.printf("session for %s from %s", ident, remoteHost)
	sess.loop()
	sess.closeReplSub()
	sess.pushWG.Wait() // the pusher writes through the codec; outlast it
	sess.c.release()
}

// closeReplSub detaches the session's replication subscription, waking
// its pusher goroutine if one is blocked waiting for batches.
func (sess *session) closeReplSub() {
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replSub = nil
	sess.replMu.Unlock()
	if sub != nil {
		sub.Close()
	}
}

// isDraining reports whether the server has begun a graceful shutdown.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// request is one parsed request on its way through the pipeline,
// whichever framing carried it. The payload is request-owned (freshly
// allocated by the reader), so workers never share buffers.
type request struct {
	tag      uint64   // frame tag; 0 on v1, where replies match by order
	spec     *cmdSpec // the command's table row (nil: unknown command)
	cmd      string   // the command, unwrapped from any token prefix
	args     []string
	token    string // idempotency token the request came wrapped in
	ordered  bool   // runs on the ordered lane
	payload  []byte
	trace    uint64    // request-tracing ID (0 untraced)
	deadline time.Time // budget anchored at arrival (zero: none)
	arrived  time.Time // when the request was read off the wire
	ticket   *admission.Ticket
	bad      string // why the reader refuses it (EINVAL), if it does
}

// loop is the session's reader, the same for both framings: it pulls
// one request at a time through the framing adapter (readRequest),
// counts it, passes it through admission, and hands it to the one
// pipeline (serve) — inline on a v1 session, whose window is 1, or on
// the worker lanes once a version exchange has upgraded the session to
// tagged frames, where the credit window applies backpressure by simply
// not reading the next frame.
func (sess *session) loop() {
	var ln lanes
	defer ln.close() // all replies flushed before the codec is released
	for !sess.s.isDraining() && sess.step(&ln) {
	}
}

// step reads and dispatches one request; false ends the session.
func (sess *session) step(ln *lanes) bool {
	s := sess.s
	// The reader's own replies (farewell, refusals, the version exchange)
	// are built in the codec's scratch, which on v2 only the reader uses.
	sc := sess.c.scratch
	req, err := sess.readRequest()
	if err != nil {
		return false // connection closed (or drain nudge expired the read)
	}
	if sess.v2 == nil {
		// A v1 session is busy from the line's arrival until its reply;
		// v2 sessions track busy by window occupancy (acquireSlot).
		defer sess.state.busy.Store(false)
	}
	if req.cmd == "quit" && req.bad == "" {
		ln.close() // every pending reply precedes the farewell ack
		sess.reply(req.tag, hres{line: sc.ok()})
		return false
	}
	if req.cmd != "" {
		s.requests.Add(1)
		sess.reqs++
		if req.spec != nil {
			s.metrics.requests[req.spec.idx].Inc()
		} else {
			// One series for every unknown name: a peer must not be able
			// to mint registry entries by inventing commands.
			s.metrics.unknownCmd.Inc()
		}
		if sess.log.on() {
			sess.log.printf("req=%d tag=%d %s: %s %v", sess.reqs, req.tag, sess.ident, req.cmd, req.args)
		}
	}
	if req.bad != "" {
		return sess.reply(req.tag, sess.failf(sc, vfs.ErrInvalid, req.bad)) == nil
	}
	if req.cmd == "version" && sess.v2 == nil {
		return sess.serveVersion(req.args, ln) == nil
	}
	// Admission: the overload controller sheds expired work and rejects
	// over a bounded queue here, before the request consumes a window
	// slot or a worker. Control-plane commands ride the exempt class
	// (nil ticket) so overload can never choke lease heartbeats or
	// replication traffic.
	if adm := s.opts.Admission; adm != nil {
		class := admission.Normal
		if req.spec.has(fControl) {
			class = admission.Control
		}
		tk, aerr := adm.Admit(sess.ident.String(), class, len(req.payload), req.deadline)
		if aerr != nil {
			return sess.reply(req.tag, sess.admissionRefusal(sc, aerr)) == nil
		}
		req.ticket = tk
	}
	if sess.v2 == nil {
		sess.serve(req, sc)
		return true
	}
	if !sess.acquireSlot(sess.v2.window) {
		req.ticket.Done()
		return false // server severing this session: stop reading
	}
	if req.ordered {
		ln.ordered <- req
	} else {
		ln.pool <- req
	}
	return true
}

// readRequest is the framing adapter: it reads the next request off the
// wire in whichever framing the session speaks and parses it against
// the command table. v1: a line, then the counted payload the table
// says the line announces; no tag, no prefixes. v2: one tagged frame
// carrying line and payload, the line optionally led by the negotiated
// "trace <id>" and "deadline <ms>" prefixes. RequestTimeout bounds what
// is read after the first bytes (the line, or the frame header) have
// arrived, so a peer that announces a payload and stalls cannot pin
// the session. A request the reader refuses comes back with bad set;
// an error means the session is over.
func (sess *session) readRequest() (req request, err error) {
	var line string
	v2 := sess.v2
	if v2 == nil {
		if line, err = sess.c.readLine(); err != nil {
			return req, err
		}
		sess.state.busy.Store(true)
	} else {
		h, err := sess.c.readFrameHeader()
		if err != nil {
			return req, err
		}
		req.tag = h.tag
		sess.boundRead(true)
		if line, err = sess.c.readFrameLine(h.lineLen); err != nil {
			return req, err
		}
		if h.payloadLen > 0 {
			req.payload = make([]byte, h.payloadLen)
			if err := sess.c.readPayloadInto(req.payload); err != nil {
				return req, err
			}
		}
		sess.boundRead(false)
	}
	req.arrived = time.Now()
	fields, perr := splitFields(line)
	if perr != nil || len(fields) == 0 {
		req.bad = "malformed request"
		return req, nil
	}
	// Prefixes need at least 3 fields, so a bare "trace <id>" line stays
	// the trace-fetch RPC and a malformed bare line is never mistaken
	// for a prefix. They are stripped here: everything downstream sees
	// the plain line.
	if v2 != nil && v2.traced && len(fields) >= 3 && fields[0] == capTrace {
		if id, perr := obs.ParseTraceID(fields[1]); perr == nil && id != 0 {
			req.trace, fields = id, fields[2:]
		}
	}
	if v2 != nil && v2.deadlined && len(fields) >= 3 && fields[0] == capDeadline {
		if ms, perr := strconv.ParseUint(fields[1], 10, 32); perr == nil {
			req.deadline = req.arrived.Add(time.Duration(ms) * time.Millisecond)
			fields = fields[2:]
		}
	}
	req.cmd, req.args = fields[0], fields[1:]
	req.spec = commandByName[req.cmd]
	req.ordered = req.spec.has(fOrdered)
	if req.cmd == "token" {
		// `token <id> <cmd> ...`: the inner command is what is counted,
		// admitted and executed; the token keys its reply for replay.
		if len(req.args) < 2 {
			req.bad = "token wants a token and a command"
			return req, nil
		}
		req.token, req.cmd, req.args = req.args[0], req.args[1], req.args[2:]
		if req.spec = commandByName[req.cmd]; !req.spec.has(fTokenable) {
			req.bad = "command not tokenable: " + req.cmd
		}
	}
	if n, ok := req.spec.payloadLen(req.args); ok && v2 == nil {
		// Consume exactly what the line announces so the wire stays
		// aligned whatever becomes of the request; a length over the
		// command's limit is discarded unbuffered and refused by serve.
		sess.boundRead(true)
		if n > req.spec.payloadMax {
			_, err = sess.c.r.Discard(n)
		} else {
			req.payload = make([]byte, n)
			err = sess.c.readPayloadInto(req.payload)
		}
		if err != nil {
			return req, err // transport failure mid-payload
		}
		sess.boundRead(false)
	}
	return req, nil
}

// boundRead arms (or clears) the per-request read deadline.
func (sess *session) boundRead(on bool) {
	rt := sess.s.opts.RequestTimeout
	if rt <= 0 {
		return
	}
	var t time.Time
	if on {
		t = time.Now().Add(rt)
	}
	if err := sess.conn.SetReadDeadline(t); err != nil {
		sess.log.printf("request read deadline: %v", err)
	}
}

// serveVersion answers the protocol negotiation a v2 client opens with,
// and on success switches the session to tagged frames. The exchange
// itself is v1: one line, one reply. A server pinned to v1 answers
// ENOSYS exactly as an old binary (which has no "version" command at
// all) would, and the client falls back.
func (sess *session) serveVersion(args []string, ln *lanes) error {
	s, sc := sess.s, sess.c.scratch
	if s.maxProtocol() < ProtocolV2 {
		return sess.reply(0, sess.failf(sc, kernel.ErrNoSys, "unknown command version"))
	}
	v, w, b, caps, err := parseVersionArgs(args)
	if err != nil || v < ProtocolV2 {
		return sess.reply(0, sess.failf(sc, vfs.ErrInvalid, "bad version exchange"))
	}
	conf := &v2Conf{window: s.window(), maxBytes: s.maxInflightBytes()}
	if w < conf.window {
		conf.window = w
	}
	if b < conf.maxBytes {
		conf.maxBytes = b
	}
	// Capability tokens: echoed only when both sides support them, so a
	// client never sends trace context to a server that cannot strip it.
	conf.traced = s.opts.Spans != nil && hasCap(caps, capTrace)
	conf.repl = s.opts.Repl != nil && hasCap(caps, capRepl)
	conf.deadlined = s.opts.Admission != nil && hasCap(caps, capDeadline)
	ok := sc.ok().int(ProtocolV2).int(int64(conf.window)).int(conf.maxBytes)
	if conf.traced {
		ok.str(capTrace)
	}
	if conf.repl {
		ok.str(capRepl)
	}
	if conf.deadlined {
		ok.str(capDeadline)
	}
	if err := sess.reply(0, hres{line: ok}); err != nil {
		return err
	}
	// The ok went out as a line; everything from here on is tagged frames.
	sess.v2 = conf
	s.metrics.v2Sessions.Inc()
	sess.log.printf("upgraded to protocol 2 (window=%d maxbytes=%d traced=%v)", conf.window, conf.maxBytes, conf.traced)
	ln.start(sess, conf.window, s.workers())
	return nil
}

var errSevered = errors.New("chirp: session severed")

// lanes are a v2 session's executors: an ordered lane (one goroutine,
// FIFO) runs conflicting commands in submission order while a small
// pool runs the rest concurrently.
type lanes struct {
	ordered, pool chan request
	wg            sync.WaitGroup
	once          sync.Once
}

func (ln *lanes) start(sess *session, window, workers int) {
	ln.ordered = make(chan request, window)
	ln.pool = make(chan request, window)
	ln.wg.Add(1 + workers)
	go sess.worker(ln, ln.ordered)
	for i := 0; i < workers; i++ {
		go sess.worker(ln, ln.pool)
	}
}

// close stops the lanes and waits for every queued reply to flush. It
// is a no-op on a session that never upgraded.
func (ln *lanes) close() {
	ln.once.Do(func() {
		if ln.ordered != nil {
			close(ln.ordered)
			close(ln.pool)
			ln.wg.Wait()
		}
	})
}

func (sess *session) worker(ln *lanes, ch <-chan request) {
	defer ln.wg.Done()
	sc := scratchPool.Get().(*payloadScratch)
	defer scratchPool.Put(sc)
	for req := range ch {
		if sess.isStopping() {
			// Severed: the socket is gone, no reply can reach the
			// client — drop queued work instead of executing it.
			req.ticket.Done()
		} else {
			sess.serve(req, sc)
		}
		sess.releaseSlot()
	}
}

// tracedDurability is the optional extension of the Durability barrier
// the server probes for: internal/durable's Store implements it,
// reporting the covering commit group's write+fsync latency, so a trace
// can show WAL time explicitly.
type tracedDurability interface {
	BarrierTraced() (wait, commit time.Duration, err error)
}

// stamps are the pipeline's wall-clock marks. Taking them allocates
// nothing, so every request does; only a traced one turns them into a
// span. Virtual time is never touched.
type stamps struct {
	handler, handled, barriered time.Time // zero when the stage never ran
	commitLat                   time.Duration
}

// serve is the one request pipeline, run for every admitted request of
// either framing: execute produces the reply, serve delivers it and
// accounts for it. sc is the caller's scratch: the reply line and a
// pread body are built in it, and it is reused only for the caller's
// next request, after this reply is flushed.
func (sess *session) serve(req request, sc *payloadScratch) {
	s := sess.s
	// The admission ticket is released when the reply (or shed) is on
	// the wire, whatever path the request took; Done on a nil ticket
	// (admission off, or an exempt control command) is a no-op.
	defer req.ticket.Done()
	var st stamps
	res := sess.execute(&req, sc, &st)
	replyStart := time.Now()
	sess.reply(req.tag, res)
	now := time.Now()
	if res.after != nil {
		res.after()
	}
	total := now.Sub(req.arrived)
	s.metrics.requestLat.ObserveExemplar(float64(total.Microseconds()), req.trace)
	if req.trace == 0 {
		return
	}
	sp := obs.Span{
		Trace:  req.trace,
		TraceS: obs.FormatTraceID(req.trace),
		ID:     s.opts.Spans.NextSpanID(),
		Name:   "server",
		Cmd:    req.cmd,
		Start:  req.arrived,
		Dur:    total,
	}
	if rest, isErr := bytes.CutPrefix(res.line.b, []byte("err ")); isErr {
		sp.Err = string(rest)
	}
	if st.handler.IsZero() { // answered before the handler: all queue
		st.handler, st.handled = replyStart, replyStart
	}
	queueWait, handlerDur := st.handler.Sub(req.arrived), st.handled.Sub(st.handler)
	sp.Phase("lane.queue", 0, queueWait)
	sp.Phase("handler", queueWait, handlerDur)
	if !st.barriered.IsZero() {
		off, wait := queueWait+handlerDur, st.barriered.Sub(st.handled)
		sp.Phase("barrier.wait", off, wait)
		if st.commitLat > 0 {
			// The covering group's write+fsync finished when the barrier
			// released, so the phase ends at the barrier's end; it may
			// start before the barrier did (the group was already under
			// way), clamped to the span.
			gOff := off + wait - st.commitLat
			if gOff < 0 {
				gOff = 0
			}
			sp.Phase("wal.group", gOff, st.commitLat)
		}
	}
	sp.Phase("reply", replyStart.Sub(req.arrived), now.Sub(replyStart))
	s.opts.Spans.Record(sp)
	if tl := s.opts.TraceLog; tl != nil && total >= s.opts.TraceSlow {
		if err := tl.RecordValue(sp); err != nil {
			sess.log.printf("slow-request log: %v", err)
		}
	}
}

// execute takes one request from shape check to recorded reply: table
// check → token/dedupe replay → role gate → fair execution slot →
// handler → durability barrier → dedupe record.
func (sess *session) execute(req *request, sc *payloadScratch, st *stamps) hres {
	s := sess.s
	if msg := req.spec.refusal(req.args, req.payload); msg != "" {
		return sess.failf(sc, vfs.ErrInvalid, msg)
	}
	// A tokened request already answered for this principal is replayed
	// without re-executing: a lost reply does not become a second
	// execution. The ordered lane keeps the lookup and the later store
	// from racing a concurrent duplicate on the same session.
	var dk string
	if req.token != "" {
		dk = dedupeKey(sess.ident.String(), req.token)
		if stored, hit := s.dedupe.lookup(dk); hit && len(stored) > 0 {
			s.metrics.dedupeHits.Inc()
			if sess.log.on() {
				sess.log.printf("tag=%d %s: %s (token %s) replayed from dedupe", req.tag, sess.ident, req.cmd, req.token)
			}
			replay := sc.line.start(stored[0])
			for _, tok := range stored[1:] {
				replay.str(tok)
			}
			return hres{line: replay}
		}
	}
	if rr := sess.roleRefusal(req, sc); rr != nil {
		// Not the primary: refuse without touching dedupe — the retry
		// belongs to whichever server holds the lease, not this table.
		return *rr
	}
	// Dispatch hop: wait for a fair execution slot, shedding with
	// EDEADLINE if the budget runs out in the queue — the handler (and
	// any WAL work) never runs for shed requests.
	if err := req.ticket.Acquire(); err != nil {
		return sess.failf(sc, fmt.Errorf("%w awaiting dispatch", ErrDeadline), "")
	}
	st.handler = time.Now()
	res := sess.handle(req.cmd, req.args, req.payload, sc, req.trace)
	st.handled = time.Now()
	if d := s.opts.Durability; d != nil && req.spec.has(fMutating) {
		if dk == "" && req.ticket.ExpiredAtBarrier() {
			// Barrier hop: the op executed but its budget is gone, so
			// answer EDEADLINE instead of parking on the WAL —
			// applied-but-unacknowledged, exactly a client timeout's
			// semantics. Tokened requests are exempt: their reply must
			// be recorded for exactly-once replay, never a shed.
			return sess.failf(sc, fmt.Errorf("%w before durability barrier", ErrDeadline), "")
		}
		// The acknowledgement must not outrun the log: wait until every
		// shard this request wrote is durable. This holds for tokened
		// requests too — the dedupe journal append below waits only on
		// its own key's shard.
		var err error
		if td, ok := d.(tracedDurability); ok {
			_, st.commitLat, err = td.BarrierTraced()
		} else {
			err = d.Barrier()
		}
		if err != nil {
			s.metrics.barrierErrs.Inc()
			sess.log.printf("commit barrier failed (durability degraded): %v", err)
		}
		st.barriered = time.Now()
	}
	if dk != "" {
		sess.recordReply(res.line.b, dk)
	}
	return res
}

// recordReply is a tokened request's pre-wire bookkeeping: its reply,
// as the line's raw tokens, goes into the dedupe table and journal. The
// journal write happens before the reply reaches the wire — once the
// client can see the answer, it is durable, so a retry after a server
// crash replays instead of re-executing.
func (sess *session) recordReply(line []byte, dedupeKey string) {
	fields, _ := tokenize(string(line), false) // a handler's own line: well formed
	if evicted := sess.s.dedupe.store(dedupeKey, fields); evicted > 0 {
		sess.s.metrics.dedupeEvicts.Add(int64(evicted))
	}
	if j := sess.s.opts.DedupeJournal; j != nil {
		if err := j.AppendDedupe(dedupeKey, fields); err != nil {
			sess.s.metrics.dedupeJErrs.Inc()
			sess.log.printf("dedupe journal append failed: %v", err)
		}
	}
	sess.s.syncDedupeMetrics()
}

// reply writes one reply in the session's framing — a tagged frame on
// v2, a line then its counted payload on v1 — under writeMu, so
// concurrent workers and the replication pusher interleave whole
// replies, and under the per-request write deadline.
func (sess *session) reply(tag uint64, res hres) error {
	if sess.isStopping() {
		return errSevered // see severAll: a severed session acknowledges nothing
	}
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if rt := sess.s.opts.RequestTimeout; rt > 0 {
		if err := sess.conn.SetWriteDeadline(time.Now().Add(rt)); err != nil {
			sess.log.printf("setting reply deadline: %v", err)
		}
		defer func() {
			if err := sess.conn.SetWriteDeadline(time.Time{}); err != nil {
				sess.log.printf("clearing reply deadline: %v", err)
			}
		}()
	}
	if err := sess.c.queueMessage(sess.v2 != nil, tag, nil, res.line.b, res.body); err != nil {
		return err
	}
	return sess.c.flush()
}

// hres is one handled request's outcome: a complete reply line
// (starting "ok" or "err"), encoded in the scratch of whoever handled
// it, plus an optional counted payload. The handler produces it; reply
// delivers it in the session's framing.
type hres struct {
	line  *lineBuf
	body  []byte
	after func() // run once the reply is on the wire (replsub's pusher)
}

// failf builds an error result in sc, counting it.
func (sess *session) failf(sc *payloadScratch, err error, context string) hres {
	msg := context
	if err != nil {
		msg = err.Error()
	}
	sess.s.errors.Add(1)
	sess.s.metrics.errors.Inc()
	return hres{line: sc.line.start("err").str(nameForError(err)).quoted(msg)}
}

// roleRefusal reports the refusal for a mutating command when this
// server is not the primary replica (a follower, or a fenced former
// primary), nil when the command may proceed. The error message names
// the current primary so a failover-aware client can re-target; this
// check is the server half of epoch fencing — a deposed primary
// answers every write with it, no matter how stale its own view is.
func (sess *session) roleRefusal(req *request, sc *payloadScratch) *hres {
	rs := sess.s.opts.Role
	if rs == nil || !req.spec.has(fMutating) {
		return nil
	}
	if req.cmd == "open" {
		// A read-only open without create/truncate mutates nothing, and
		// followers must serve it: bounded-staleness reads (waitlsn +
		// get) are the whole point of read replicas.
		if flags, err := strconv.Atoi(req.args[0]); err == nil &&
			flags&3 == kernel.ORdonly && flags&(kernel.OCreat|kernel.OTrunc) == 0 {
			return nil
		}
	}
	role, _ := rs.Role()
	if role == "" || role == replica.RolePrimary {
		return nil
	}
	err := ErrNotPrimary
	if p := rs.PrimaryAddr(); p != "" {
		err = fmt.Errorf("%w (%s); primary is %s", ErrNotPrimary, role, p)
	}
	res := sess.failf(sc, err, "not primary")
	return &res
}

// PrimaryFromError extracts the primary address a server named in an
// ENOTPRIMARY refusal, or "" when the error is something else (or the
// refusing server did not know the holder).
func PrimaryFromError(err error) string {
	cls, re := classOf(err)
	if cls != classRedirect {
		return ""
	}
	const marker = "primary is "
	i := strings.LastIndex(re.Message, marker)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(re.Message[i+len(marker):])
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

// handle executes one request and produces its reply. It touches no
// wire state — the request payload arrives pre-read, and pread reply
// bodies are built in the scratch the caller supplies — and execute has
// already checked the argument count and payload length against the
// command table, so cases index args freely. Session state goes through
// the fdMu/grantsMu accessors, making concurrent v2 execution safe.
//
// trace is the request's trace ID (zero when untraced); mutating
// commands stamp it onto the journal mutations they emit so a trace
// can be followed into the WAL group-commit pipeline. A zero-trace
// view is the plain FS, so untraced behavior is unchanged.
func (sess *session) handle(cmd string, args []string, payload []byte, sc *payloadScratch, trace uint64) hres {
	s := sess.s
	tfs := s.fs.Traced(trace)
	switch cmd {
	case "whoami":
		return hres{line: sc.ok().quoted(sess.ident.String())}

	case "stats": // server-side counters for this session and globally
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		ok := sc.ok().int(int64(conns)).int(int64(sess.fdCount())).int(int64(sess.grantCount())).
			quoted(s.opts.Name).int(s.requests.Load()).int(s.errors.Load()).int(s.sessions.Load()).
			int(s.rxBytes.Load()).int(s.txBytes.Load())
		// Replication-aware servers append role, epoch and applied LSN;
		// old clients that expect exactly nine fields never see them
		// because a nil Role keeps the classic shape.
		if rs := s.opts.Role; rs != nil {
			role, epoch := rs.Role()
			ok.quoted(role).uint(epoch).uint(rs.AppliedLSN())
		}
		return hres{line: ok}

	case "waitlsn": // waitlsn <lsn> <timeoutms>: bounded-staleness read barrier
		lsn, err1 := strconv.ParseUint(args[0], 10, 64)
		ms, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil || ms < 0 {
			return sess.failf(sc, vfs.ErrInvalid, "bad waitlsn args")
		}
		rs := s.opts.Role
		if rs == nil {
			// A standalone server's state is always authoritative.
			return hres{line: sc.ok().int(0)}
		}
		if err := rs.WaitApplied(lsn, time.Duration(ms)*time.Millisecond); err != nil {
			return sess.failf(sc, err, "waitlsn")
		}
		return hres{line: sc.ok().uint(rs.AppliedLSN())}

	case "metrics": // full registry as a counted text-exposition payload
		text := s.metrics.reg.Text()
		return hres{line: sc.ok().int(int64(len(text))), body: []byte(text)}

	case "trace": // trace <id>: server-side spans for one trace, as JSON
		id, err := obs.ParseTraceID(args[0])
		if err != nil || id == 0 {
			return sess.failf(sc, vfs.ErrInvalid, "bad trace id")
		}
		// A nil ring (tracing not enabled) yields no spans, same as an
		// unknown ID: an empty JSON array, not an error.
		data, err := json.Marshal(s.opts.Spans.Trace(id))
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "trace encode")
		}
		return hres{line: sc.ok().int(int64(len(data))), body: data}

	case "replsub":
		return sess.replSubscribe(sc, args[0])

	case "replack":
		return sess.replAck(sc, args[0])

	case "open": // open <flags> <mode> <path>
		flags, err1 := strconv.Atoi(args[0])
		mode, err2 := strconv.ParseUint(args[1], 8, 32)
		if err1 != nil || err2 != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad open args")
		}
		fd, err := sess.open(args[2], flags, uint32(mode), trace)
		if err != nil {
			return sess.failf(sc, err, "open")
		}
		return hres{line: sc.ok().int(int64(fd))}

	case "close":
		fd, err := strconv.Atoi(args[0])
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad fd")
		}
		if !sess.removeFD(fd) {
			return sess.failf(sc, kernel.ErrBadFD, "close")
		}
		return hres{line: sc.ok()}

	case "pread": // pread <fd> <len> <off>
		fd, _ := strconv.Atoi(args[0])
		n, _ := strconv.Atoi(args[1])
		off, _ := strconv.ParseInt(args[2], 10, 64)
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "pread")
		}
		if n < 0 || n > MaxPayload {
			return sess.failf(sc, vfs.ErrInvalid, "pread size")
		}
		// Pooled scratch: the payload is written to the wire before the
		// caller's scratch is reused.
		b := sc.bytes(n)
		rn, err := d.h.ReadAt(b, off)
		if err != nil {
			return sess.failf(sc, err, "pread")
		}
		return hres{line: sc.ok().int(int64(rn)), body: b[:rn]}

	case "pwrite": // pwrite <fd> <off> <len> + payload (len checked against the table)
		fd, _ := strconv.Atoi(args[0])
		off, _ := strconv.ParseInt(args[1], 10, 64)
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "pwrite")
		}
		if d.flags&3 == kernel.ORdonly {
			return sess.failf(sc, kernel.ErrBadFD, "fd not writable")
		}
		wn, err := d.h.WriteAtTraced(payload, off, trace)
		if err != nil {
			return sess.failf(sc, err, "pwrite")
		}
		return hres{line: sc.ok().int(int64(wn))}

	case "fstat":
		fd, _ := strconv.Atoi(args[0])
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "fstat")
		}
		return hres{line: sc.ok().stat(d.h.Stat())}

	case "stat", "lstat":
		if err := sess.checkF(args[0], acl.List); err != nil {
			return sess.failf(sc, err, "stat")
		}
		var st vfs.Stat
		var err error
		if cmd == "stat" {
			st, err = s.fs.Stat(args[0])
		} else {
			st, err = s.fs.Lstat(args[0])
		}
		if err != nil {
			return sess.failf(sc, err, "stat")
		}
		return hres{line: sc.ok().stat(st)}

	case "getdir":
		if err := sess.checkD(args[0], acl.List); err != nil {
			return sess.failf(sc, err, "getdir")
		}
		ents, err := s.fs.ReadDir(args[0])
		if err != nil {
			return sess.failf(sc, err, "getdir")
		}
		ok := sc.ok().int(int64(len(ents)))
		for _, e := range ents {
			ok.quoted(e.Name).int(int64(e.Type))
		}
		return hres{line: ok}

	case "mkdir": // mkdir <mode> <path>
		mode, err := strconv.ParseUint(args[0], 8, 32)
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad mode")
		}
		if err := sess.mkdir(args[1], uint32(mode), trace); err != nil {
			return sess.failf(sc, err, "mkdir")
		}
		return hres{line: sc.ok()}

	case "rmdir":
		if err := sess.checkF(args[0], acl.Write); err != nil {
			return sess.failf(sc, err, "rmdir")
		}
		// A directory holding only its ACL file counts as empty: the
		// ACL is removed with the directory.
		if ents, lerr := s.fs.ReadDir(args[0]); lerr == nil &&
			len(ents) == 1 && ents[0].Name == acl.FileName {
			if uerr := tfs.Unlink(vfs.Join(args[0], acl.FileName)); uerr != nil {
				return sess.failf(sc, uerr, "rmdir")
			}
		}
		if err := tfs.Rmdir(args[0]); err != nil {
			return sess.failf(sc, err, "rmdir")
		}
		return hres{line: sc.ok()}

	case "unlink":
		if err := sess.checkACLFileWrite(args[0]); err != nil {
			return sess.failf(sc, err, "unlink")
		}
		if err := tfs.Unlink(args[0]); err != nil {
			return sess.failf(sc, err, "unlink")
		}
		return hres{line: sc.ok()}

	case "rename":
		if err := sess.checkACLFileWrite(args[0]); err != nil {
			return sess.failf(sc, err, "rename")
		}
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(sc, err, "rename")
		}
		if err := tfs.Rename(args[0], args[1]); err != nil {
			return sess.failf(sc, err, "rename")
		}
		return hres{line: sc.ok()}

	case "link": // link <old> <new>: refuse links to unreadable files
		if err := sess.checkF(args[0], acl.Read); err != nil {
			return sess.failf(sc, err, "link")
		}
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(sc, err, "link")
		}
		if err := tfs.Link(args[0], args[1]); err != nil {
			return sess.failf(sc, err, "link")
		}
		return hres{line: sc.ok()}

	case "symlink": // symlink <target> <link>
		if err := sess.checkACLFileWrite(args[1]); err != nil {
			return sess.failf(sc, err, "symlink")
		}
		if err := tfs.Symlink(args[0], args[1], s.opts.Owner); err != nil {
			return sess.failf(sc, err, "symlink")
		}
		return hres{line: sc.ok()}

	case "readlink":
		if err := s.checkFileNoFollow(sess.ident, args[0], acl.List); err != nil {
			return sess.failf(sc, err, "readlink")
		}
		t, err := s.fs.Readlink(args[0])
		if err != nil {
			return sess.failf(sc, err, "readlink")
		}
		return hres{line: sc.ok().quoted(t)}

	case "truncate": // truncate <path> <size>
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad size")
		}
		if err := sess.checkF(args[0], acl.Write); err != nil {
			return sess.failf(sc, err, "truncate")
		}
		if err := tfs.Truncate(args[0], size); err != nil {
			return sess.failf(sc, err, "truncate")
		}
		return hres{line: sc.ok()}

	case "getacl":
		if err := sess.checkD(args[0], acl.List); err != nil {
			return sess.failf(sc, err, "getacl")
		}
		a, err := s.aclFor(args[0])
		if err != nil {
			return sess.failf(sc, err, "getacl")
		}
		return hres{line: sc.ok().int(int64(len(a.text))), body: []byte(a.text)}

	case "setacl": // setacl <path> <len> + payload
		if err := sess.checkD(args[0], acl.Admin); err != nil {
			return sess.failf(sc, err, "setacl")
		}
		if _, err := acl.Parse(string(payload)); err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "malformed ACL")
		}
		aclPath := vfs.Join(args[0], acl.FileName)
		if err := tfs.WriteFile(aclPath, payload, 0o644, s.opts.Owner); err != nil {
			return sess.failf(sc, err, "setacl")
		}
		return hres{line: sc.ok()}

	case "assert": // assert <len> + JSON assertion payload
		community, err := sess.present(payload)
		if err != nil {
			return sess.failf(sc, vfs.ErrPermission, err.Error())
		}
		return hres{line: sc.ok().quoted(community)}

	case "exec": // exec <cwd> <path> [args...]
		code, runtime, err := sess.exec(args[0], args[1], args[2:])
		if err != nil {
			return sess.failf(sc, err, "exec")
		}
		return hres{line: sc.ok().int(int64(code)).str(strconv.FormatFloat(runtime, 'f', -1, 64))}

	default:
		return sess.failf(sc, kernel.ErrNoSys, "unknown command "+cmd)
	}
}

// admissionRefusal builds the typed rejection for an admission failure:
// EBUSY with the controller's retry-after hint, or EDEADLINE for a
// budget already expired at admit.
func (sess *session) admissionRefusal(sc *payloadScratch, aerr error) hres {
	var be *admission.BusyError
	if errors.As(aerr, &be) {
		ms := be.RetryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		// The hint rides in the error text (failf sends err.Error() as
		// the wire message); RetryAfterFromError parses it back out.
		return sess.failf(sc, fmt.Errorf("%w; %s%dms", ErrBusy, retryAfterMarker, ms), "")
	}
	return sess.failf(sc, fmt.Errorf("%w before admit", ErrDeadline), "")
}

// replSubscribe handles `replsub <fromLSN>`: it registers the session
// as a replication follower and answers with its catch-up — either the
// WAL tail past fromLSN ("ok tail <epoch> <first> <last> <records>
// <len>" plus the frames) or, when compaction already dropped that
// history, a full snapshot ("ok snap <epoch> <lsn> <len>" plus the
// blob). Once that reply is on the wire every committed group is pushed
// to the session as a replPushTag frame until the session ends or the
// subscriber falls too far behind (a "replgap" push tells it to
// resubscribe). Runs on the ordered lane so a session cannot race two
// registrations.
func (sess *session) replSubscribe(sc *payloadScratch, arg string) hres {
	pub := sess.s.opts.Repl
	if pub == nil || sess.v2 == nil || !sess.v2.repl {
		return sess.failf(sc, kernel.ErrNoSys, "replication not negotiated")
	}
	from, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.failf(sc, vfs.ErrInvalid, "bad replsub lsn")
	}
	sess.replMu.Lock()
	defer sess.replMu.Unlock()
	if sess.replSub != nil {
		return sess.failf(sc, vfs.ErrInvalid, "session already subscribed")
	}
	sub, catchup, snap, snapLSN, err := pub.Subscribe(from)
	if err != nil {
		return sess.failf(sc, err, "replsub")
	}
	sess.replSub = sub
	sess.log.printf("replication subscriber from lsn %d (%s)", from, sess.ident)
	res := hres{after: func() {
		sess.pushWG.Add(1)
		go sess.replPush(sub)
	}}
	switch {
	case snap != nil:
		res.line = sc.ok().str("snap").uint(pub.Epoch()).uint(snapLSN).int(int64(len(snap)))
		res.body = snap
	case catchup != nil:
		res.line = sc.ok().str("tail").uint(catchup.Epoch).uint(catchup.First).uint(catchup.Last).
			int(int64(catchup.Records)).int(int64(len(catchup.Frames)))
		res.body = catchup.Frames
	default:
		res.line = sc.ok().str("tail").uint(pub.Epoch()).int(0).int(0).int(0).int(0)
	}
	return res
}

// replAck handles `replack <lsn>`: the follower's applied horizon,
// which releases the primary's semi-sync barriers at or below it.
func (sess *session) replAck(sc *payloadScratch, arg string) hres {
	lsn, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.failf(sc, vfs.ErrInvalid, "bad replack lsn")
	}
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replMu.Unlock()
	if sub == nil {
		return sess.failf(sc, vfs.ErrInvalid, "no replication subscription")
	}
	sub.Ack(lsn)
	return hres{line: sc.ok()}
}

// replPush streams the subscription's batches to the session as pushed
// frames. It exits when the channel closes: a publisher-side cut
// (overflow or shutdown) gets a final "replgap" push so the follower
// knows to resubscribe rather than wait forever; a session-side close
// just ends (the transport is going away with it).
func (sess *session) replPush(sub *replica.Subscription) {
	defer sess.pushWG.Done()
	var line lineBuf // the pusher's own: it runs beside the lanes
	for b := range sub.C {
		line.start("replpush").uint(b.Epoch).uint(b.First).uint(b.Last).
			int(int64(b.Records)).int(int64(len(b.Frames)))
		if err := sess.reply(replPushTag, hres{line: &line, body: b.Frames}); err != nil {
			sub.Close()
			return
		}
	}
	sess.reply(replPushTag, hres{line: line.start("replgap")})
}

// acquireSlot blocks until the session's credit window has room, then
// claims a slot. Called only by the frame reader, so blocking here is
// the backpressure: the next frame is not read until a slot frees.
func (sess *session) acquireSlot(window int) bool {
	sess.slotMu.Lock()
	for sess.inflight >= window && !sess.stopping.Load() {
		sess.s.metrics.bpStalls.Inc()
		sess.slotCond.Wait()
	}
	if sess.stopping.Load() {
		sess.slotMu.Unlock()
		return false
	}
	sess.inflight++
	sess.s.metrics.occupancy.Observe(float64(sess.inflight))
	sess.s.metrics.tagsInFlight.Inc()
	if sess.inflight == 1 {
		sess.state.busy.Store(true)
	}
	sess.slotMu.Unlock()
	return true
}

// abort marks the session severed: it silences reply, wakes a frame
// reader parked on the credit window (acquireSlot returns false) and
// makes the lane workers drop queued jobs. Called by Close and by
// Shutdown's sever path; without it a reader parked behind a window
// full of slow work would hold its connection goroutine — and
// therefore Close — hostage until every queued job had executed toward
// the already-dead socket.
func (sess *session) abort() {
	sess.slotMu.Lock()
	sess.stopping.Store(true)
	sess.slotCond.Broadcast()
	sess.slotMu.Unlock()
}

// isStopping reports whether abort has severed this session.
func (sess *session) isStopping() bool { return sess.stopping.Load() }

// releaseSlot returns a worker's slot after its reply is on the wire.
// When the last in-flight request completes during a drain, the blocked
// frame reader cannot see the drain flag, so the release expires its
// read — the v2 equivalent of Shutdown's nudge to idle v1 sessions.
func (sess *session) releaseSlot() {
	sess.slotMu.Lock()
	sess.inflight--
	idle := sess.inflight == 0
	if idle {
		sess.state.busy.Store(false)
	}
	sess.s.metrics.tagsInFlight.Dec()
	sess.slotCond.Signal()
	sess.slotMu.Unlock()
	// The drain check must run outside slotMu: Close and Shutdown sever
	// sessions (taking slotMu) while holding the server mutex isDraining
	// needs, so nesting the two here would invert the lock order.
	if idle && sess.s.isDraining() {
		if err := sess.conn.SetReadDeadline(time.Now()); err != nil {
			sess.log.printf("drain nudge: %v", err)
		}
	}
}

// open authorizes and opens a file for the session.
func (sess *session) open(path string, flags int, mode uint32, trace uint64) (int, error) {
	s := sess.s
	var classes []acl.Rights
	switch flags & 3 {
	case kernel.ORdonly:
		classes = []acl.Rights{acl.Read}
	case kernel.OWronly:
		classes = []acl.Rights{acl.Write}
	case kernel.ORdwr:
		classes = []acl.Rights{acl.Read, acl.Write}
	}
	if flags&kernel.OCreat != 0 {
		classes = append(classes, acl.Write)
	}
	for _, cl := range classes {
		if cl == acl.Write {
			if err := sess.checkACLFileWrite(path); err != nil {
				return 0, err
			}
		} else if err := sess.checkF(path, cl); err != nil {
			return 0, err
		}
	}
	st, err := s.fs.Stat(path)
	exists := err == nil
	switch {
	case !exists && flags&kernel.OCreat == 0:
		return 0, err
	case exists && flags&(kernel.OCreat|kernel.OExcl) == kernel.OCreat|kernel.OExcl:
		return 0, vfs.ErrExist
	case exists && st.IsDir():
		return 0, vfs.ErrIsDir
	}
	if !exists {
		if _, err := s.fs.Traced(trace).Create(path, mode, s.opts.Owner); err != nil {
			return 0, err
		}
	}
	h, err := s.fs.OpenHandle(path)
	if err != nil {
		return 0, err
	}
	if flags&kernel.OTrunc != 0 && flags&3 != kernel.ORdonly {
		if err := h.TruncateTraced(0, trace); err != nil {
			return 0, err
		}
	}
	return sess.addFD(&sessionFD{h: h, path: path, flags: flags}), nil
}

// present verifies a CAS assertion and installs its grants.
func (sess *session) present(data []byte) (community string, err error) {
	s := sess.s
	if s.opts.CASTrust == nil {
		return "", errors.New("server trusts no community authorization service")
	}
	a, err := auth.DecodeAssertion(data)
	if err != nil {
		return "", err
	}
	if a.Subject != sess.ident {
		return "", fmt.Errorf("assertion subject %q is not this session's identity", a.Subject)
	}
	if err := s.opts.CASTrust.Verify(a); err != nil {
		return "", err
	}
	sess.grantsMu.Lock()
	sess.grants = append(sess.grants, a.Grants...)
	sess.grantsMu.Unlock()
	sess.log.printf("%s: presented CAS assertion from %s (%s), %d grants", sess.ident, a.CAS, a.Community, len(a.Grants))
	return a.Community, nil
}

// grantsAllow reports whether a verified CAS grant covers the path with
// the wanted rights. Prefix matching respects component boundaries.
func (sess *session) grantsAllow(path string, want acl.Rights) bool {
	final := sess.s.resolveFinal(path)
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	for _, g := range sess.grants {
		prefix := vfs.Clean(g.PathPrefix)
		if !(prefix == "/" || final == prefix ||
			(len(final) > len(prefix) && final[:len(prefix)] == prefix && final[len(prefix)] == '/')) {
			continue
		}
		r, err := acl.ParseRights(g.Rights)
		if err != nil {
			continue
		}
		if r.Has(want) {
			return true
		}
	}
	return false
}

// checkF is the per-session file check: local ACLs first, then
// community grants.
func (sess *session) checkF(path string, want acl.Rights) error {
	if err := sess.s.checkFile(sess.ident, path, want); err == nil {
		return nil
	}
	if sess.grantsAllow(path, want) {
		return nil
	}
	return vfs.ErrPermission
}

// checkD is the per-session directory check.
func (sess *session) checkD(dir string, want acl.Rights) error {
	if err := sess.s.checkDir(sess.ident, dir, want); err == nil {
		return nil
	}
	if sess.grantsAllow(dir, want) {
		return nil
	}
	return vfs.ErrPermission
}

// checkACLFileWrite is the write check plus the rule that the ACL file
// itself takes Admin to modify.
func (sess *session) checkACLFileWrite(path string) error {
	class := acl.Write
	if vfs.Base(path) == acl.FileName {
		class = acl.Admin
	}
	return sess.checkF(path, class)
}

// mkdir implements the reserve-right semantics on the server side.
func (sess *session) mkdir(path string, mode uint32, trace uint64) error {
	s := sess.s
	parent := vfs.Dir(path)
	av, err := s.aclFor(parent)
	if err != nil {
		return err
	}
	a := av.acl
	rights, reserve := a.Lookup(sess.ident)
	var childACL *acl.ACL
	switch {
	case rights.Has(acl.Write):
		childACL = a.Clone()
	case rights.Has(acl.Reserve):
		childACL = acl.ReserveChild(sess.ident, reserve)
	case sess.grantsAllow(parent, acl.Write):
		// Community-granted write: inherit like a local w holder, and
		// keep the creator in control of the new directory.
		childACL = a.Clone()
		childACL.Set(sess.ident.String(), acl.All, acl.None)
	default:
		return vfs.ErrPermission
	}
	tfs := s.fs.Traced(trace)
	if err := tfs.Mkdir(path, mode, s.opts.Owner); err != nil {
		return err
	}
	return tfs.WriteFile(vfs.Join(path, acl.FileName), []byte(childACL.String()), 0o644, s.opts.Owner)
}

// exec runs the staged program at path inside an identity box carrying
// the session's principal, with the given working directory: the heart
// of Figure 3.
func (sess *session) exec(cwd, path string, args []string) (code int, runtimeSeconds float64, err error) {
	s := sess.s
	if err := sess.checkF(path, acl.Read); err != nil {
		return 0, 0, err
	}
	if err := sess.checkF(path, acl.Execute); err != nil {
		return 0, 0, err
	}
	box, err := core.New(s.k, s.opts.Owner, sess.ident, core.Options{
		HomeBase:  "/.boxhomes",
		ShadowDir: "/.boxshadow",
	})
	if err != nil {
		return 0, 0, err
	}
	st := box.RunAt(cwd, func(p *kernel.Proc, bootArgs []string) int {
		pid, err := p.Spawn(path, bootArgs...)
		if err != nil {
			return 127
		}
		_, status, err := p.Wait(pid)
		if err != nil {
			return 127
		}
		return status
	}, args...)
	return st.Code, st.Runtime.Seconds(), nil
}

// --- server-side ACL checks ---------------------------------------------

// aclVersion is one content version of an ACL file, parsed: what
// vfs.Memo keeps on the file's inode. It is shared by every check that
// finds that version, so it is immutable — callers Clone before editing.
type aclVersion struct {
	acl  *acl.ACL
	text string // acl.String(), the body getacl replies with
}

// emptyACL grants nothing: a malformed ACL file (fail closed) or no ACL
// file anywhere up to the root.
var emptyACL = &aclVersion{acl: &acl.ACL{}}

// parseACLVersion is the vfs.Memo derive step, run once per ACL file
// version.
func (s *Server) parseACLVersion(data []byte) any {
	s.metrics.aclParses.Inc()
	raw := string(data)
	a, err := acl.Parse(raw)
	if err != nil {
		return emptyACL
	}
	text := a.String()
	if text == raw {
		text = raw // a canonical file: keep the one copy the patterns already point into
	}
	return &aclVersion{acl: a, text: text}
}

// aclFor finds the effective ACL for dir: its own ACL file, or the
// nearest ancestor's (Chirp's space is fully virtual: ACLs exist from
// the root down, and mkdir always installs one). The parse is memoised
// on the ACL file's inode and validated against its mtime on every
// call, so whoever rewrote the file — setacl, a boxed program, the
// replication apply loop, recovery — is honoured by the next check.
func (s *Server) aclFor(dir string) (*aclVersion, error) {
	s.metrics.aclChecks.Inc()
	dir = vfs.Clean(dir)
	for {
		v, err := s.fs.MemoIn(dir, acl.FileName, s.parseACL)
		if err == nil {
			return v.(*aclVersion), nil
		}
		if !errors.Is(err, vfs.ErrNotExist) {
			return nil, &vfs.PathError{Op: "read", Path: vfs.Join(dir, acl.FileName), Err: err}
		}
		if dir == "/" {
			return emptyACL, nil
		}
		dir = vfs.Dir(dir)
	}
}

const maxServerSymlinks = 10

// resolveFinal chases symlinks so checks apply to targets.
func (s *Server) resolveFinal(path string) string {
	cur := vfs.Clean(path)
	for i := 0; i < maxServerSymlinks; i++ {
		st, err := s.fs.Lstat(cur)
		if err != nil || st.Type != vfs.TypeSymlink {
			return cur
		}
		target, err := s.fs.Readlink(cur)
		if err != nil {
			return cur
		}
		if len(target) > 0 && target[0] == '/' {
			cur = vfs.Clean(target)
		} else {
			cur = vfs.Join(vfs.Dir(cur), target)
		}
	}
	return cur
}

// checkFile authorizes an operation on the file at path, governed by
// the ACL of the directory containing the (symlink-resolved) target.
func (s *Server) checkFile(ident identity.Principal, path string, want acl.Rights) error {
	final := s.resolveFinal(path)
	a, err := s.aclFor(vfs.Dir(final))
	if err != nil {
		return err
	}
	if !a.acl.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}

// checkFileNoFollow authorizes an operation on the link itself.
func (s *Server) checkFileNoFollow(ident identity.Principal, path string, want acl.Rights) error {
	a, err := s.aclFor(vfs.Dir(vfs.Clean(path)))
	if err != nil {
		return err
	}
	if !a.acl.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}

// checkDir authorizes an operation governed by the directory's own ACL.
func (s *Server) checkDir(ident identity.Principal, dir string, want acl.Rights) error {
	a, err := s.aclFor(s.resolveFinal(dir))
	if err != nil {
		return err
	}
	if !a.acl.Allows(ident, want) {
		return vfs.ErrPermission
	}
	return nil
}
