package chirp

import (
	"errors"
	"fmt"
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
	// frame header arrives (line and payload read, reply write), so a
	// client that announces a frame and stalls cannot pin a session
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
	// DedupeJournal, when set, is the server's one dedupe table: it
	// answers every tokened retry and records every tokened reply, so a
	// retried mutation stays exactly-once across a restart (and, when
	// it replicates, across a promotion). Its append is a tokened
	// request's one durability wait. Journal failures degrade
	// durability, never availability: the reply is still sent and the
	// error only counted and logged. Nil keeps a bounded in-memory table
	// (1 024 entries / 8 MiB) that dies with the process, and is only
	// allowed on a server without Durability.
	DedupeJournal DedupeJournal
	// DedupeSeed pre-populates the in-memory table of a server with no
	// DedupeJournal; it is ignored when a journal is configured, since
	// the journal is the table. Keys are principal+token as produced by
	// a journal; values are the stored reply fields.
	DedupeSeed map[string][]string
	// Durability, when set, is barriered before the reply to any
	// untokened mutating command reaches the wire: with a group-commit
	// store this parks the session until the op's commit group is
	// durable, so an acknowledged mutation can never be lost to a
	// crash. A tokened request waits on its DedupeJournal append
	// instead, and a replayed one on this barrier. Barrier failures
	// degrade durability, never availability — counted, logged, and the
	// reply still sent (matching the store's own degradation contract).
	// The durable store implements this. NewServer refuses it without a
	// DedupeJournal.
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
	// Workers is ignored: a session starts a worker whenever a request
	// would wait for one, up to its credit window. Only the benchmark
	// module (benchmark/cluster.go) still sets it; the field goes once
	// that setter does.
	Workers int
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
	// WaitApplied blocks until local state reflects lsn — the waitlsn
	// read barrier; it fails only when timeout passes first (EDEADLINE).
	WaitApplied(lsn uint64, timeout time.Duration) error
	// PrimaryAddr reports where writes should be sent.
	PrimaryAddr() string
}

// DedupeJournal is the table that decides whether a tokened request
// was already answered: LookupDedupe returns the reply recorded under a
// principal+token key, AppendDedupe records one before it reaches the
// wire. The durable store implements it (journaled, recovered at Open,
// applied on followers from the replicated log); the server stays
// ignorant of how entries reach stable storage.
//
// Beside a Durability, the append is the tokened request's only
// durability wait, so a journal must keep this contract: AppendDedupe
// returns only once the entry, and every record journaled before it,
// is as durable and as shipped as Durability.Barrier would make them.
// durable.Store and replica.Node keep it, since the entry lands on the
// one log after the mutations it vouches for, and so does a wrapper
// that forwards to either. The server trusts the contract rather than
// probing the journal's type. An entry LookupDedupe
// finds may still be on its way there; the server barriers before it
// replays one.
type DedupeJournal interface {
	LookupDedupe(key string) ([]string, bool)
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
	MetricFlushes  = "chirp_flushes_total"

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
	errors        []*obs.Counter // per errno, indexed like errnoTable
	sessions      *obs.Counter
	rxBytes       *obs.Counter
	txBytes       *obs.Counter
	flushes       *obs.Counter
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
	requestLat    *obs.Histogram
	aclChecks     *obs.Counter
	aclParses     *obs.Counter
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	reg.Help(MetricRequests, "Requests dispatched, by command.")
	reg.Help(MetricErrors, "Requests answered with an error reply, by errno.")
	reg.Help(MetricSessions, "Sessions authenticated since start.")
	reg.Help(MetricRxBytes, "Bytes received on client connections.")
	reg.Help(MetricTxBytes, "Bytes sent on client connections.")
	reg.Help(MetricConns, "Connections currently tracked.")
	reg.Help(MetricFlushes, "Frame-writer flushes: frames queued while another writer waits share one.")
	reg.Help(MetricDedupeHits, "Tokened retries answered from the dedupe table.")
	reg.Help(MetricDedupeEntries, "Replies held in the in-memory dedupe table (0 when a DedupeJournal is the table).")
	reg.Help(MetricDedupeBytes, "Approximate bytes held by the in-memory dedupe table (0 when a DedupeJournal is the table).")
	reg.Help(MetricDedupeEvictions, "In-memory dedupe entries evicted by the entry or byte bound.")
	reg.Help(MetricDedupeJournalErrs, "Tokened replies that failed to persist to the dedupe journal.")
	reg.Help(MetricDraining, "1 while the server is draining for shutdown.")
	reg.Help(MetricBarrierErrs, "Commit barriers that failed before a mutating reply (durability degraded).")
	reg.Help(MetricPayloadPoolHits, "Payloads served from pooled codec scratch (process-wide).")
	reg.Help(MetricPayloadPoolMisses, "Payloads that had to grow codec scratch (process-wide).")
	reg.Help(MetricTagsInFlight, "Tagged requests currently admitted across v2 sessions.")
	reg.Help(MetricBackpressureStalls, "Frames that waited for credit-window space before dispatch.")
	reg.Help(MetricWindowOccupancy, "Window occupancy observed at each v2 frame admission.")
	reg.Help(MetricRequestLatency, "Request latency, arrival to reply flushed, in microseconds (traced requests leave exemplars).")
	reg.Help(MetricACLChecks, "Effective-ACL lookups made by permission checks, getacl and mkdir.")
	reg.Help(MetricACLParses, "ACL file versions the server's checks parsed (found no memoised parse; a version a box on the same file system parsed first is reused, not counted).")
	requests := make([]*obs.Counter, len(commandTable))
	for i, c := range commandTable {
		requests[i] = reg.Counter(obs.With(MetricRequests, "cmd", c.name))
	}
	errs := make([]*obs.Counter, len(errnoTable))
	for i, e := range errnoTable {
		errs[i] = reg.Counter(obs.With(MetricErrors, "errno", e.name))
	}
	reg.GaugeFunc(MetricPayloadPoolHits, poolHits.Load)
	reg.GaugeFunc(MetricPayloadPoolMisses, poolMisses.Load)
	return &srvMetrics{
		requests:      requests,
		unknownCmd:    reg.Counter(obs.With(MetricRequests, "cmd", "unknown")),
		reg:           reg,
		errors:        errs,
		sessions:      reg.Counter(MetricSessions),
		rxBytes:       reg.Counter(MetricRxBytes),
		txBytes:       reg.Counter(MetricTxBytes),
		flushes:       reg.Counter(MetricFlushes),
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

// Server is a Chirp file server exporting the file system of a simulated
// kernel. It requires no privilege to run: deploying one is an
// ordinary-user operation, and visiting users are admitted purely by
// ACL policy over their authenticated identities.
// Connection goroutines share only the kernel/VFS (internally locked),
// the connection registry under s.mu, the phase, and atomic counters;
// every other piece of session state (descriptor table, CAS grants,
// codec) is owned by its session.
type Server struct {
	k    *kernel.Kernel
	fs   *vfs.FS
	opts ServerOptions

	ln    net.Listener
	phase atomic.Int32 // phaseServing, then phaseDraining, then phaseClosed; moved under mu
	mu    sync.Mutex   // guards conns and every phase change
	// conns holds every live connection's session, nil until the
	// connection authenticates.
	conns map[net.Conn]*session
	wg    sync.WaitGroup
	stop  chan struct{} // closed when the server leaves phaseServing

	log      logger
	metrics  *srvMetrics
	dedupe   DedupeJournal         // opts.DedupeJournal, or a volatile server's dedupeTable
	parseACL func(data []byte) any // bound once, so aclFor makes no per-call closure
	src      source                // the server as internal/policy reads it

	requests atomic.Int64 // requests dispatched, across all sessions
	sessions atomic.Int64 // authenticated sessions accepted, lifetime
	rxBytes  atomic.Int64 // wire bytes received from clients
	txBytes  atomic.Int64 // wire bytes sent to clients
}

// A server's phases, in the only order it passes through them.
const (
	phaseServing  int32 = iota // accepting connections and serving them
	phaseDraining              // refusing connections; sessions finish what they have begun
	phaseClosed                // severed: no session writes another reply
)

// NewServer creates a server exporting k's file system. The root ACL is
// installed if the export root has none.
func NewServer(k *kernel.Kernel, opts ServerOptions) (*Server, error) {
	if opts.Owner == "" {
		opts.Owner = "chirp"
	}
	s := &Server{k: k, fs: k.FS(), opts: opts, conns: make(map[net.Conn]*session), stop: make(chan struct{})}
	s.log = logger{sink: opts.Logf}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newSrvMetrics(reg)
	s.parseACL = s.parseACLVersion
	s.src = source{s.fs.Locked(), s}
	s.dedupe = opts.DedupeJournal
	if s.dedupe == nil && opts.Durability != nil {
		return nil, errors.New("chirp: Durability needs a DedupeJournal: a tokened reply is made durable by its journal append")
	}
	if s.dedupe == nil {
		tbl := newDedupeTable(dedupeTableEntries, dedupeTableBytes, s.metrics)
		for key, reply := range opts.DedupeSeed {
			tbl.AppendDedupe(key, reply)
		}
		s.dedupe = tbl
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
// for the connection goroutines to exit. For a graceful stop that
// lets in-flight RPCs finish, use Shutdown.
func (s *Server) Close() error { return s.shutdown(false, 0) }

// Shutdown drains the server gracefully: it stops accepting new
// connections, lets every request a session has begun finish, nudges
// idle sessions off their blocking reads, and waits up to timeout for
// the connection goroutines to exit before severing stragglers. It
// returns an error if any session had to be severed. On a server that
// is already stopping it is Close.
func (s *Server) Shutdown(timeout time.Duration) error { return s.shutdown(true, timeout) }

// shutdown is the one stop path. The call that takes the server out of
// phaseServing closes the listener and the stop channel; with drain
// set it also nudges every idle session and waits up to timeout for
// the connection goroutines. Every call then severs what is left and
// waits for the goroutines to exit.
func (s *Server) shutdown(drain bool, timeout time.Duration) error {
	s.mu.Lock()
	first := s.phase.CompareAndSwap(phaseServing, phaseDraining)
	drain = drain && first
	if drain {
		s.metrics.draining.Set(1)
		for c, sess := range s.conns {
			if sess == nil {
				expireRead(c) // still authenticating
			} else {
				sess.nudge()
			}
		}
	}
	s.mu.Unlock()
	var err error
	if first {
		close(s.stop)
		if s.ln != nil {
			err = s.ln.Close()
		}
	}
	if drain {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(timeout):
			err = fmt.Errorf("chirp: drain timed out after %v; severed remaining sessions", timeout)
		}
	}
	s.severAll()
	s.wg.Wait()
	return err
}

// severAll enters phaseClosed and cuts every live session. The phase
// changes before any connection is closed, and every session reads it
// before it replies: a closed server writes no more replies, so one
// connection going away (a follower's ship stream, say, whose loss
// degrades the semi-sync barrier to local durability) can never let
// another session acknowledge work in the gap before its own
// connection closes.
func (s *Server) severAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phase.Store(phaseClosed)
	for c, sess := range s.conns {
		if sess != nil {
			sess.abort()
		}
		c.Close()
	}
}

// expireRead pops whoever is blocked reading c off its read.
func expireRead(c net.Conn) {
	c.SetReadDeadline(time.Now()) // a closed connection has nothing to pop
}

// track registers a live connection; it reports false once the server
// has left phaseServing (the caller should drop the connection).
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.phase.Load() != phaseServing {
		return false
	}
	s.conns[c] = nil
	s.metrics.conns.Inc()
	return true
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

// acceptLoop accepts connections until the server leaves
// phaseServing. A failed Accept is retried after a pause that starts
// at 5 ms and doubles up to a second, as net/http's server does, so a
// transient failure (out of descriptors, say) stops no server whose
// heartbeats still advertise it.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var pause time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.phase.Load() != phaseServing {
				return
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			s.log.printf("accept: %v; retrying in %v", err, pause)
			select {
			case <-time.After(pause):
			case <-s.stop:
			}
			continue
		}
		pause = 0
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// isDraining reports whether the server has left phaseServing: its
// sessions finish what they have begun and read no further request.
func (s *Server) isDraining() bool { return s.phase.Load() != phaseServing }

// RequestCount reports the number of requests dispatched across all
// sessions since the server started.
func (s *Server) RequestCount() int64 { return s.requests.Load() }

// SessionCount reports the number of sessions authenticated since the
// server started (not just the currently live ones).
func (s *Server) SessionCount() int64 { return s.sessions.Load() }

// ErrorCount reports the number of error replies sent since the server
// started: the sum of chirp_errors_total over its errno series.
func (s *Server) ErrorCount() (n int64) {
	for _, c := range s.metrics.errors {
		n += c.Value()
	}
	return n
}
