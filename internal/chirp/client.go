package chirp

import (
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vfs"
)

// Client is one authenticated connection to a Chirp server. Methods
// mirror the Unix-like protocol. A Client is safe for concurrent use by
// any number of goroutines: every exchange runs on the session engine
// (muxSession), which multiplexes calls up to the negotiated window on
// a v2 session and serializes them (window 1) on a v1 one, so one
// connection can back a whole mount table or a pool of workers.
//
// The client is fault tolerant: each wire exchange runs under an
// optional deadline, a dead connection is re-dialed and
// re-authenticated with capped exponential backoff, idempotent RPCs
// are retried transparently, non-idempotent ones surface
// ErrRetryNotSafe (see ClientOptions and ExecToken), and a circuit
// breaker stops hammering a server that keeps failing. Retries and
// redials consume wall-clock time only — nothing here touches the
// virtual clock, so instrumented retries charge zero virtual ticks.
type Client struct {
	mu     sync.Mutex // guards conn, mux, proto, broken, closed
	conn   net.Conn
	mux    *muxSession // session engine for the live connection (nil when none)
	proto  int         // negotiated protocol version for the current session
	closed bool
	broken bool // the transport failed; the next call redials
	dialed bool // first connection established (later dials count as redials)

	closing atomic.Bool // set by Close before taking mu, aborts retry loops

	ident identity.Principal
	addr  string
	auths []auth.Authenticator
	opts  ClientOptions

	brk *Breaker
	m   *clientMetrics
	rng *mrand.Rand // backoff jitter; guarded by mu

	// assertions are CAS assertions presented on this session, replayed
	// after a redial so re-established sessions keep their grants.
	assertions [][]byte

	sent atomic.Int64 // requests sent (everything the server dispatches)

	// forcedTrace, when non-zero, overrides the per-call trace ID for
	// every subsequent RPC (see SetTrace). The chirp CLI's trace probe
	// uses it to issue a request under a known ID it can then fetch.
	forcedTrace atomic.Uint64
}

// Dial connects to a Chirp server and authenticates with the first
// mutually acceptable method, with default fault-tolerance options.
func Dial(addr string, auths []auth.Authenticator) (*Client, error) {
	return DialOpts(addr, auths, ClientOptions{})
}

// DialOpts is Dial with explicit fault-tolerance options.
func DialOpts(addr string, auths []auth.Authenticator, opts ClientOptions) (*Client, error) {
	opts.withDefaults()
	cl := &Client{
		addr:  addr,
		auths: auths,
		opts:  opts,
		brk:   newBreaker(opts.BreakerThreshold, opts.BreakerCooloff, opts.Metrics),
		m:     newClientMetrics(opts.Metrics),
		rng:   mrand.New(mrand.NewSource(opts.Seed)),
	}
	cl.mu.Lock()
	err := cl.connectLocked()
	cl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return cl, nil
}

// Identity reports the principal this client proved to the server.
func (cl *Client) Identity() identity.Principal { return cl.ident }

// Addr reports the server address.
func (cl *Client) Addr() string { return cl.addr }

// Breaker exposes the client's circuit breaker (the failover driver
// consults it to route reads away from a dead primary).
func (cl *Client) Breaker() *Breaker { return cl.brk }

// LocalMetrics returns the registry the client's retry/redial/breaker
// counters land in (ClientOptions.Metrics, or the private default).
func (cl *Client) LocalMetrics() *obs.Registry { return cl.m.reg }

// SetTrace pins the trace ID stamped on subsequent calls, instead of a
// fresh ID per call; zero restores per-call IDs. Only meaningful with
// ClientOptions.Spans set. The chirp CLI's trace probe uses it to issue
// a request under a known ID and then fetch that trace by name.
func (cl *Client) SetTrace(id uint64) { cl.forcedTrace.Store(id) }

// TraceSpans fetches the server-side spans retained for one trace ID
// (the trace RPC). The reply is the server's JSON span list, already
// decoded; an empty slice means the server retained nothing for that ID
// (expired from its ring, or never traced).
func (cl *Client) TraceSpans(id uint64) ([]obs.Span, error) {
	_, body, _, err := cl.do(wireCall{line: newLine("trace").str(obs.FormatTraceID(id)), recvBody: true})
	if err != nil {
		return nil, err
	}
	var spans []obs.Span
	if len(body) > 0 {
		if err := json.Unmarshal(body, &spans); err != nil {
			return nil, fmt.Errorf("chirp: bad trace reply: %w", err)
		}
	}
	return spans, nil
}

// Close ends the session. Close is idempotent and safe to race with
// in-flight calls and redials: they complete or fail with
// ErrClientClosed. The "quit" farewell's write error is propagated only
// when the connection was otherwise healthy — a session torn down after
// a transport fault closes silently rather than masking the real error.
func (cl *Client) Close() error {
	cl.closing.Store(true) // aborts backoff loops waiting on cl.mu
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	if cl.conn == nil {
		return nil
	}
	if cl.broken {
		// The transport already failed and was closed; a farewell (or a
		// second close) could only mask the original fault with noise.
		cl.conn.Close()
		return nil
	}
	// The farewell rides the writer loop; closing the connection then
	// unwinds both loops, which release the codec once neither is
	// touching it.
	qerr := cl.mux.sendQuit()
	cerr := cl.conn.Close()
	cl.mux = nil
	if qerr != nil {
		return qerr
	}
	return cerr
}

// --- connection management ---------------------------------------------

// connectLocked dials and authenticates, consulting the breaker.
// Callers hold cl.mu.
func (cl *Client) connectLocked() error {
	if !cl.brk.Allow() {
		return ErrBreakerOpen
	}
	conn, err := cl.opts.Dialer(cl.addr)
	if err != nil {
		cl.brk.Fail()
		return err
	}
	if cl.opts.Timeout > 0 {
		conn.SetDeadline(time.Now().Add(cl.opts.Timeout))
	}
	ident, err := auth.ClientNegotiate(auth.NewConn(conn), cl.auths)
	if err != nil {
		conn.Close()
		cl.brk.Fail()
		return err
	}
	if cl.dialed && ident != cl.ident {
		conn.Close()
		return fmt.Errorf("chirp: redial authenticated as %q, session was %q", ident, cl.ident)
	}
	c := newCodec(conn)
	f := lineFraming
	if cl.opts.Protocol != ProtocolV1 {
		if f, err = cl.negotiateVersion(c); err != nil {
			conn.Close()
			c.release()
			cl.brk.Fail()
			return err
		}
	}
	if cl.opts.Timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	cl.conn, cl.broken, cl.ident, cl.proto = conn, false, ident, f.proto
	cl.mux = newMuxSession(cl, conn, c, f)
	cl.m.negWindow.Set(int64(f.window))
	cl.m.negMaxBytes.Set(f.maxBytes)
	if cl.dialed {
		cl.m.redials.Inc()
		if err := cl.replayAssertionsLocked(); err != nil {
			cl.breakConnLocked()
			cl.brk.Fail()
			return err
		}
	}
	cl.dialed = true
	cl.brk.Success()
	return nil
}

// negotiateVersion runs the protocol version exchange on a freshly
// authenticated connection. The exchange itself is lock-step v1 — one
// line out, one reply back — so a v1 server sees nothing unusual: it
// answers the unknown "version" command with ENOSYS and the client
// stays on the line framing (window 1). A v2 server replies "ok 2 <window>
// <maxbytes> [caps...]" with its own caps; each side then uses the
// minimum and all subsequent traffic is framed. When the client wants
// request tracing (ClientOptions.Spans) it appends the trace capability
// token; tracing activates only if the server echoes it back, so an
// older v2 server silently leaves it off.
func (cl *Client) negotiateVersion(c *codec) (framing, error) {
	cl.sent.Add(1)
	var caps []string
	if cl.opts.Spans != nil {
		caps = append(caps, capTrace)
	}
	if cl.opts.DeadlineBudget > 0 {
		caps = append(caps, capDeadline)
	}
	if err := c.writeLine(versionLine(cl.opts.Window, cl.opts.MaxInflightBytes, caps...)); err != nil {
		return framing{}, err
	}
	line, err := c.readLine()
	if err != nil {
		return framing{}, err
	}
	parts, err := splitFields(line)
	if err != nil || len(parts) == 0 || (parts[0] != "ok" && parts[0] != "err") {
		return framing{}, fmt.Errorf("chirp: malformed version reply %q", line)
	}
	if parts[0] == "err" {
		// An old (or v1-pinned) server treats "version" as an unknown
		// command; that error reply is the fallback signal.
		return lineFraming, nil
	}
	v, w, b, echoed, err := parseVersionArgs(parts[1:])
	if err != nil {
		return framing{}, err
	}
	if v != ProtocolV2 {
		return framing{}, fmt.Errorf("chirp: server negotiated unsupported protocol %d", v)
	}
	if w > cl.opts.Window {
		w = cl.opts.Window
	}
	if b > cl.opts.MaxInflightBytes {
		b = cl.opts.MaxInflightBytes
	}
	return framing{
		proto:     ProtocolV2,
		window:    w,
		maxBytes:  b,
		traced:    cl.opts.Spans != nil && hasCap(echoed, capTrace),
		deadlined: cl.opts.DeadlineBudget > 0 && hasCap(echoed, capDeadline),
	}, nil
}

// ensureConnLocked makes sure a healthy authenticated connection is in
// place, redialing if the previous one broke.
func (cl *Client) ensureConnLocked() error {
	if cl.mux != nil && !cl.broken {
		return nil
	}
	return cl.connectLocked()
}

// breakConnLocked marks the transport dead; the next call redials. The
// session engine owns the codec: fail() closes the connection, unwinds
// both loops, and they release the buffers to the pools.
func (cl *Client) breakConnLocked() {
	cl.broken = true
	if cl.mux != nil {
		cl.mux.fail(errors.New("chirp: connection broken"))
		cl.mux = nil
	}
}

// dropMux detaches a failed session so the next call redials. The
// session has already killed itself; this only clears the client's
// reference (unless a concurrent redial already replaced it). It
// reports whether this caller performed the detach — a multiplexed
// session failure completes every in-flight call with the same
// transport error, and only the first observer should count it (one
// dead session is one breaker failure, not one per in-flight call).
func (cl *Client) dropMux(ms *muxSession) bool {
	cl.mu.Lock()
	dropped := cl.mux == ms
	if dropped {
		cl.broken = true
		cl.mux = nil
	}
	cl.mu.Unlock()
	return dropped
}

// replayAssertionsLocked re-presents CAS assertions on a fresh session,
// so grants survive a redial (session state the server keyed to the old
// connection).
func (cl *Client) replayAssertionsLocked() error {
	for _, blob := range cl.assertions {
		// A line of its own, left to the collector: do's recycling rules
		// do not apply outside do.
		_, _, err := cl.mux.roundTrip(wireCall{
			line:     new(lineBuf).start("assert").int(int64(len(blob))),
			sendBody: blob,
		})
		if err != nil {
			return fmt.Errorf("chirp: replaying assertion after redial: %w", err)
		}
	}
	return nil
}

// --- the exchange engine -----------------------------------------------

// wireCall describes one complete request/response exchange.
type wireCall struct {
	line     *lineBuf  // the encoded request line, from newLine: do owns it for every attempt and recycles it
	sendBody []byte    // counted payload sent with the request
	recvBody bool      // reply carries a counted payload (sized by reply[0] on v1)
	recvInto []byte    // reply payload is read directly into this buffer instead
	noRetry  bool      // this call is not idempotent though its command usually is
	trace    uint64    // request-tracing ID (0 untraced); only v2 traced sessions send it
	deadline time.Time // logical-call deadline (zero = unbounded); v2 deadlined sessions send the remaining budget
}

// do runs one logical RPC: deadline per attempt, redial on a broken
// connection, idempotency-aware retry with capped exponential backoff
// and jitter. It reports whether any retry happened, so callers can map
// retried mkdir/unlink outcomes (EEXIST/ENOENT after a lost reply mean
// the earlier attempt won).
func (cl *Client) do(c wireCall) (resp []string, body []byte, retried bool, err error) {
	// The line goes back to the pool when the call is over — unless an
	// attempt died with its session, whose writer may still be reading
	// the bytes: re-sends only read them too, but the next owner would
	// write.
	lineIdle := true
	defer func() {
		if lineIdle {
			linePool.Put(c.line)
		}
	}()
	// Stamp a trace ID once per logical call, so every retry of the same
	// request shows up under one trace. The ID only reaches the wire on
	// a session that negotiated the trace capability.
	if cl.opts.Spans != nil && c.trace == 0 {
		if c.trace = cl.forcedTrace.Load(); c.trace == 0 {
			c.trace = obs.NewTraceID()
		}
	}
	// Stamp the logical-call deadline once: every retry and backoff sleep
	// of this call spends from the same budget.
	if cl.opts.DeadlineBudget > 0 && c.deadline.IsZero() {
		c.deadline = time.Now().Add(cl.opts.DeadlineBudget)
	}
	attempts := 1
	if !cl.opts.DisableRetries {
		attempts += cl.opts.MaxRetries
	}
	var lastErr error
	// busyHint is the server's EBUSY retry-after hint, consumed as a
	// floor on the next backoff sleep.
	var busyHint time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if cl.closing.Load() {
			return nil, nil, retried, ErrClientClosed
		}
		if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
			cl.m.deadline.Inc()
			return nil, nil, retried, deadlineErr(cl.opts.DeadlineBudget, lastErr)
		}
		if attempt > 0 {
			retried = true
			cl.m.retries.Inc()
			cl.mu.Lock()
			d := backoff(cl.rng, cl.opts.RetryBase, cl.opts.RetryMax, attempt)
			cl.mu.Unlock()
			if busyHint > d {
				d = busyHint
			}
			busyHint = 0
			if !c.deadline.IsZero() && time.Now().Add(d).After(c.deadline) {
				// The wait alone would outlive the caller's budget; fail
				// fast instead of sleeping toward a guaranteed miss.
				cl.m.deadline.Inc()
				return nil, nil, retried, deadlineErr(cl.opts.DeadlineBudget, lastErr)
			}
			cl.opts.Sleep(d)
			if cl.closing.Load() {
				return nil, nil, retried, ErrClientClosed
			}
		}
		cl.mu.Lock()
		if cl.closed {
			cl.mu.Unlock()
			return nil, nil, retried, ErrClientClosed
		}
		if err := cl.ensureConnLocked(); err != nil {
			cl.mu.Unlock()
			// Nothing was sent, so even mutating calls may retry a
			// failed redial.
			lastErr = err
			if cl.opts.DisableRetries {
				return nil, nil, retried, err
			}
			continue
		}
		mux := cl.mux
		cl.mu.Unlock()
		// The exchange runs on the session engine without holding cl.mu,
		// so independent calls multiplex up to the session's window.
		r, b, aerr := mux.roundTrip(c)
		if aerr == nil {
			cl.brk.Success()
			return r, b, retried, nil
		}
		lastErr = aerr
		class, re := classOf(aerr)
		switch {
		case re != nil:
			// The server answered, so the session is healthy whatever
			// the reply says, and the reply is final — unless the
			// request was refused before anything executed (EBUSY), which
			// every call may retry; the server's retry-after hint floors
			// the next backoff.
			cl.brk.Success()
			if class == classRetrySafe && !cl.opts.DisableRetries {
				cl.m.busy.Inc()
				busyHint = RetryAfterFromError(aerr)
				continue
			}
			if re.Err == ErrDeadline {
				cl.m.deadline.Inc()
			}
			return nil, nil, retried, aerr
		case errors.Is(aerr, ErrDeadline):
			// The budget ran out client-side before the request was
			// sent: the session is fine, the caller is just out of time.
			cl.m.deadline.Inc()
			return nil, nil, retried, aerr
		}
		// Transport failure: the session is dead. Every in-flight call
		// sees it; only the first observer counts it against the breaker.
		lineIdle = false
		if cl.dropMux(mux) {
			cl.brk.Fail()
		}
		switch {
		case cl.closing.Load():
			// Close raced the call: its conn.Close is what killed the
			// exchange, so report the closure rather than the fault.
			return nil, nil, retried, ErrClientClosed
		case cl.opts.DisableRetries:
			return nil, nil, retried, aerr
		case errors.Is(aerr, errSessionLost):
			// The session died before this call reached the wire:
			// nothing was sent, so even mutating calls may retry.
		case c.noRetry || !commandByName[string(c.line.cmd())].has(fIdempotent):
			cl.m.unsafe.Inc()
			return nil, nil, retried, fmt.Errorf("%w: %v", ErrRetryNotSafe, aerr)
		}
	}
	return nil, nil, retried, lastErr
}

// newLine starts a request line in a pooled buffer; Client.do returns
// the buffer to the pool.
func newLine(cmd string) *lineBuf { return linePool.Get().(*lineBuf).start(cmd) }

// RequestCount reports how many requests this client has sent (the
// "quit" farewell excluded — the server never dispatches it; retried
// exchanges count once per attempt, mirroring the server's dispatches).
func (cl *Client) RequestCount() int64 { return cl.sent.Load() }

// compositeRetryable reports whether a whole-file operation should be
// restarted from scratch: mid-transfer transport faults (surfaced as
// ErrRetryNotSafe on descriptor ops) and EBADF from a descriptor that
// died with a redialed session both qualify.
func (cl *Client) compositeRetryable(err error) bool {
	if cl.opts.DisableRetries {
		return false
	}
	return errors.Is(err, ErrRetryNotSafe) || errors.Is(err, kernel.ErrBadFD)
}

// composite restarts a multi-RPC operation (PutFile, GetFile) that is
// idempotent as a whole even though its descriptor-level steps are not.
func (cl *Client) composite(op func() error) error {
	attempts := 1
	if !cl.opts.DisableRetries {
		attempts += cl.opts.MaxRetries
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			cl.m.retries.Inc()
			cl.mu.Lock()
			d := backoff(cl.rng, cl.opts.RetryBase, cl.opts.RetryMax, attempt)
			cl.mu.Unlock()
			cl.opts.Sleep(d)
		}
		if cl.closing.Load() {
			return ErrClientClosed
		}
		if err = op(); err == nil || !cl.compositeRetryable(err) {
			return err
		}
	}
	return err
}

// --- RPC surface --------------------------------------------------------

// ServerStats are the live server-side counters returned by the stats
// command: connection/session state plus lifetime request, error and
// wire-traffic totals.
type ServerStats struct {
	Conns    int    // connections currently tracked
	FDs      int    // this session's open descriptors
	Grants   int    // this session's verified CAS grants
	Name     string // the server's advertised name
	Requests int64  // requests dispatched, lifetime
	Errors   int64  // error replies sent, lifetime
	Sessions int64  // sessions authenticated, lifetime
	RxBytes  int64  // wire bytes the server received
	TxBytes  int64  // wire bytes the server sent

	// Replication extras, present only when the server runs with a
	// replication role (three extra reply fields; absent on standalone
	// servers, where Role is "").
	Role       string // primary, follower, or fenced
	Epoch      uint64 // fencing epoch
	AppliedLSN uint64 // highest LSN applied to the server's state
}

// Stats fetches the server's live counters.
func (cl *Client) Stats() (ServerStats, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("stats")})
	if err != nil {
		return ServerStats{}, err
	}
	if len(r) < 9 {
		return ServerStats{}, fmt.Errorf("chirp: bad stats reply %v", r)
	}
	var st ServerStats
	ints := []*int{&st.Conns, &st.FDs, &st.Grants}
	for i, dst := range ints {
		if *dst, err = strconv.Atoi(r[i]); err != nil {
			return ServerStats{}, fmt.Errorf("chirp: bad stats field %q", r[i])
		}
	}
	st.Name = r[3]
	int64s := []*int64{&st.Requests, &st.Errors, &st.Sessions, &st.RxBytes, &st.TxBytes}
	for i, dst := range int64s {
		if *dst, err = strconv.ParseInt(r[4+i], 10, 64); err != nil {
			return ServerStats{}, fmt.Errorf("chirp: bad stats field %q", r[4+i])
		}
	}
	if len(r) >= 12 {
		st.Role = r[9]
		if st.Epoch, err = strconv.ParseUint(r[10], 10, 64); err != nil {
			return ServerStats{}, fmt.Errorf("chirp: bad stats field %q", r[10])
		}
		if st.AppliedLSN, err = strconv.ParseUint(r[11], 10, 64); err != nil {
			return ServerStats{}, fmt.Errorf("chirp: bad stats field %q", r[11])
		}
	}
	return st, nil
}

// WaitLSN blocks until the server's state reflects lsn, bounded by
// timeout — the bounded-staleness read barrier against a follower: a
// reader who knows the primary's durable LSN (or just a horizon it
// needs) demands it before reading, and the follower parks the request
// until replication catches up. Returns the server's applied LSN at
// release. A standalone server answers immediately.
func (cl *Client) WaitLSN(lsn uint64, timeout time.Duration) (uint64, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("waitlsn").uint(lsn).int(timeout.Milliseconds())})
	if err != nil {
		return 0, err
	}
	if len(r) != 1 {
		return 0, fmt.Errorf("chirp: bad waitlsn reply %v", r)
	}
	return strconv.ParseUint(r[0], 10, 64)
}

// Metrics fetches the server's full metric registry as Prometheus text
// exposition.
func (cl *Client) Metrics() (string, error) {
	_, body, _, err := cl.do(wireCall{line: newLine("metrics"), recvBody: true})
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Whoami asks the server which principal it recorded.
func (cl *Client) Whoami() (identity.Principal, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("whoami")})
	if err != nil {
		return "", err
	}
	if len(r) != 1 {
		return "", fmt.Errorf("chirp: bad whoami reply %v", r)
	}
	return identity.Principal(r[0]), nil
}

// Open opens a remote file and returns its descriptor. Open retries
// transparently (a fresh descriptor on a fresh session is equivalent)
// unless O_EXCL makes a lost-reply retry observable.
func (cl *Client) Open(path string, flags int, mode uint32) (int, error) {
	r, _, _, err := cl.do(wireCall{
		line:    newLine("open").int(int64(flags)).oct(mode).quoted(path),
		noRetry: flags&kernel.OExcl != 0,
	})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(r[0])
}

// CloseFD releases a remote descriptor. Descriptors are session state:
// after a redial the old descriptor is gone, so no blind retry.
func (cl *Client) CloseFD(fd int) error {
	_, _, _, err := cl.do(wireCall{line: newLine("close").int(int64(fd))})
	return err
}

// Pread reads up to len(buf) bytes at off, straight into buf (no
// intermediate allocation). Descriptor-bound: a transport fault
// surfaces ErrRetryNotSafe (GetFile restarts the whole transfer
// instead).
func (cl *Client) Pread(fd int, buf []byte, off int64) (int, error) {
	r, _, _, err := cl.do(wireCall{
		line:     newLine("pread").int(int64(fd)).int(int64(len(buf))).int(off),
		recvInto: buf,
	})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(r[0])
}

// Pwrite writes buf at off. Descriptor-bound and non-idempotent: a
// transport fault surfaces ErrRetryNotSafe (PutFile restarts the whole
// transfer instead).
func (cl *Client) Pwrite(fd int, buf []byte, off int64) (int, error) {
	r, _, _, err := cl.do(wireCall{
		line:     newLine("pwrite").int(int64(fd)).int(off).int(int64(len(buf))),
		sendBody: buf,
	})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(r[0])
}

// FstatFD reports metadata for an open descriptor.
func (cl *Client) FstatFD(fd int) (vfs.Stat, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("fstat").int(int64(fd))})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(r)
}

// Stat reports metadata for a path, following symlinks.
func (cl *Client) Stat(path string) (vfs.Stat, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("stat").quoted(path)})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(r)
}

// Lstat reports metadata without following a final symlink.
func (cl *Client) Lstat(path string) (vfs.Stat, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("lstat").quoted(path)})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(r)
}

// ReadDir lists a remote directory.
func (cl *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("getdir").quoted(path)})
	if err != nil {
		return nil, err
	}
	if len(r) < 1 {
		return nil, fmt.Errorf("chirp: bad getdir reply")
	}
	n, err := strconv.Atoi(r[0])
	if err != nil || len(r) != 1+2*n {
		return nil, fmt.Errorf("chirp: bad getdir reply %v", r)
	}
	out := make([]vfs.DirEntry, 0, n)
	for i := 0; i < n; i++ {
		t, err := strconv.Atoi(r[2+2*i])
		if err != nil {
			return nil, err
		}
		out = append(out, vfs.DirEntry{Name: r[1+2*i], Type: vfs.FileType(t)})
	}
	return out, nil
}

// Mkdir creates a remote directory (with reserve-right semantics when
// the client holds only v in the parent). Mkdir is retried; EEXIST on a
// retried call means an earlier attempt's lost reply — the directory is
// there, so the call reports success.
func (cl *Client) Mkdir(path string, mode uint32) error {
	_, _, retried, err := cl.do(wireCall{line: newLine("mkdir").oct(mode).quoted(path)})
	if retried && errors.Is(err, vfs.ErrExist) {
		return nil
	}
	return err
}

// Rmdir removes an empty remote directory. ENOENT on a retried call
// means an earlier attempt already removed it.
func (cl *Client) Rmdir(path string) error {
	_, _, retried, err := cl.do(wireCall{line: newLine("rmdir").quoted(path)})
	if retried && errors.Is(err, vfs.ErrNotExist) {
		return nil
	}
	return err
}

// Unlink removes a remote file. ENOENT on a retried call means an
// earlier attempt already removed it.
func (cl *Client) Unlink(path string) error {
	_, _, retried, err := cl.do(wireCall{line: newLine("unlink").quoted(path)})
	if retried && errors.Is(err, vfs.ErrNotExist) {
		return nil
	}
	return err
}

// Rename moves a remote file. Not idempotent (a repeated rename fails
// or moves a recreated file), so mid-exchange faults surface
// ErrRetryNotSafe.
func (cl *Client) Rename(oldPath, newPath string) error {
	_, _, _, err := cl.do(wireCall{line: newLine("rename").quoted(oldPath).quoted(newPath)})
	return err
}

// Link creates a remote hard link.
func (cl *Client) Link(oldPath, newPath string) error {
	_, _, _, err := cl.do(wireCall{line: newLine("link").quoted(oldPath).quoted(newPath)})
	return err
}

// Symlink creates a remote symbolic link.
func (cl *Client) Symlink(target, linkPath string) error {
	_, _, _, err := cl.do(wireCall{line: newLine("symlink").quoted(target).quoted(linkPath)})
	return err
}

// Readlink reads a remote symlink target.
func (cl *Client) Readlink(path string) (string, error) {
	r, _, _, err := cl.do(wireCall{line: newLine("readlink").quoted(path)})
	if err != nil {
		return "", err
	}
	return r[0], nil
}

// Truncate sets a remote file's size (idempotent: truncating to the
// same size twice is harmless).
func (cl *Client) Truncate(path string, size int64) error {
	_, _, _, err := cl.do(wireCall{line: newLine("truncate").quoted(path).int(size)})
	return err
}

// GetACL fetches the ACL text protecting a remote directory.
func (cl *Client) GetACL(path string) (string, error) {
	_, body, _, err := cl.do(wireCall{line: newLine("getacl").quoted(path), recvBody: true})
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// SetACL replaces the ACL protecting a remote directory (requires the
// A right). Idempotent: replaying the same replacement converges.
func (cl *Client) SetACL(path, aclText string) error {
	_, _, _, err := cl.do(wireCall{
		line:     newLine("setacl").quoted(path).int(int64(len(aclText))),
		sendBody: []byte(aclText),
	})
	return err
}

// PresentAssertion hands a community-authorization assertion to the
// server; on success the server unions the granted rights with the
// local ACLs for this session, and the client replays it after any
// redial so grants survive reconnection. Returns the community name the
// server acknowledged.
func (cl *Client) PresentAssertion(encoded []byte) (string, error) {
	r, _, _, err := cl.do(wireCall{
		line:     newLine("assert").int(int64(len(encoded))),
		sendBody: encoded,
	})
	if err != nil {
		return "", err
	}
	if len(r) != 1 {
		return "", fmt.Errorf("chirp: bad assert reply %v", r)
	}
	cl.mu.Lock()
	cl.assertions = append(cl.assertions, encoded)
	cl.mu.Unlock()
	return r[0], nil
}

// ExecResult reports a remote execution.
type ExecResult struct {
	Code           int
	RuntimeSeconds float64
}

// Exec runs the staged program at path on the server, inside an
// identity box carrying this client's principal, with working
// directory cwd. Job submission is not idempotent: if the connection
// dies mid-call the client cannot know whether the job ran, so the
// fault surfaces as ErrRetryNotSafe. Use ExecToken to opt in to safe
// retry via server-side deduplication.
func (cl *Client) Exec(cwd, path string, args ...string) (ExecResult, error) {
	return cl.exec("", cwd, path, args)
}

// ExecToken is Exec with an idempotency token (see NewRequestToken):
// the server deduplicates by (principal, token) in a bounded table, so
// a retried submission whose first attempt actually ran is answered
// from the dedupe table instead of running twice. With a token, the
// client retries transparently across redials.
func (cl *Client) ExecToken(token, cwd, path string, args ...string) (ExecResult, error) {
	if token == "" {
		return ExecResult{}, fmt.Errorf("chirp: empty request token")
	}
	return cl.exec(token, cwd, path, args)
}

func (cl *Client) exec(token, cwd, path string, args []string) (ExecResult, error) {
	line := newLine("exec")
	if token != "" {
		// Tokened, the submission is idempotent: the server replays a
		// retry instead of re-executing it.
		line.start("token").quoted(token).str("exec")
	}
	line.quoted(cwd).quoted(path)
	for _, a := range args {
		line.quoted(a)
	}
	r, _, _, err := cl.do(wireCall{line: line})
	if err != nil {
		return ExecResult{}, err
	}
	if len(r) != 2 {
		return ExecResult{}, fmt.Errorf("chirp: bad exec reply %v", r)
	}
	code, err := strconv.Atoi(r[0])
	if err != nil {
		return ExecResult{}, err
	}
	rt, err := strconv.ParseFloat(r[1], 64)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Code: code, RuntimeSeconds: rt}, nil
}

// transferChunk is the whole-file transfer granularity: one pread or
// pwrite exchange per 64 KiB.
const transferChunk = 65536

// PutFile stages a whole file onto the server in one call sequence.
// The transfer is idempotent as a whole (O_TRUNC restarts it), so a
// connection dying mid-transfer restarts the sequence on a fresh
// session rather than surfacing the descriptor fault. With
// PipelineDepth > 1 the chunk writes are pipelined.
func (cl *Client) PutFile(path string, data []byte, mode uint32) error {
	return cl.composite(func() error {
		fd, err := cl.Open(path, kernel.OWronly|kernel.OCreat|kernel.OTrunc, mode)
		if err != nil {
			return err
		}
		if err := cl.pwriteAll(fd, data); err != nil {
			cl.CloseFD(fd)
			return err
		}
		return cl.CloseFD(fd)
	})
}

// GetFile fetches a whole remote file, restarting the read sequence if
// the connection dies mid-transfer. With PipelineDepth > 1 the chunk
// reads are pipelined.
func (cl *Client) GetFile(path string) ([]byte, error) {
	var out []byte
	err := cl.composite(func() error {
		fd, err := cl.Open(path, kernel.ORdonly, 0)
		if err != nil {
			return err
		}
		defer cl.CloseFD(fd)
		st, err := cl.FstatFD(fd)
		if err != nil {
			return err
		}
		out, err = cl.preadAll(fd, st.Size)
		if err != nil {
			return err
		}
		if int64(len(out)) < st.Size {
			return nil // the file shrank mid-transfer; out is the new content
		}
		// Serial tail: past the stat size the file may still have grown;
		// read until EOF exactly like the pre-pipelining path (the final
		// zero-byte read doubles as the completion check).
		buf := make([]byte, transferChunk)
		off := int64(len(out))
		for {
			n, err := cl.Pread(fd, buf, off)
			if err != nil {
				return err
			}
			if n == 0 {
				return nil
			}
			out = append(out, buf[:n]...)
			off += int64(n)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- chunked transfers ---------------------------------------------------

// eachChunk calls fn for chunk indexes [0, n), keeping up to
// ClientOptions.PipelineDepth calls in flight — each an independent call
// on the session engine, whose credit window does all the flow control
// (a v1 session's window of 1 serializes them again). It stops issuing
// chunks at the first error and reports the earliest failed chunk's.
func (cl *Client) eachChunk(n int, fn func(i int) error) error {
	depth := cl.opts.PipelineDepth
	if depth > n {
		depth = n
	}
	if depth <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkSpan is chunk i's byte range within a size-byte transfer.
func chunkSpan(i int, size int64) (off, end int64) {
	off = int64(i) * transferChunk
	if end = off + transferChunk; end > size {
		end = size
	}
	return off, end
}

// pwriteAll writes data to fd in transferChunk pieces.
func (cl *Client) pwriteAll(fd int, data []byte) error {
	size := int64(len(data))
	return cl.eachChunk(int((size+transferChunk-1)/transferChunk), func(i int) error {
		off, end := chunkSpan(i, size)
		n, err := cl.Pwrite(fd, data[off:end], off)
		if err == nil && int64(n) != end-off {
			err = fmt.Errorf("chirp: short pwrite: %d of %d bytes", n, end-off)
		}
		return err
	})
}

// preadAll fetches size bytes from the start of fd, each chunk's reply
// payload read directly into its slot of the result (no intermediate
// copies). A short read means the file shrank after the stat: the
// result is truncated at the earliest short chunk (later chunks simply
// read zero bytes, so no abort is needed).
func (cl *Client) preadAll(fd int, size int64) ([]byte, error) {
	out := make([]byte, size)
	var mu sync.Mutex
	shortEnd := size
	err := cl.eachChunk(int((size+transferChunk-1)/transferChunk), func(i int) error {
		off, end := chunkSpan(i, size)
		n, err := cl.Pread(fd, out[off:end], off)
		if err == nil && int64(n) < end-off {
			mu.Lock()
			if off+int64(n) < shortEnd {
				shortEnd = off + int64(n)
			}
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out[:shortEnd], nil
}
