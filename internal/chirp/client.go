package chirp

import (
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
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
// (muxSession), which multiplexes calls up to the negotiated window, so
// one connection can back a whole mount table or a pool of workers.
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
	mu sync.Mutex // guards mux and dialed
	// mux is the live connection's session engine, nil once the
	// transport failed (the next call redials) or the client closed.
	mux    *muxSession
	dialed bool // first connection established (later dials count as redials)

	closing atomic.Bool // set once, by Close before taking mu; aborts retry loops

	ident identity.Principal
	addr  string
	auths []auth.Authenticator
	opts  ClientOptions

	clk clock // budgets, backoff sleeps and the breaker's cool-off
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
	return dialOpts(addr, auths, opts, wallClock{})
}

// dialOpts is DialOpts on the given clock.
func dialOpts(addr string, auths []auth.Authenticator, opts ClientOptions, clk clock) (*Client, error) {
	opts.withDefaults()
	cl := &Client{
		addr:  addr,
		auths: auths,
		opts:  opts,
		clk:   clk,
		brk:   newBreaker(opts.BreakerThreshold, clk, opts.Metrics),
		m:     newClientMetrics(opts.Metrics),
		rng:   mrand.New(mrand.NewSource(1)),
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
	if cl.closing.Swap(true) { // aborts backoff loops waiting on cl.mu
		return nil
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	ms := cl.mux
	if ms == nil {
		// The transport already failed and was closed; a farewell could
		// only mask the original fault with noise.
		return nil
	}
	cl.mux = nil
	// Closing the connection after the farewell unwinds the reader, which
	// releases the codec.
	qerr := ms.sendQuit()
	cerr := ms.conn.Close()
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
	f, err := cl.negotiateVersion(c)
	if err != nil {
		conn.Close()
		c.release()
		cl.brk.Fail()
		return err
	}
	if cl.opts.Timeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	cl.ident = ident
	cl.mux = newMuxSession(cl, conn, c, f)
	cl.m.negWindow.Set(int64(f.window))
	cl.m.negMaxBytes.Set(f.maxBytes)
	if cl.dialed {
		cl.m.redials.Inc()
		if err := cl.replayAssertionsLocked(); err != nil {
			// fail closes the connection and unwinds the reader, which
			// releases the codec; the next call redials.
			cl.mux.fail(errors.New("chirp: connection broken"))
			cl.mux = nil
			cl.brk.Fail()
			return err
		}
	}
	cl.dialed = true
	cl.brk.Success()
	return nil
}

// negotiateVersion runs the version exchange on a freshly
// authenticated connection (exchangeVersion); each side then uses the
// minimum of the two windows and byte budgets, and all subsequent
// traffic is framed. When the client wants request tracing
// (ClientOptions.Spans) or deadline budgets it appends that capability
// token; either activates only if the server echoes it back.
func (cl *Client) negotiateVersion(c *codec) (framing, error) {
	cl.sent.Add(1)
	var caps []string
	if cl.opts.Spans != nil {
		caps = append(caps, capTrace)
	}
	if cl.opts.DeadlineBudget > 0 {
		caps = append(caps, capDeadline)
	}
	w, b, echoed, err := exchangeVersion(c, cl.opts.Window, cl.opts.MaxInflightBytes, caps...)
	if err != nil {
		return framing{}, err
	}
	return framing{
		window:    min(w, cl.opts.Window),
		maxBytes:  min(b, cl.opts.MaxInflightBytes),
		traced:    cl.opts.Spans != nil && hasCap(echoed, capTrace),
		deadlined: cl.opts.DeadlineBudget > 0 && hasCap(echoed, capDeadline),
	}, nil
}

// ensureConnLocked makes sure a healthy authenticated connection is in
// place, redialing if the previous one broke.
func (cl *Client) ensureConnLocked() error {
	if cl.mux != nil {
		return nil
	}
	return cl.connectLocked()
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
	recvBody bool      // reply carries a counted payload
	recvInto []byte    // reply payload is read directly into this buffer instead
	noRetry  bool      // this call is not idempotent though its command usually is
	trace    uint64    // request-tracing ID (0 untraced); only traced sessions send it
	deadline time.Time // logical-call deadline (zero = unbounded); deadlined sessions send the remaining budget
}

// do runs one logical RPC: deadline per attempt, redial on a broken
// connection, idempotency-aware retry with capped exponential backoff
// and jitter. On success rest is the reply line after "ok", which the
// caller splits into a stack array. It reports whether any retry happened,
// so callers can map retried mkdir/unlink outcomes (EEXIST/ENOENT after
// a lost reply mean the earlier attempt won).
func (cl *Client) do(c wireCall) (rest string, body []byte, retried bool, err error) {
	// Once submit has returned, nothing reads the line: it goes back to
	// the pool when the call is over, however the call ended.
	defer linePool.Put(c.line)
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
	if c.deadline.IsZero() {
		c.deadline = cl.budgetDeadline()
	}
	var lastErr error
	// busyHint is the server's EBUSY retry-after hint, consumed as a
	// floor on the next backoff sleep.
	var busyHint time.Duration
	for attempt := 0; attempt < 1+cl.opts.MaxRetries; attempt++ {
		retried = attempt > 0
		if err := cl.pause(attempt, busyHint, c.deadline, lastErr); err != nil {
			return "", nil, retried, err
		}
		busyHint = 0
		cl.mu.Lock()
		if cl.closing.Load() {
			cl.mu.Unlock()
			return "", nil, retried, ErrClientClosed
		}
		if err := cl.ensureConnLocked(); err != nil {
			cl.mu.Unlock()
			// Nothing was sent, so even mutating calls may retry a
			// failed redial.
			lastErr = err
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
			if class == classRetrySafe {
				cl.m.busy.Inc()
				busyHint = re.RetryAfter
				continue
			}
			if re.Err == ErrDeadline {
				cl.m.deadline.Inc()
			}
			return "", nil, retried, aerr
		case errors.Is(aerr, ErrDeadline):
			// The budget ran out client-side before the request was
			// sent: the session is fine, the caller is just out of time.
			cl.m.deadline.Inc()
			return "", nil, retried, aerr
		}
		// Transport failure: the session is dead. Every in-flight call
		// sees it; only the first observer counts it against the breaker.
		if cl.dropMux(mux) {
			cl.brk.Fail()
		}
		switch {
		case cl.closing.Load():
			// Close raced the call: its conn.Close is what killed the
			// exchange, so report the closure rather than the fault.
			return "", nil, retried, ErrClientClosed
		case errors.Is(aerr, errSessionLost):
			// The session died before this call reached the wire:
			// nothing was sent, so even mutating calls may retry.
		case c.noRetry || !commandByName[string(c.line.cmd())].has(fIdempotent):
			cl.m.unsafe.Inc()
			return "", nil, retried, fmt.Errorf("%w: %v", ErrRetryNotSafe, aerr)
		}
	}
	return "", nil, retried, lastErr
}

// budgetDeadline is the deadline of a logical call that starts now:
// DeadlineBudget from now, or zero (none) without a budget.
func (cl *Client) budgetDeadline() time.Time {
	if cl.opts.DeadlineBudget <= 0 {
		return time.Time{}
	}
	return cl.clk.now().Add(cl.opts.DeadlineBudget)
}

// pause is the one retry rule, run before every attempt of both retry
// loops (do and composite). It refuses an attempt the client is closing
// under or whose deadline has passed; before a retry it sleeps the
// backoff, floored at hint, unless the sleep alone would outlive the
// deadline, in which case it fails fast instead of sleeping toward a
// guaranteed miss. A non-nil result is the call's error.
func (cl *Client) pause(attempt int, hint time.Duration, deadline time.Time, lastErr error) error {
	if cl.closing.Load() {
		return ErrClientClosed
	}
	missed := func(at time.Time) bool { return !deadline.IsZero() && !at.Before(deadline) }
	if missed(cl.clk.now()) {
		cl.m.deadline.Inc()
		return deadlineErr(cl.opts.DeadlineBudget, lastErr)
	}
	if attempt == 0 {
		return nil
	}
	cl.m.retries.Inc()
	cl.mu.Lock()
	d := max(backoff(cl.rng, attempt), hint)
	cl.mu.Unlock()
	if missed(cl.clk.now().Add(d)) {
		cl.m.deadline.Inc()
		return deadlineErr(cl.opts.DeadlineBudget, lastErr)
	}
	cl.clk.sleep(d)
	if cl.closing.Load() {
		return ErrClientClosed
	}
	return nil
}

// newLine starts a request line in a pooled buffer; Client.do returns
// the buffer to the pool.
func newLine(cmd string) *lineBuf { return linePool.Get().(*lineBuf).start(cmd) }

// atoiReply is the one integer field of a cmd reply.
func atoiReply(cmd, rest string) (int, error) {
	f, err := replyField(cmd, rest)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(f)
}

// replyField is the one field of a cmd reply, given the reply's line
// after "ok". Like every reply split, it appends into a stack array,
// so the field is a substring of rest and costs nothing.
func replyField(cmd, rest string) (string, error) {
	var a [1]string
	f, err := appendFields(a[:0], rest, true)
	if err == nil && len(f) != 1 {
		err = fmt.Errorf("chirp: bad %s reply %q", cmd, rest)
	}
	if err != nil {
		return "", err
	}
	return f[0], nil
}

// RequestCount reports how many requests this client has sent (the
// "quit" farewell excluded — the server never dispatches it; retried
// exchanges count once per attempt, mirroring the server's dispatches).
func (cl *Client) RequestCount() int64 { return cl.sent.Load() }

// composite restarts a multi-RPC operation (the chunk paths of PutFile
// and GetFile) that is idempotent as a whole even though its
// descriptor-level steps are not. Mid-transfer transport faults
// (surfaced as ErrRetryNotSafe on descriptor ops) and EBADF from a
// descriptor that died with a redialed session both restart it from
// scratch. The operation gets one deadline, stamped here, which every
// call it makes and every restart spends from.
func (cl *Client) composite(op func(deadline time.Time) error) error {
	deadline := cl.budgetDeadline()
	var err error
	for attempt := 0; attempt < 1+cl.opts.MaxRetries; attempt++ {
		if perr := cl.pause(attempt, 0, deadline, err); perr != nil {
			return perr
		}
		if err = op(deadline); !errors.Is(err, ErrRetryNotSafe) && !errors.Is(err, kernel.ErrBadFD) {
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
	rest, _, _, err := cl.do(wireCall{line: newLine("stats")})
	if err != nil {
		return ServerStats{}, err
	}
	var a [12]string
	r, err := appendFields(a[:0], rest, true)
	if err != nil {
		return ServerStats{}, err
	}
	if len(r) < 9 {
		return ServerStats{}, fmt.Errorf("chirp: bad stats reply %q", rest)
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
	rest, _, _, err := cl.do(wireCall{line: newLine("waitlsn").uint(lsn).int(timeout.Milliseconds())})
	if err != nil {
		return 0, err
	}
	f, err := replyField("waitlsn", rest)
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(f, 10, 64)
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
	rest, _, _, err := cl.do(wireCall{line: newLine("whoami")})
	if err != nil {
		return "", err
	}
	f, err := replyField("whoami", rest)
	return identity.Principal(f), err
}

// Open opens a remote file and returns its descriptor. Open retries
// transparently (a fresh descriptor on a fresh session is equivalent)
// unless O_EXCL makes a lost-reply retry observable.
func (cl *Client) Open(path string, flags int, mode uint32) (int, error) {
	return cl.open(path, flags, mode, time.Time{})
}

// open, closeFD, pread, pwrite and fstatFD are the descriptor calls
// under a caller's deadline: the chunk paths pass the transfer's, the
// exported methods zero (do stamps the call's own).
func (cl *Client) open(path string, flags int, mode uint32, deadline time.Time) (int, error) {
	return cl.intCall("open", wireCall{
		line:     newLine("open").int(int64(flags)).oct(mode).quoted(path),
		noRetry:  flags&kernel.OExcl != 0,
		deadline: deadline,
	})
}

// CloseFD releases a remote descriptor. Descriptors are session state:
// after a redial the old descriptor is gone, so no blind retry.
func (cl *Client) CloseFD(fd int) error { return cl.closeFD(fd, time.Time{}) }

func (cl *Client) closeFD(fd int, deadline time.Time) error {
	_, _, _, err := cl.do(wireCall{line: newLine("close").int(int64(fd)), deadline: deadline})
	return err
}

// Pread reads up to len(buf) bytes at off, straight into buf (no
// intermediate allocation). Descriptor-bound: a transport fault
// surfaces ErrRetryNotSafe (GetFile restarts the whole transfer
// instead).
func (cl *Client) Pread(fd int, buf []byte, off int64) (int, error) {
	return cl.pread(fd, buf, off, time.Time{})
}

func (cl *Client) pread(fd int, buf []byte, off int64, deadline time.Time) (int, error) {
	return cl.intCall("pread", wireCall{
		line:     newLine("pread").int(int64(fd)).int(int64(len(buf))).int(off),
		recvInto: buf,
		deadline: deadline,
	})
}

// Pwrite writes buf at off. Descriptor-bound and non-idempotent: a
// transport fault surfaces ErrRetryNotSafe (PutFile restarts the whole
// transfer instead).
func (cl *Client) Pwrite(fd int, buf []byte, off int64) (int, error) {
	return cl.pwrite(fd, buf, off, time.Time{})
}

func (cl *Client) pwrite(fd int, buf []byte, off int64, deadline time.Time) (int, error) {
	return cl.intCall("pwrite", wireCall{
		line:     newLine("pwrite").int(int64(fd)).int(off).int(int64(len(buf))),
		sendBody: buf,
		deadline: deadline,
	})
}

// intCall runs c and returns its reply's one integer field.
func (cl *Client) intCall(cmd string, c wireCall) (int, error) {
	rest, _, _, err := cl.do(c)
	if err != nil {
		return 0, err
	}
	return atoiReply(cmd, rest)
}

// FstatFD reports metadata for an open descriptor.
func (cl *Client) FstatFD(fd int) (vfs.Stat, error) { return cl.fstatFD(fd, time.Time{}) }

func (cl *Client) fstatFD(fd int, deadline time.Time) (vfs.Stat, error) {
	rest, _, _, err := cl.do(wireCall{line: newLine("fstat").int(int64(fd)), deadline: deadline})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(rest)
}

// Stat reports metadata for a path, following symlinks.
func (cl *Client) Stat(path string) (vfs.Stat, error) {
	rest, _, _, err := cl.do(wireCall{line: newLine("stat").quoted(path)})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(rest)
}

// Lstat reports metadata without following a final symlink.
func (cl *Client) Lstat(path string) (vfs.Stat, error) {
	rest, _, _, err := cl.do(wireCall{line: newLine("lstat").quoted(path)})
	if err != nil {
		return vfs.Stat{}, err
	}
	return parseStat(rest)
}

// ReadDir lists a remote directory.
func (cl *Client) ReadDir(path string) ([]vfs.DirEntry, error) {
	rest, _, _, err := cl.do(wireCall{line: newLine("getdir").quoted(path)})
	if err != nil {
		return nil, err
	}
	var a [1 + 2*16]string // up to 16 entries split on the stack
	r, err := appendFields(a[:0], rest, true)
	if err != nil {
		return nil, err
	}
	if len(r) < 1 {
		return nil, fmt.Errorf("chirp: bad getdir reply")
	}
	n, err := strconv.Atoi(r[0])
	if err != nil || len(r) != 1+2*n {
		return nil, fmt.Errorf("chirp: bad getdir reply %q", rest)
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
	rest, _, _, err := cl.do(wireCall{line: newLine("readlink").quoted(path)})
	if err != nil {
		return "", err
	}
	return replyField("readlink", rest)
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
	rest, _, _, err := cl.do(wireCall{
		line:     newLine("assert").int(int64(len(encoded))),
		sendBody: encoded,
	})
	if err != nil {
		return "", err
	}
	community, err := replyField("assert", rest)
	if err != nil {
		return "", err
	}
	cl.mu.Lock()
	cl.assertions = append(cl.assertions, encoded)
	cl.mu.Unlock()
	return community, nil
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
	rest, _, _, err := cl.do(wireCall{line: line})
	if err != nil {
		return ExecResult{}, err
	}
	var a [2]string
	r, err := appendFields(a[:0], rest, true)
	if err != nil {
		return ExecResult{}, err
	}
	if len(r) != 2 {
		return ExecResult{}, fmt.Errorf("chirp: bad exec reply %q", rest)
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

// transferChunk is the chunk path's granularity: one pread or pwrite
// exchange per 64 KiB.
const transferChunk = 65536

// PutFile stages a whole file onto the server. A file up to MaxPayload
// goes as one putfile: one request, one journal
// record and one durability wait, retried transparently like any
// idempotent call. A larger file takes the chunk path (putChunks).
func (cl *Client) PutFile(path string, data []byte, mode uint32) error {
	if len(data) > MaxPayload {
		return cl.putChunks(path, data, mode)
	}
	_, _, _, err := cl.do(wireCall{
		line:     newLine("putfile").quoted(path).oct(mode).int(int64(len(data))),
		sendBody: data,
	})
	return err
}

// GetFile fetches a whole remote file: one getfile, whose reply body is
// the file, retried transparently like any idempotent call. A file over
// MaxPayload (EFBIG, vfs.ErrTooBig) takes the chunk path (getChunks).
func (cl *Client) GetFile(path string) ([]byte, error) {
	_, body, _, err := cl.do(wireCall{line: newLine("getfile").quoted(path), recvBody: true})
	if errors.Is(err, vfs.ErrTooBig) {
		return cl.getChunks(path)
	}
	return body, err
}

// putChunks is PutFile's chunk path: an O_TRUNC open, the chunk writes
// keeping up to the session's window in flight, and a close, all under
// the transfer's one deadline. The sequence is idempotent as a whole
// (O_TRUNC restarts it), so a connection dying mid-transfer restarts it
// on a fresh session rather than surfacing the descriptor fault.
func (cl *Client) putChunks(path string, data []byte, mode uint32) error {
	return cl.composite(func(dl time.Time) error {
		fd, err := cl.open(path, kernel.OWronly|kernel.OCreat|kernel.OTrunc, mode, dl)
		if err != nil {
			return err
		}
		if err := cl.pwriteAll(fd, data, dl); err != nil {
			cl.CloseFD(fd) // on its own budget: the transfer's may be spent
			return err
		}
		return cl.closeFD(fd, dl)
	})
}

// getChunks is GetFile's chunk path: an open, an fstat, the chunk reads
// keeping up to the session's window in flight, a serial tail to EOF,
// and a close, under the transfer's one deadline, restarted as a whole
// if the connection dies mid-transfer.
func (cl *Client) getChunks(path string) ([]byte, error) {
	var out []byte
	err := cl.composite(func(dl time.Time) error {
		fd, err := cl.open(path, kernel.ORdonly, 0, dl)
		if err != nil {
			return err
		}
		defer cl.CloseFD(fd) // on its own budget: the transfer's may be spent
		st, err := cl.fstatFD(fd, dl)
		if err != nil {
			return err
		}
		out, err = cl.preadAll(fd, st.Size, dl)
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
			n, err := cl.pread(fd, buf, off, dl)
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

// eachChunk calls fn for chunk indexes [0, n), keeping min(window, n)
// calls in flight, where window is the current session's negotiated
// credit window — each an independent call on the session engine, whose
// credit window does all the flow control. A window of one and a
// one-chunk transfer run the serial loop and spawn no goroutine. It
// stops issuing chunks at the first error and reports the earliest
// failed chunk's.
func (cl *Client) eachChunk(n int, fn func(i int) error) error {
	depth := 1
	cl.mu.Lock()
	if cl.mux != nil {
		depth = min(cl.mux.window, n)
	}
	cl.mu.Unlock()
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
func (cl *Client) pwriteAll(fd int, data []byte, deadline time.Time) error {
	size := int64(len(data))
	return cl.eachChunk(int((size+transferChunk-1)/transferChunk), func(i int) error {
		off, end := chunkSpan(i, size)
		n, err := cl.pwrite(fd, data[off:end], off, deadline)
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
func (cl *Client) preadAll(fd int, size int64, deadline time.Time) ([]byte, error) {
	out := make([]byte, size)
	var mu sync.Mutex
	shortEnd := size
	err := cl.eachChunk(int((size+transferChunk-1)/transferChunk), func(i int) error {
		off, end := chunkSpan(i, size)
		n, err := cl.pread(fd, out[off:end], off, deadline)
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
