package chirp

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// This file is the session: one authenticated connection's state, its
// reader (framing adapter, admission, version exchange) and, on v2, the
// lanes and credit window that feed the pipeline in pipeline.go.

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
