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
	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// This file is the session: one authenticated connection's state, its
// version exchange, its frame reader (admission, credit window) and the
// workers that feed the pipeline in pipeline.go.

// session is one authenticated connection.
//
// The connection goroutine is the session's reader: it runs the version
// exchange, then reads frames. Workers execute the requests; they, the
// reader's refusals and the replication pusher write through w, the
// session's one frame writer. The descriptor table and CAS grants get
// their own RWMutexes. Lock order: fdMu and grantsMu are leaves (nothing
// else is acquired under them); w's lock is taken around one frame's
// queue (and the flush, for the last writer in) and never with another
// session lock held.
type session struct {
	s     *Server
	id    int64 // session sequence number, for log correlation
	log   logger
	reqs  int64 // requests dispatched on this session (reader-owned)
	ident identity.Principal
	conn  net.Conn // for per-request deadlines and drain nudges
	c     *codec

	fdMu   sync.RWMutex // guards fds and nextFD
	fds    map[int]*sessionFD
	nextFD int

	// box is the identity box the session's execs run in, made by the
	// first exec (execBox); boxMu guards making it.
	boxMu sync.Mutex
	box   *core.Box

	// grants are CAS-granted rights, verified against CASTrust.
	grantsMu sync.RWMutex
	grants   []grant

	// conf is what the version exchange negotiated. The reader sets it
	// before starting the workers, so they (and the replication pusher)
	// read it without a lock.
	conf sessionConf

	// busy counts the session's requests from the arrival of a frame
	// header to the write of the reply (or of the reader's own
	// refusal): the session is idle, and a drain may expire its read,
	// only at zero. It also gates frame admission: the reader queues a
	// request only while the others number fewer than the window, and
	// waits on slotCond otherwise.
	slotMu   sync.Mutex
	slotCond *sync.Cond
	busy     int

	// w writes every frame. A writer that leaves its flush to a waiter is
	// flushed before that waiter's busy span ends, or, when the waiter is
	// the pusher, before serveConn releases the codec: busy 0 still means
	// everything flushed that a request wrote.
	w frameWriter

	// replSub is the session's live replication subscription; pushWG
	// tracks its pusher goroutine so the codec is not released under it.
	replMu  sync.Mutex
	replSub *replica.Subscription
	pushWG  sync.WaitGroup
}

// sessionConf is the outcome of a version negotiation.
type sessionConf struct {
	window    int
	maxBytes  int64
	traced    bool // both sides negotiated the trace capability
	repl      bool // both sides negotiated the repl capability
	deadlined bool // both sides negotiated the deadline capability
}

// --- session state accessors (workers run concurrently) ----------------

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
	h   *vfs.Handle
	acc vfs.Access
}

func (s *Server) serveConn(conn net.Conn) {
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
		c:      newCodec(wire),
		fds:    make(map[int]*sessionFD),
		nextFD: 1,
	}
	sess.slotCond = sync.NewCond(&sess.slotMu)
	sess.w = frameWriter{c: sess.c, conn: conn, timeout: s.opts.RequestTimeout, severed: sess.isStopping, flushes: s.metrics.flushes}
	s.mu.Lock()
	s.conns[conn] = sess // so a drain can nudge it and a sever wake it
	s.mu.Unlock()
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

// request is one parsed request on its way through the pipeline. Its
// payload (freshly allocated by the reader) and reply scratch are its
// own, so workers never share buffers. Requests are pooled: the reader
// takes one per frame and whoever answers it recycles it.
type request struct {
	tag      uint64   // frame tag: the reply carries it back
	spec     *cmdSpec // the command's table row (nil: unknown command)
	cmd      string   // the command, unwrapped from any token prefix
	args     []string
	token    string // idempotency token the request came wrapped in
	mutating bool   // role-gated and barriered: fMutating, less a read-only open
	payload  []byte
	trace    uint64    // request-tracing ID (0 untraced)
	deadline time.Time // budget anchored at arrival (zero: none)
	arrived  time.Time // when the request was read off the wire
	ticket   *admission.Ticket
	bad      bool // the reader refuses it (EINVAL): malformed, or a bad token wrapper
	// fields is the line's tokens, in an array reused from request to
	// request: cmd, token and args are views of it. The tokens are
	// substrings of the line's own string, which nothing reuses, so a
	// handler may keep any of them; only the array goes back to the pool.
	fields []string
	// sc answers it: a reply line, a pread body, a guard. The line starts
	// in lineArr, so a request made after a GC is still one allocation.
	sc      payloadScratch
	lineArr [128]byte
}

var requestPool = sync.Pool{New: func() any {
	req := new(request)
	req.sc.line.b = req.lineArr[:0]
	return req
}}

// maxPooledFields bounds the argument array a pooled request may keep,
// and maxPooledBody its pread body: one grown past it (a long exec
// argv, a body over one transfer chunk) is dropped at recycle.
const maxPooledFields, maxPooledBody = 64, transferChunk

// recycledArg overwrites a recycled request's argument array. Clearing
// it would do for the collector; a poison string makes a handler that
// kept args past its reply operate on a name nobody sent, which the
// tests look for, instead of on another request's names.
const recycledArg = "\x00recycled"

// recycle returns an answered request to the pool. Nothing may touch
// req afterwards: serve has written its reply and run res.after, or the
// session dropped it unanswered.
func (req *request) recycle() {
	for i := range req.fields {
		req.fields[i] = recycledArg
	}
	fields := req.fields[:0]
	if cap(fields) > maxPooledFields {
		fields = nil
	}
	body := req.sc.buf
	if cap(body) > maxPooledBody {
		body = nil
	}
	*req = request{fields: fields, sc: payloadScratch{buf: body, line: req.sc.line}}
	requestPool.Put(req)
}

// loop is the session's reader: after the version exchange it pulls
// one frame at a time (readRequest), counts the request, passes it
// through admission, and hands it to the workers, where the credit
// window applies backpressure by simply not reading the next frame.
func (sess *session) loop() {
	var wk workers
	defer wk.close() // all replies flushed before the codec is released
	if sess.s.isDraining() || !sess.negotiate(&wk) {
		return
	}
	for !sess.s.isDraining() && sess.step(&wk) {
	}
}

// step reads and dispatches one request; false ends the session.
func (sess *session) step(wk *workers) bool {
	s := sess.s
	// The reader's own replies (farewell, refusals) are built in the
	// codec's scratch, which only the reader uses.
	sc := sess.c.scratch
	req, err := sess.readRequest()
	if err != nil {
		return false // connection closed (or drain nudge expired the read)
	}
	// Answered here, the request is recycled and its busy span ended on
	// the way out; queued, the worker that serves it does both.
	queued := false
	defer func() {
		if !queued {
			req.recycle()
			sess.done()
		}
	}()
	if req.cmd == "quit" && !req.bad {
		wk.close() // every pending reply precedes the farewell ack
		sess.reply(req.tag, hres{line: sc.ok()})
		return false
	}
	if req.cmd != "" {
		sess.count(req)
	}
	if req.bad {
		return sess.reply(req.tag, sess.fail(sc, vfs.ErrInvalid)) == nil
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
	if !sess.acquireSlot(sess.conf.window) {
		req.ticket.Done()
		return false // server severing this session: stop reading
	}
	queued = true
	if wk.idle.Load() > 0 {
		wk.idle.Add(-1) // only the reader takes from idle: it is still positive
	} else { // every worker started is busy: start one more
		wk.wg.Add(1)
		go sess.worker(wk)
	}
	wk.pool <- req
	return true
}

// count records one request the reader parsed: the server's request
// counters and, when logging is on, one log line.
func (sess *session) count(req *request) {
	s := sess.s
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

// readRequest reads the next tagged frame, carrying line and payload,
// and parses its line against the command table; the line may be led
// by the negotiated "trace <id>" and "deadline <ms>" prefixes. The
// session is busy from the frame header's arrival, and RequestTimeout
// bounds what is read after it, so a peer that announces a frame and
// stalls cannot pin the session. A request the reader refuses comes
// back with bad set; an error means the session is over.
func (sess *session) readRequest() (*request, error) {
	req := requestPool.Get().(*request)
	if err := sess.readInto(req); err != nil {
		req.recycle()
		return nil, err
	}
	return req, nil
}

// readInto is readRequest's body, filling a pooled request. The line
// costs one string, which every field is a substring of; the fields go
// into the request's reused array.
func (sess *session) readInto(req *request) error {
	h, err := sess.c.readFrameHeader()
	if err != nil {
		return err
	}
	req.tag = h.tag
	sess.begin()
	b, err := sess.c.readFrameLine(h.lineLen)
	if err != nil {
		return err
	}
	line := string(b)
	if h.payloadLen > 0 {
		req.payload = make([]byte, h.payloadLen)
		if err := sess.c.readPayloadInto(req.payload); err != nil {
			return err
		}
	}
	sess.armRead(false)
	req.arrived = time.Now()
	fields, perr := appendFields(req.fields[:0], line, true)
	req.fields = fields
	if perr != nil || len(fields) == 0 {
		req.bad = true
		return nil
	}
	// Prefixes need at least 3 fields, so a bare "trace <id>" line stays
	// the trace-fetch RPC and a malformed bare line is never mistaken
	// for a prefix. They are stripped here: everything downstream sees
	// the plain line.
	if sess.conf.traced && len(fields) >= 3 && fields[0] == capTrace {
		if id, perr := obs.ParseTraceID(fields[1]); perr == nil && id != 0 {
			req.trace, fields = id, fields[2:]
		}
	}
	if sess.conf.deadlined && len(fields) >= 3 && fields[0] == capDeadline {
		if ms, perr := strconv.ParseUint(fields[1], 10, 32); perr == nil {
			req.deadline = req.arrived.Add(time.Duration(ms) * time.Millisecond)
			fields = fields[2:]
		}
	}
	req.cmd, req.args = fields[0], fields[1:]
	req.spec = commandByName[req.cmd]
	if req.cmd == "token" {
		// `token <id> <cmd> ...`: the inner command is what is counted,
		// admitted and executed; the token keys its reply for replay.
		if len(req.args) < 2 {
			req.bad = true
			return nil
		}
		req.token, req.cmd, req.args = req.args[0], req.args[1], req.args[2:]
		req.spec = commandByName[req.cmd]
		req.bad = !req.spec.has(fTokenable)
	}
	// An open that is no write (vfs.Access.Writes) changes nothing:
	// followers serve it (bounded-staleness reads are what read replicas
	// are for) and its reply waits for no barrier. Flags that are no
	// number count as mutating; access mode 3 is no write, and is refused
	// anywhere.
	req.mutating = req.spec.has(fMutating)
	if req.mutating && req.cmd == "open" && len(req.args) > 0 {
		flags, err := strconv.Atoi(req.args[0])
		acc, _ := vfs.OpenAccess(flags)
		req.mutating = err != nil || acc.Writes()
	}
	return nil
}

// begin marks the session busy with the frame whose header just
// arrived, then arms the read deadline for the rest of the frame. A
// drain nudge that raced the header is thereby undone, and no later one
// comes while the session is busy, so a drain never cuts a frame short.
func (sess *session) begin() {
	sess.slotMu.Lock()
	sess.busy++
	sess.slotMu.Unlock()
	sess.armRead(true)
}

// armRead sets the read deadline for the frame being read:
// RequestTimeout from now while on, none once the frame is in. Arming
// without a RequestTimeout still clears the deadline a nudge may have
// set.
func (sess *session) armRead(on bool) {
	rt := sess.s.opts.RequestTimeout
	if !on && rt <= 0 {
		return // nothing was armed
	}
	var t time.Time
	if on && rt > 0 {
		t = time.Now().Add(rt)
	}
	if err := sess.conn.SetReadDeadline(t); err != nil {
		sess.log.printf("request read deadline: %v", err)
	}
}

// negotiate runs the server's half of the version exchange, the one
// plain line each way before any frame. A first line of the form
// "version 2 <window> <maxbytes> [caps...]" is counted as a version
// request, answered "ok 2 <window> <maxbytes> [caps...]" with each side's
// minimum and the capabilities both sides support, and switches the
// session to tagged frames. Anything else is answered with one EINVAL
// err line, counted like any error reply, and ends the session; the line
// is neither admitted, executed nor counted as a request. false ends the
// session.
func (sess *session) negotiate(wk *workers) bool {
	s, sc := sess.s, sess.c.scratch
	line, err := sess.c.readLine()
	if err != nil {
		return false // connection closed (or drain nudge expired the read)
	}
	fields, err := appendFields(nil, string(line), true)
	var v, w int
	var b int64
	var caps []string
	if err == nil && len(fields) > 0 && fields[0] == "version" {
		v, w, b, caps, err = parseVersionArgs(fields[1:])
	}
	if err != nil || v < ProtocolV2 {
		sess.log.printf("refused: first request is no version exchange: %q", line)
		refusal := sess.fail(sc, fmt.Errorf("%w: protocol 2 required: the first request must be a version exchange", vfs.ErrInvalid))
		sess.c.writeLine(refusal.line.b)
		return false
	}
	sess.count(&request{cmd: fields[0], args: fields[1:], spec: commandByName[fields[0]]})
	conf := sessionConf{window: min(w, s.window()), maxBytes: min(b, s.maxInflightBytes())}
	// Capability tokens: echoed only when both sides support them, so a
	// client never sends trace context to a server that cannot strip it.
	conf.traced = s.opts.Spans != nil && hasCap(caps, capTrace)
	conf.repl = s.opts.Repl != nil && hasCap(caps, capRepl)
	conf.deadlined = s.opts.Admission != nil && hasCap(caps, capDeadline)
	ok := sc.line.start("ok").int(ProtocolV2).int(int64(conf.window)).int(conf.maxBytes)
	if conf.traced {
		ok.str(capTrace)
	}
	if conf.repl {
		ok.str(capRepl)
	}
	if conf.deadlined {
		ok.str(capDeadline)
	}
	if err := sess.c.writeLine(ok.b); err != nil {
		return false
	}
	// The ok went out as a line; everything from here on is tagged frames.
	sess.conf = conf
	sess.log.printf("negotiated protocol 2 (window=%d maxbytes=%d traced=%v)", conf.window, conf.maxBytes, conf.traced)
	wk.pool = make(chan *request, conf.window)
	return true
}

var errSevered = errors.New("chirp: session severed")

// workers is a session's executor: its workers run every request, in
// no promised order. A client that needs one request to follow another
// waits for the first reply, as Client does; so the barrier waits of a
// session's callers overlap and share commit groups, and a slow exec
// holds one worker, not the session. It has as many as its most
// requests in flight so far (step starts them), until the session ends.
type workers struct {
	pool chan *request
	// idle counts the workers that have handed their last reply to the
	// frame writer and that the reader has not taken since: it takes one
	// for each request it queues, and starts a worker when none is free.
	idle atomic.Int32
	wg   sync.WaitGroup
	once sync.Once
}

// close stops the workers and waits for every queued reply's write. It
// is a no-op on a session that never negotiated.
func (wk *workers) close() {
	wk.once.Do(func() {
		if wk.pool != nil {
			close(wk.pool)
			wk.wg.Wait()
		}
	})
}

func (sess *session) worker(wk *workers) {
	defer wk.wg.Done()
	for req := range wk.pool {
		if sess.isStopping() {
			// Severed: the socket is gone, no reply can reach the
			// client — drop queued work instead of executing it.
			req.ticket.Done()
			wk.idle.Add(1)
		} else {
			sess.serve(req, wk)
		}
		req.recycle()
		sess.releaseSlot()
	}
}

// acquireSlot blocks until the session's credit window has room for
// the request the reader holds, which is busy already, then claims a
// slot for it; false means the server is severing the session. Called
// only by the frame reader, so blocking here is the backpressure: the
// next frame waits for a slot.
func (sess *session) acquireSlot(window int) bool {
	sess.slotMu.Lock()
	defer sess.slotMu.Unlock()
	for sess.busy > window && !sess.isStopping() {
		sess.s.metrics.bpStalls.Inc()
		sess.slotCond.Wait()
	}
	if sess.isStopping() {
		return false
	}
	sess.s.metrics.occupancy.Observe(float64(sess.busy))
	sess.s.metrics.tagsInFlight.Inc()
	return true
}

// abort wakes a frame reader parked on the credit window. severAll
// calls it once the server is closed, so the reader sees isStopping and
// stops reading, and the workers drop queued jobs; without it a reader
// parked behind a window full of slow work would hold its connection
// goroutine, and therefore Close, hostage until every queued job had
// executed toward the already-dead socket.
func (sess *session) abort() {
	sess.slotMu.Lock()
	sess.slotCond.Broadcast()
	sess.slotMu.Unlock()
}

// isStopping reports whether the server has severed its sessions.
func (sess *session) isStopping() bool { return sess.s.phase.Load() == phaseClosed }

// releaseSlot returns a worker's slot after its reply is written.
func (sess *session) releaseSlot() {
	sess.s.metrics.tagsInFlight.Dec()
	sess.done()
}

// done ends one request's busy span, once its reply is written. During
// a drain the session is then nudged, since its reader, blocked on the
// next frame header, cannot see the drain.
func (sess *session) done() {
	sess.slotMu.Lock()
	sess.busy--
	sess.slotCond.Signal()
	sess.slotMu.Unlock()
	if sess.s.isDraining() {
		sess.nudge()
	}
}

// nudge expires the reader's read if the session is idle, so a reader
// waiting for its next frame header during a drain wakes and exits. The
// check and the expiry share one slotMu hold, so a frame header cannot
// be counted between them; begin re-arms the deadline after counting
// one, which undoes a nudge that beat it.
func (sess *session) nudge() {
	sess.slotMu.Lock()
	if sess.busy == 0 {
		expireRead(sess.conn)
	}
	sess.slotMu.Unlock()
}
