package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/obs"
)

// errSessionLost is returned by submit when the session died before
// the call was registered: nothing reached the wire, so even mutating
// calls may safely retry on a fresh session.
var errSessionLost = errors.New("chirp: session lost before send")

// muxCall is one call in flight on a muxSession. Calls are pooled: done
// is a reusable 1-buffered channel and completion is one send on it, by
// the reader (a reply arrived) or by fail (the session died) — whichever
// removed the call from pending. The goroutine that received that
// completion puts the call back: it is the submitter, whose frame was
// written before submit returned, so nothing else holds it.
type muxCall struct {
	tag      uint64
	pre      []byte   // per-attempt "trace <id> deadline <ms> " prefix, in prefix
	prefix   [64]byte // room for both prefixes at their longest
	line     *lineBuf // the request line: the caller's buffer, only read here
	recvInto []byte   // reply payload lands here (zero-copy) when set
	wantBody bool     // reply payload is read into a fresh body
	counted  bool     // occupies credit-window space
	bytes    int64    // the call's charge against the byte budget

	done chan struct{} // receives exactly one completion per use

	// Request-tracing state, written and read by the submitter only:
	// sent is when its frame was flushed or left to the writer who
	// flushes it (zero: the write failed).
	trace uint64
	start time.Time
	stall time.Duration
	sent  time.Duration

	rest string // the reply line after "ok" (see readReply)
	body []byte
	err  error // RemoteError (final) or transport/session failure
}

var callPool = sync.Pool{New: func() any { return &muxCall{done: make(chan struct{}, 1)} }}

// framing is what a connection's version exchange negotiated: the
// credit window, byte budget and capabilities.
type framing struct {
	window    int   // calls in flight at once
	maxBytes  int64 // in-flight payload byte budget
	traced    bool  // server echoed the trace capability
	deadlined bool  // server echoed the deadline capability
}

// muxSession is the client's one exchange engine: each caller writes
// its own request through the frame writer, one reader goroutine
// completes calls from replies, and a credit window bounds calls and
// payload bytes in flight. Requests and replies are tagged frames, and
// replies match by tag, in any order.
//
// Lock order: a goroutine holds at most one of cl.mu and ms.mu at a
// time — the session never calls back into the client under its own
// lock, and the client only reads session state via methods that take
// ms.mu internally. w's lock is a leaf, never taken with ms.mu held.
type muxSession struct {
	framing
	cl    *Client
	conn  net.Conn
	c     *codec // the reader owns c.r and scratch, w the write half
	w     frameWriter
	spans *obs.SpanRing // client-side span sink (ClientOptions.Spans)

	mu            sync.Mutex
	cond          *sync.Cond // waits for credit-window space
	nextTag       uint64
	pending       map[uint64]*muxCall
	inflight      int
	inflightBytes int64
	dead          bool
	deadErr       error

	stalls atomic.Int64 // submits that waited for window space
}

func newMuxSession(cl *Client, conn net.Conn, c *codec, f framing) *muxSession {
	ms := &muxSession{
		framing: f,
		cl:      cl,
		conn:    conn,
		c:       c,
		spans:   cl.opts.Spans,
		pending: make(map[uint64]*muxCall),
	}
	ms.w.c, ms.w.conn, ms.w.timeout = c, conn, cl.opts.Timeout
	ms.cond = sync.NewCond(&ms.mu)
	go ms.readLoop()
	return ms
}

// fail kills the session exactly once: the connection is closed, the
// reader unwinds, and every pending call completes with err.
func (ms *muxSession) fail(err error) {
	ms.mu.Lock()
	if ms.dead {
		ms.mu.Unlock()
		return
	}
	ms.dead = true
	ms.deadErr = err
	pending := ms.pending
	ms.pending = make(map[uint64]*muxCall)
	ms.inflight = 0
	ms.inflightBytes = 0
	ms.cond.Broadcast()
	ms.mu.Unlock()
	ms.conn.Close()
	ms.cl.m.tagsInFlight.Set(0)
	ms.cl.m.inflightBytes.Set(0)
	for _, call := range pending {
		call.err = err
		call.done <- struct{}{}
	}
}

// submit registers a call, waiting for credit-window space (the
// ops window, plus the byte budget — though one call is always
// admitted, whatever its size, so a single fat transfer never wedges),
// and writes its frame. On return nothing reads the call's line or
// payload any more. A failed write kills the session, which completes
// the call.
func (ms *muxSession) submit(c wireCall) (*muxCall, error) {
	// Tracing activates per call: the session must have negotiated the
	// capability and the call must carry an ID. The untraced path stamps
	// nothing and sends the line unchanged.
	trace := c.trace
	if !ms.traced {
		trace = 0
	}
	var start time.Time
	if trace != 0 {
		start = time.Now()
	}
	// The remaining budget is stamped ahead of the line, per attempt, so
	// the server can shed the call at any hop once it expires: a re-send
	// rewrites this prefix and never the line.
	var budgetMS int64
	if ms.deadlined && !c.deadline.IsZero() {
		remaining := c.deadline.Sub(ms.cl.clk.now())
		if remaining <= 0 {
			return nil, fmt.Errorf("%w before send", ErrDeadline)
		}
		// Rounded up: a sub-millisecond remainder must not serialize as
		// "deadline 0".
		budgetMS = int64((remaining + time.Millisecond - 1) / time.Millisecond)
	}
	est := int64(len(c.sendBody)+len(c.recvInto)) + 256
	if c.recvBody && string(c.line.cmd()) == "getfile" {
		est += MaxPayload // the file's size is unknown until its reply
	}
	ms.mu.Lock()
	for !ms.dead && (ms.inflight >= ms.window ||
		(ms.inflight > 0 && ms.inflightBytes+est > ms.maxBytes)) {
		ms.stalls.Add(1)
		ms.cl.m.windowStalls.Inc()
		ms.cond.Wait()
	}
	if ms.dead {
		err := ms.deadErr
		ms.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", errSessionLost, err)
	}
	ms.nextTag++
	call := callPool.Get().(*muxCall)
	*call = muxCall{
		tag:      ms.nextTag,
		line:     c.line,
		recvInto: c.recvInto,
		wantBody: c.recvBody,
		counted:  true,
		bytes:    est,
		trace:    trace,
		start:    start,
		done:     call.done,
	}
	call.pre = call.prefix[:0]
	if trace != 0 {
		call.pre = append(append(append(call.pre, "trace "...), obs.FormatTraceID(trace)...), ' ')
	}
	if budgetMS > 0 {
		call.pre = append(strconv.AppendInt(append(call.pre, "deadline "...), budgetMS, 10), ' ')
	}
	if trace != 0 {
		call.stall = time.Since(start)
	}
	ms.pending[call.tag] = call
	ms.inflight++
	ms.inflightBytes += est
	ms.cl.m.tagsInFlight.Set(int64(ms.inflight))
	ms.cl.m.inflightBytes.Set(ms.inflightBytes)
	ms.mu.Unlock()
	ms.cl.sent.Add(1)
	if err := ms.w.write(call.tag, call.pre, c.line.b, c.sendBody); err != nil {
		ms.fail(err)
	} else if trace != 0 {
		call.sent = time.Since(start)
	}
	return call, nil
}

// roundTrip performs one synchronous exchange over the session. A call
// that outlives ClientOptions.Timeout kills the whole session, and the
// retry layer decides what to do.
func (ms *muxSession) roundTrip(c wireCall) (string, []byte, error) {
	call, err := ms.submit(c)
	if err != nil {
		return "", nil, err
	}
	if to := ms.cl.opts.Timeout; to > 0 {
		timer := time.NewTimer(to)
		defer timer.Stop()
		select {
		case <-call.done:
		case <-timer.C:
			ms.fail(fmt.Errorf("chirp: call timed out after %v", to))
			<-call.done
		}
	} else {
		<-call.done
	}
	if call.trace != 0 {
		ms.observeCall(call)
	}
	rest, body, err := call.rest, call.body, call.err
	callPool.Put(call)
	return rest, body, err
}

// observeCall records a completed traced call: its latency lands in the
// client request-latency histogram (with the trace as the bucket's
// exemplar) and, when a span ring is configured, a "client" span with
// submit-stall, send, and await phases. Called only for traced calls,
// so the untraced path never reaches it.
func (ms *muxSession) observeCall(call *muxCall) {
	dur := time.Since(call.start)
	ms.cl.m.requestLatency.ObserveExemplar(float64(dur.Microseconds()), call.trace)
	if ms.spans == nil {
		return
	}
	sp := obs.Span{
		Trace: call.trace,
		ID:    ms.spans.NextSpanID(),
		Name:  "client",
		Cmd:   string(call.line.cmd()),
		Start: call.start,
		Dur:   dur,
	}
	if call.err != nil {
		sp.Err = call.err.Error()
	}
	sp.Phase("submit.stall", 0, call.stall)
	// A failed write leaves sent zero and the span shows no wire phases.
	if off := call.sent; off != 0 {
		sp.Phase("send", call.stall, off-call.stall)
		sp.Phase("await", off, dur-off)
	}
	ms.spans.Record(sp)
}

// sendQuit writes the protocol farewell and reports the write's
// outcome. It does not wait for the server's reply.
func (ms *muxSession) sendQuit() error {
	ms.mu.Lock()
	if ms.dead {
		err := ms.deadErr
		ms.mu.Unlock()
		return err
	}
	ms.nextTag++
	tag := ms.nextTag
	// Registered so the server's ok reply is not an unknown tag, but
	// uncounted: the farewell takes no credit-window space. Not pooled:
	// nobody waits for its completion.
	ms.pending[tag] = &muxCall{tag: tag, done: make(chan struct{}, 1)}
	ms.mu.Unlock()
	return ms.w.write(tag, nil, []byte("quit"), nil)
}

// readLoop completes calls from replies. Any transport or protocol
// fault kills the session: there is no wire realignment to attempt,
// the retry layer redials instead.
func (ms *muxSession) readLoop() {
	defer ms.w.release() // after fail has closed the connection
	for {
		call, line, payloadLen, err := ms.nextReply()
		if err != nil {
			ms.fail(err)
			return
		}
		rest, body, rerr, ferr := ms.readReply(call, line, payloadLen)
		if ferr != nil {
			ms.fail(ferr)
			call.err = ferr
			call.done <- struct{}{}
			return
		}
		if call.counted {
			ms.mu.Lock()
			ms.inflight--
			ms.inflightBytes -= call.bytes
			ms.cl.m.tagsInFlight.Set(int64(ms.inflight))
			ms.cl.m.inflightBytes.Set(ms.inflightBytes)
			ms.cond.Signal()
			ms.mu.Unlock()
		}
		call.rest, call.body, call.err = rest, body, rerr
		call.done <- struct{}{}
	}
}

// nextReply reads the next reply frame's header and line and claims
// the call its tag answers. The line is valid only until the codec's
// next read (readReply copies what it keeps). The call is removed from
// pending, so fail() can no longer complete it.
func (ms *muxSession) nextReply() (call *muxCall, line []byte, payloadLen int, err error) {
	h, err := ms.c.readFrameHeader()
	if err != nil {
		return nil, nil, 0, err
	}
	if line, err = ms.c.readFrameLine(h.lineLen); err != nil {
		return nil, nil, 0, err
	}
	ms.mu.Lock()
	call = ms.pending[h.tag]
	delete(ms.pending, h.tag)
	ms.mu.Unlock()
	if call == nil {
		return nil, nil, 0, fmt.Errorf("chirp: protocol error: reply for unknown tag %d", h.tag)
	}
	return call, line, h.payloadLen, nil
}

// readReply decodes one reply line for call and consumes its payload.
// The line's first word decides: "ok" leaves rest, the line after it,
// for the caller to split (a bare ok allocates nothing, any other reply
// exactly that one string); "err" becomes a *RemoteError. rerr is the
// call's outcome (nil or a *RemoteError); ferr is a transport or
// protocol fault that must kill the session.
func (ms *muxSession) readReply(call *muxCall, line []byte, payloadLen int) (rest string, body []byte, rerr, ferr error) {
	word, tail, _ := bytes.Cut(line, []byte(" "))
	if len(tail) > 0 {
		// Copied before any payload read can overwrite the line.
		rest = string(tail)
	}
	switch string(word) {
	case "ok":
		if payloadLen > 0 && call.recvInto != nil {
			// Zero-copy receive: the payload lands in the caller's
			// buffer, no scratch and no per-call allocation.
			if payloadLen > len(call.recvInto) {
				return "", nil, nil, fmt.Errorf("chirp: reply payload %d exceeds %d-byte buffer", payloadLen, len(call.recvInto))
			}
			if err := ms.c.readPayloadInto(call.recvInto[:payloadLen]); err != nil {
				return "", nil, nil, err
			}
			return rest, nil, nil, nil
		}
		switch {
		case call.wantBody:
			// Straight into an exact-size buffer the caller keeps: a body
			// never passes through, or grows, the codec's scratch.
			if err := checkPayloadLen(payloadLen); err != nil {
				return "", nil, nil, err
			}
			body = make([]byte, payloadLen)
			if err := ms.c.readPayloadInto(body); err != nil {
				return "", nil, nil, err
			}
		case payloadLen > 0: // unasked for: drained to stay aligned
			if _, err := ms.c.readPayload(payloadLen); err != nil {
				return "", nil, nil, err
			}
		}
		return rest, body, nil, nil
	case "err":
		// Error replies are line-only; drain any stray payload to stay
		// aligned anyway.
		if payloadLen > 0 {
			if _, err := ms.c.readPayload(payloadLen); err != nil {
				return "", nil, nil, err
			}
		}
		var a [2]string
		parts, err := appendFields(a[:0], rest, true)
		if err != nil {
			return "", nil, nil, fmt.Errorf("chirp: malformed reply %q", "err "+rest)
		}
		f := [2]string{"EIO", "unknown"} // what a bare "err" stands for
		copy(f[:], parts)
		return "", nil, remoteError(f[0], f[1]), nil
	default:
		return "", nil, nil, fmt.Errorf("chirp: malformed reply %q", line)
	}
}

// WindowStats is a live snapshot of a client's negotiated credit
// window (zero-valued between sessions).
type WindowStats struct {
	Window           int   // negotiated credit window (tags in flight)
	MaxInflightBytes int64 // negotiated in-flight byte budget
	InFlight         int   // tags currently awaiting replies
	Stalls           int64 // submits that waited for window space
	Traced           bool  // both ends negotiated the trace capability
}

// WindowStats reports the live credit-window state of the current
// session.
func (cl *Client) WindowStats() WindowStats {
	cl.mu.Lock()
	ms := cl.mux
	cl.mu.Unlock()
	if ms == nil {
		return WindowStats{}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return WindowStats{
		Window:           ms.window,
		MaxInflightBytes: ms.maxBytes,
		InFlight:         ms.inflight,
		Stalls:           ms.stalls.Load(),
		Traced:           ms.traced,
	}
}
