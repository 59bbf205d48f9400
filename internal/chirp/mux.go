package chirp

import (
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
// the call was handed to the writer: nothing reached the wire, so even
// mutating calls may safely retry on a fresh session.
var errSessionLost = errors.New("chirp: session lost before send")

// muxCall is one call in flight on a muxSession. Calls are pooled: done
// is a reusable 1-buffered channel and completion is one send on it, by
// the reader (a reply arrived) or by fail (the session died) — whichever
// removed the call from pending. Only the goroutine that received that
// completion may put the call back (recycle), and only a replied,
// untraced one: after a reply nothing else still holds the call, whereas
// a dead session's writer may, and so may the flush stamp of a traced one.
type muxCall struct {
	tag      uint64
	pre      []byte   // per-attempt "trace <id> deadline <ms> " prefix, in prefix
	prefix   [64]byte // room for both prefixes at their longest
	line     *lineBuf // the request line: the caller's buffer, only read here
	sendBody []byte
	recvInto []byte // reply payload lands here (zero-copy) when set
	wantBody bool   // reply payload is copied out into body
	counted  bool   // occupies credit-window space
	bytes    int64  // the call's charge against the byte budget

	written chan struct{} // closed by the writer after flush (farewells)
	done    chan struct{} // receives exactly one completion per use

	// Request-tracing state. start and stall are written in submit
	// before the call is shared; writtenNanos is stamped by the writer
	// goroutine after the frame's flush and read by the submitter after
	// done, so it is atomic (zero means the stamp never landed).
	trace        uint64
	start        time.Time
	stall        time.Duration
	writtenNanos atomic.Int64

	resp []string
	body []byte
	err  error // RemoteError (final) or transport/session failure
}

var callPool = sync.Pool{New: func() any { return &muxCall{done: make(chan struct{}, 1)} }}

// recycle returns a completed call to the pool when nothing else can
// still be holding it (see muxCall).
func (call *muxCall) recycle() {
	if _, replied := call.err.(*RemoteError); (call.err == nil || replied) && call.trace == 0 {
		callPool.Put(call)
	}
}

// framing is what a connection negotiated: the protocol version and,
// on v2, the credit window, byte budget and capabilities. The v1 line
// framing negotiates nothing: its window is 1 (lock-step).
type framing struct {
	proto     int
	window    int   // calls in flight at once
	maxBytes  int64 // in-flight payload byte budget
	traced    bool  // server echoed the trace capability
	deadlined bool  // server echoed the deadline capability
}

// lineFraming is what a v1 session speaks.
var lineFraming = framing{proto: ProtocolV1, window: 1}

// muxSession is the client's one exchange engine, for either framing: a
// writer goroutine batching requests into shared flushes, a reader
// goroutine completing calls from replies, and a credit window bounding
// calls and payload bytes in flight. On v2 requests and replies are
// tagged frames and replies match by tag, in any order. On v1 they are
// a line plus counted payload, the window is 1, and replies match in
// FIFO order — the reader only reads while a call awaits its reply,
// exactly the lock-step exchange an old server expects.
//
// Lock order: a goroutine holds at most one of cl.mu and ms.mu at a
// time — the session never calls back into the client under its own
// lock, and the client only reads session state via methods that take
// ms.mu internally.
type muxSession struct {
	framing
	cl    *Client
	conn  net.Conn
	c     *codec        // writer goroutine owns c.w, reader owns c.r and scratch
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

	sendq    chan *muxCall
	awaiting chan *muxCall // v1: calls on the wire, in the order their replies will come
	closed   chan struct{} // closed by fail(); stops the writer
	wg       sync.WaitGroup
}

func newMuxSession(cl *Client, conn net.Conn, c *codec, f framing) *muxSession {
	ms := &muxSession{
		framing: f,
		cl:      cl,
		conn:    conn,
		c:       c,
		spans:   cl.opts.Spans,
		pending: make(map[uint64]*muxCall),
		// One beyond the window: the uncounted farewell.
		sendq:    make(chan *muxCall, f.window+1),
		awaiting: make(chan *muxCall, f.window+1),
		closed:   make(chan struct{}),
	}
	ms.cond = sync.NewCond(&ms.mu)
	ms.wg.Add(2)
	go ms.writeLoop()
	go ms.readLoop()
	go func() {
		// The codec's pooled buffers go back only after both loops are
		// done touching them.
		ms.wg.Wait()
		c.release()
	}()
	return ms
}

// fail kills the session exactly once: the connection is closed, both
// loops unwind, and every pending call completes with err.
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
	close(ms.closed)
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
// admitted, whatever its size, so a single fat transfer never wedges).
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
		remaining := time.Until(c.deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("%w before send", ErrDeadline)
		}
		// Rounded up: a sub-millisecond remainder must not serialize as
		// "deadline 0".
		budgetMS = int64((remaining + time.Millisecond - 1) / time.Millisecond)
	}
	est := int64(len(c.sendBody)+len(c.recvInto)) + 256
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
		sendBody: c.sendBody,
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
	ms.sendq <- call
	return call, nil
}

// roundTrip performs one synchronous exchange over the session. A call
// that outlives ClientOptions.Timeout kills the whole session, and the
// retry layer decides what to do.
func (ms *muxSession) roundTrip(c wireCall) ([]string, []byte, error) {
	call, err := ms.submit(c)
	if err != nil {
		return nil, nil, err
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
	resp, body, err := call.resp, call.body, call.err
	call.recycle()
	return resp, body, err
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
	// The writer stamps the flush time atomically; a session that died
	// before flushing leaves it zero and the span shows no wire phases.
	if w := call.writtenNanos.Load(); w != 0 {
		off := time.Unix(0, w).Sub(call.start)
		if off >= call.stall && off <= dur {
			sp.Phase("send", call.stall, off-call.stall)
			sp.Phase("await", off, dur-off)
		}
	}
	ms.spans.Record(sp)
}

// sendQuit queues the protocol farewell and reports the write outcome
// once the writer has flushed it. It does not wait for the server's
// reply (the v1 farewell never did either).
func (ms *muxSession) sendQuit() error {
	ms.mu.Lock()
	if ms.dead {
		err := ms.deadErr
		ms.mu.Unlock()
		return err
	}
	ms.nextTag++
	call := &muxCall{ // not pooled: sendQuit may stop waiting before the reply completes it
		tag:     ms.nextTag,
		line:    &lineBuf{b: []byte("quit")},
		written: make(chan struct{}),
		done:    make(chan struct{}, 1),
	}
	// Registered so the server's ok reply is not an unknown tag, but
	// uncounted: the farewell takes no credit-window space.
	ms.pending[call.tag] = call
	ms.mu.Unlock()
	ms.sendq <- call
	select {
	case <-call.written:
		return nil
	case <-call.done:
		return call.err
	}
}

// writeLoop drains the submit queue into the wire, coalescing every
// frame available at the moment into one flush so a pipelining burst
// costs one syscall instead of one per call.
func (ms *muxSession) writeLoop() {
	defer ms.wg.Done()
	var flushed []*muxCall // calls with post-flush work (farewells; every v1 call)
	var stamped []*muxCall // traced calls awaiting their flush stamp
	for {
		var call *muxCall
		select {
		case call = <-ms.sendq:
		case <-ms.closed:
			return
		}
		for call != nil {
			// Everything the writer needs of the call is read before its
			// bytes can reach the wire: once they have, a reply may complete
			// the call and its waiter recycle it.
			afterFlush, traced := call.written != nil || ms.proto == ProtocolV1, call.trace != 0
			if err := ms.c.queueMessage(ms.proto == ProtocolV2, call.tag, call.pre, call.line.b, call.sendBody); err != nil {
				ms.fail(err)
				return
			}
			if afterFlush {
				flushed = append(flushed, call)
			}
			if traced {
				stamped = append(stamped, call)
			}
			select {
			case call = <-ms.sendq:
			default:
				call = nil
			}
		}
		if err := ms.c.flush(); err != nil {
			ms.fail(err)
			return
		}
		if len(stamped) > 0 {
			now := time.Now().UnixNano()
			for _, s := range stamped {
				s.writtenNanos.Store(now)
			}
			stamped = stamped[:0]
		}
		for _, f := range flushed {
			if f.written != nil {
				close(f.written)
			}
			if ms.proto == ProtocolV1 {
				// Only now may the reader start on this call's reply: a
				// v1 peer never sees a read race ahead of its request.
				ms.awaiting <- f
			}
		}
		flushed = flushed[:0]
	}
}

// readLoop completes calls from replies. Any transport or protocol
// fault kills the session: there is no wire realignment to attempt,
// the retry layer redials instead.
func (ms *muxSession) readLoop() {
	defer ms.wg.Done()
	for {
		call, line, payloadLen, err := ms.nextReply()
		if err != nil {
			ms.fail(err)
			return
		}
		resp, body, rerr, ferr := ms.readReply(call, line, payloadLen)
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
		call.resp, call.body, call.err = resp, body, rerr
		call.done <- struct{}{}
	}
}

// nextReply is the reply side of the framing adapter: it claims the
// call the next reply answers and reads that reply's line. v2 reads a
// frame header and matches its tag; the header carries the payload
// length. v1 waits for the oldest call on the wire, then reads a line;
// payloadLen is -1 because the reply line itself announces the length.
// The call is removed from pending, so fail() can no longer complete it.
func (ms *muxSession) nextReply() (call *muxCall, line string, payloadLen int, err error) {
	var tag uint64
	if ms.proto == ProtocolV2 {
		h, err := ms.c.readFrameHeader()
		if err != nil {
			return nil, "", 0, err
		}
		tag, payloadLen = h.tag, h.payloadLen
		if line, err = ms.c.readFrameLine(h.lineLen); err != nil {
			return nil, "", 0, err
		}
	} else {
		select {
		case call = <-ms.awaiting:
		case <-ms.closed:
			return nil, "", 0, errSessionLost
		}
		tag, payloadLen = call.tag, -1
		if line, err = ms.c.readLine(); err != nil {
			return nil, "", 0, err
		}
	}
	ms.mu.Lock()
	call = ms.pending[tag]
	delete(ms.pending, tag)
	ms.mu.Unlock()
	if call == nil {
		return nil, "", 0, fmt.Errorf("chirp: protocol error: reply for unknown tag %d", tag)
	}
	return call, line, payloadLen, nil
}

// readReply parses one reply line for call and consumes its payload.
// rerr is the call's outcome (nil or a *RemoteError); ferr is a
// transport or protocol fault that must kill the session.
func (ms *muxSession) readReply(call *muxCall, line string, payloadLen int) (resp []string, body []byte, rerr, ferr error) {
	parts, err := splitFields(line)
	if err != nil || len(parts) == 0 {
		return nil, nil, nil, fmt.Errorf("chirp: malformed reply %q", line)
	}
	switch parts[0] {
	case "ok":
		if payloadLen < 0 {
			if payloadLen = 0; call.wantBody || call.recvInto != nil {
				if len(parts) < 2 {
					return nil, nil, nil, fmt.Errorf("chirp: reply missing payload length")
				}
				if payloadLen, err = strconv.Atoi(parts[1]); err != nil || payloadLen < 0 {
					return nil, nil, nil, fmt.Errorf("chirp: bad payload length %q", parts[1])
				}
			}
		}
		if payloadLen > 0 && call.recvInto != nil {
			// Zero-copy receive: the payload lands in the caller's
			// buffer, no scratch and no per-call allocation.
			if payloadLen > len(call.recvInto) {
				return nil, nil, nil, fmt.Errorf("chirp: reply payload %d exceeds %d-byte buffer", payloadLen, len(call.recvInto))
			}
			if err := ms.c.readPayloadInto(call.recvInto[:payloadLen]); err != nil {
				return nil, nil, nil, err
			}
			return parts[1:], nil, nil, nil
		}
		if payloadLen > 0 || call.wantBody {
			raw, err := ms.c.readPayload(payloadLen)
			if err != nil {
				return nil, nil, nil, err
			}
			if call.wantBody {
				// The scratch alias must not escape the reader loop: the
				// next reply's reads reuse it.
				body = append([]byte(nil), raw...)
			}
		}
		return parts[1:], body, nil, nil
	case "err":
		// Error replies are line-only; drain any stray frame payload to
		// stay aligned anyway.
		if payloadLen > 0 {
			if _, err := ms.c.readPayload(payloadLen); err != nil {
				return nil, nil, nil, err
			}
		}
		name, msg := "EIO", "unknown"
		if len(parts) > 1 {
			name = parts[1]
		}
		if len(parts) > 2 {
			msg = parts[2]
		}
		return nil, nil, remoteError(name, msg), nil
	default:
		return nil, nil, nil, fmt.Errorf("chirp: malformed reply %q", line)
	}
}

// WindowStats is a live snapshot of a client's negotiated v2 window
// state (zero-valued beyond Protocol on a v1 session, which negotiates
// nothing).
type WindowStats struct {
	Protocol         int   // negotiated protocol version (1 or 2)
	Window           int   // negotiated credit window (tags in flight)
	MaxInflightBytes int64 // negotiated in-flight byte budget
	InFlight         int   // tags currently awaiting replies
	Stalls           int64 // submits that waited for window space
	Traced           bool  // both ends negotiated the trace capability
}

// Protocol reports the protocol version the current session negotiated
// (ProtocolV1 or ProtocolV2).
func (cl *Client) Protocol() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.proto
}

// WindowStats reports the live credit-window state of the current
// session.
func (cl *Client) WindowStats() WindowStats {
	cl.mu.Lock()
	ms := cl.mux
	proto := cl.proto
	cl.mu.Unlock()
	if ms == nil || ms.proto == ProtocolV1 {
		return WindowStats{Protocol: proto}
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return WindowStats{
		Protocol:         ProtocolV2,
		Window:           ms.window,
		MaxInflightBytes: ms.maxBytes,
		InFlight:         ms.inflight,
		Stalls:           ms.stalls.Load(),
		Traced:           ms.traced,
	}
}
