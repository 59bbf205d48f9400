package chirp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/obs"
)

// ProtocolV2 is the one protocol version a session negotiates. It keeps
// the paper's Chirp line grammar but wraps every line+payload in a
// tagged binary frame, so many requests can be in flight on one session
// and replies may return out of order. A session opens with one plain
// line each way, the version exchange (versionLine); a peer that sends
// anything else first is refused.
const ProtocolV2 = 2

// MaxLine bounds the protocol-line portion of a v2 frame. Lines carry
// commands, quoted paths and directory listings; 64 KiB is far beyond
// any legitimate line and small enough that a hostile length cannot
// force a large allocation.
const MaxLine = 1 << 16

// frameHeaderSize is the fixed v2 frame header: a big-endian u64 tag,
// u32 line length, u32 payload length, followed by that many line bytes
// and payload bytes. The same framing runs in both directions; a reply
// frame carries the tag of the request it answers.
const frameHeaderSize = 16

// Credit-window defaults. The window is negotiated per session (each
// side advertises, the minimum wins) and bounds tags in flight; the
// byte budget bounds in-flight request+reply payload bytes so a deep
// window of fat transfers cannot buffer unbounded memory.
const (
	DefaultWindow           = 64
	DefaultMaxInflightBytes = 8 << 20
)

// frameHeader is one decoded v2 frame header.
type frameHeader struct {
	tag        uint64
	lineLen    int
	payloadLen int
}

// putFrameHeader encodes a header into b (len >= frameHeaderSize).
func putFrameHeader(b []byte, tag uint64, lineLen, payloadLen int) {
	binary.BigEndian.PutUint64(b[0:8], tag)
	binary.BigEndian.PutUint32(b[8:12], uint32(lineLen))
	binary.BigEndian.PutUint32(b[12:16], uint32(payloadLen))
}

// parseFrameHeader validates a wire-supplied header before anything is
// allocated or read: a zero tag, an empty or oversized line, or a
// payload beyond MaxPayload mean the peer is malformed or hostile, and
// the session must drop. The payload bound is readPayload's.
func parseFrameHeader(b []byte) (frameHeader, error) {
	if len(b) < frameHeaderSize {
		return frameHeader{}, fmt.Errorf("chirp: protocol error: short frame header (%d bytes)", len(b))
	}
	h := frameHeader{
		tag:        binary.BigEndian.Uint64(b[0:8]),
		lineLen:    int(binary.BigEndian.Uint32(b[8:12])),
		payloadLen: int(binary.BigEndian.Uint32(b[12:16])),
	}
	if h.tag == 0 {
		return frameHeader{}, fmt.Errorf("chirp: protocol error: zero frame tag")
	}
	if h.lineLen < 1 || h.lineLen > MaxLine {
		return frameHeader{}, fmt.Errorf("chirp: protocol error: frame line length %d outside [1, %d]", h.lineLen, MaxLine)
	}
	if h.payloadLen < 0 || h.payloadLen > MaxPayload {
		return frameHeader{}, fmt.Errorf("chirp: protocol error: frame payload length %d outside [0, %d]", h.payloadLen, MaxPayload)
	}
	return h, nil
}

// errFrameShape is queueFrame's refusal of a frame the reader would
// reject. Nothing of the frame is buffered, so the connection stays
// aligned and the frame's tag can still be answered.
var errFrameShape = errors.New("chirp: frame refused")

// queueFrame buffers one tagged frame — header, line (prefix first, when
// the client stamped one), payload — without flushing, so a pipelining
// writer can pack several frames into one wire write. The bytes go
// straight into the bufio writer: no intermediate line allocation.
func (c *codec) queueFrame(tag uint64, prefix, line, payload []byte) error {
	lineLen := len(prefix) + len(line)
	switch {
	case checkLine(prefix, line) != nil:
		return fmt.Errorf("%w: embedded newline in its line", errFrameShape)
	case lineLen < 1 || lineLen > MaxLine:
		return fmt.Errorf("%w: line length %d outside [1, %d]", errFrameShape, lineLen, MaxLine)
	case len(payload) > MaxPayload:
		return fmt.Errorf("%w: payload %d exceeds %d", errFrameShape, len(payload), MaxPayload)
	}
	putFrameHeader(c.whdr[:], tag, lineLen, len(payload))
	for _, part := range [...][]byte{c.whdr[:], prefix, line, payload} {
		if _, err := c.w.Write(part); err != nil {
			return err
		}
	}
	return nil
}

// frameWriter is the one way a connection end writes tagged frames:
// whoever has a frame writes it under mu, and the last writer in
// flushes. A writer that finds another waiting for the lock leaves its
// frame in the buffer for that waiter, so a burst of frames is one
// flush, and no goroutine exists only to write. Two rules hold:
//   - a frame left to a waiter is flushed no later than the waiter's
//     own, even when the waiter's frame fails validation: whoever holds
//     the lock with no one behind it flushes everything queued;
//   - once severed reports true, nothing more is written, queued frames
//     included.
type frameWriter struct {
	mu      sync.Mutex
	c       *codec        // its write half: w and whdr
	conn    net.Conn      // carries the write deadline
	timeout time.Duration // the deadline armed at each batch's first frame (0: none)
	severed func() bool   // nil: never
	flushes *obs.Counter  // nil: uncounted
	waiting atomic.Int32  // writers that want mu and do not hold it yet
}

// write queues one frame and flushes it, with every frame queued before
// it, unless another writer is waiting. Either way, on return the frame's
// bytes are on the wire or in the buffer of the writer who will flush
// them, and none of its slices is read again.
func (w *frameWriter) write(tag uint64, prefix, line, payload []byte) error {
	w.waiting.Add(1)
	w.mu.Lock()
	w.waiting.Add(-1)
	defer w.mu.Unlock()
	switch {
	case w.c.w == nil:
		return net.ErrClosed // released
	case w.severed != nil && w.severed():
		return errSevered
	}
	if w.timeout > 0 && w.c.w.Buffered() == 0 {
		// A write failure on a closed connection reports itself below.
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	err := w.c.queueFrame(tag, prefix, line, payload)
	if w.waiting.Load() > 0 {
		return err
	}
	if w.flushes != nil {
		w.flushes.Inc()
	}
	if ferr := w.c.flush(); err == nil {
		err = ferr
	}
	return err
}

// release returns the codec's buffers once no writer holds the lock;
// every later write fails. Close the connection first, so a writer
// blocked on it returns at once.
func (w *frameWriter) release() {
	w.mu.Lock()
	w.c.release()
	w.mu.Unlock()
}

// readFrameHeader reads and validates the next frame header. Callers
// must then consume exactly lineLen line bytes and payloadLen payload
// bytes to stay aligned.
func (c *codec) readFrameHeader() (frameHeader, error) {
	if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
		return frameHeader{}, err
	}
	return parseFrameHeader(c.rhdr[:])
}

// readFrameLine consumes a frame's line bytes (already validated to fit
// MaxLine) into the codec's scratch. The bytes are valid only until the
// next scratch use on this codec: a caller that keeps the line, or a
// field of it, makes a string first.
func (c *codec) readFrameLine(n int) ([]byte, error) {
	buf := c.scratchBuf(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// capTrace is the optional capability token a peer appends to its half
// of the version exchange to request (client) or confirm (server)
// per-request trace-context propagation. A peer that does not know the
// token simply never echoes it, so tracing degrades to off against old
// binaries with no extra round trip.
const capTrace = "trace"

// capDeadline is the capability token a peer appends to its half of the
// version exchange to request (client) or confirm (server) per-request
// deadline-budget propagation. On a session that negotiated it, a
// request line may lead with "deadline <remaining-ms>"; the server
// anchors the budget at frame arrival and sheds the work with EDEADLINE
// at whichever hop — admit, dispatch, durability barrier — finds it
// already expired. Old peers never echo the token, so budgets degrade
// to "no deadline" with no interop break.
const capDeadline = "deadline"

// capRepl is the capability token a replication follower appends to its
// version exchange to subscribe to the server's WAL ship stream. Only
// sessions that negotiated it may issue replsub, and only they ever see
// server-initiated push frames — an ordinary client mux (which kills
// the session on unknown tags) never negotiates it.
const capRepl = "repl"

// replPushTag is the reserved frame tag for server-initiated
// replication pushes on a repl-capable session. Client request tags are
// small positive integers; the top-bit tag can never collide with one.
const replPushTag = uint64(1) << 63

// versionLine builds the negotiation line a client sends as its first
// request, before any frame: "version 2 <window> <maxbytes> [caps...]".
// Capability tokens ride after the byte budget; peers ignore tokens
// they do not recognize.
func versionLine(window int, maxBytes int64, caps ...string) []byte {
	l := new(lineBuf).start("version").int(ProtocolV2).int(int64(window)).int(maxBytes)
	for _, c := range caps {
		l.str(c)
	}
	return l.b
}

// parseVersionArgs parses the peer's half of the negotiation — the
// request args server-side, the "ok" reply tail client-side — into
// (version, window, maxBytes) plus any trailing capability tokens.
// Unknown tokens are returned, not rejected: a newer peer advertising a
// capability this binary predates must still negotiate the base
// protocol.
func parseVersionArgs(args []string) (version, window int, maxBytes int64, caps []string, err error) {
	if len(args) < 3 {
		return 0, 0, 0, nil, fmt.Errorf("chirp: bad version exchange %v", args)
	}
	if version, err = strconv.Atoi(args[0]); err != nil {
		return 0, 0, 0, nil, fmt.Errorf("chirp: bad protocol version %q", args[0])
	}
	if window, err = strconv.Atoi(args[1]); err != nil || window < 1 {
		return 0, 0, 0, nil, fmt.Errorf("chirp: bad window %q", args[1])
	}
	if maxBytes, err = strconv.ParseInt(args[2], 10, 64); err != nil || maxBytes < 1 {
		return 0, 0, 0, nil, fmt.Errorf("chirp: bad byte budget %q", args[2])
	}
	return version, window, maxBytes, args[3:], nil
}

// exchangeVersion is a client's half of the version exchange, run on a
// freshly authenticated connection before any frame: it sends the
// version line advertising window, maxBytes and caps, and reads the one
// line the server answers, "ok 2 <window> <maxbytes> [caps...]". It
// returns the server's caps on window and byte budget and the
// capabilities it echoed. Any other answer is an error: the server
// ends a session whose version exchange it refuses.
func exchangeVersion(c *codec, window int, maxBytes int64, caps ...string) (w int, b int64, echoed []string, err error) {
	if err := c.writeLine(versionLine(window, maxBytes, caps...)); err != nil {
		return 0, 0, nil, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, 0, nil, err
	}
	parts, err := splitFields(string(line))
	if err != nil || len(parts) == 0 || parts[0] != "ok" {
		return 0, 0, nil, fmt.Errorf("chirp: version exchange refused: server said %q", line)
	}
	v, w, b, echoed, err := parseVersionArgs(parts[1:])
	if err != nil {
		return 0, 0, nil, err
	}
	if v != ProtocolV2 {
		return 0, 0, nil, fmt.Errorf("chirp: server negotiated unsupported protocol %d", v)
	}
	return w, b, echoed, nil
}

// hasCap reports whether a capability token list contains cap.
func hasCap(caps []string, cap string) bool {
	for _, c := range caps {
		if c == cap {
			return true
		}
	}
	return false
}
