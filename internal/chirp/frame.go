package chirp

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
)

// Protocol versions. Version 1 is the paper's lock-step line protocol:
// one request line (plus optional counted payload), one reply, strictly
// alternating. Version 2 keeps the same line grammar but wraps every
// line+payload in a tagged binary frame, so many requests can be in
// flight on one session and replies may return out of order.
const (
	ProtocolV1 = 1
	ProtocolV2 = 2
)

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
// the session must drop. This is the v2 mirror of readPayload's cap.
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

// queueFrame buffers one tagged frame — header, line (prefix first, when
// the client stamped one), payload — without flushing, so a pipelining
// writer can pack several frames into one wire write. The bytes go
// straight into the bufio writer: no intermediate line allocation.
func (c *codec) queueFrame(tag uint64, prefix, line, payload []byte) error {
	if err := checkLine(prefix, line); err != nil {
		return err
	}
	lineLen := len(prefix) + len(line)
	if lineLen < 1 || lineLen > MaxLine {
		return fmt.Errorf("chirp: frame line length %d outside [1, %d]", lineLen, MaxLine)
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("chirp: frame payload %d exceeds %d", len(payload), MaxPayload)
	}
	putFrameHeader(c.whdr[:], tag, lineLen, len(payload))
	for _, part := range [...][]byte{c.whdr[:], prefix, line, payload} {
		if _, err := c.w.Write(part); err != nil {
			return err
		}
	}
	return nil
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
// MaxLine) and returns them as a string.
func (c *codec) readFrameLine(n int) (string, error) {
	buf := c.scratchBuf(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// capTrace is the optional capability token a peer appends to its half
// of the version exchange to request (client) or confirm (server)
// per-request trace-context propagation. A peer that does not know the
// token simply never echoes it, so tracing degrades to off against old
// binaries with no extra round trip — the same ENOSYS-style safety the
// version exchange itself has against v1 servers.
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

// versionLine builds the v1-style negotiation line a v2 client sends as
// its first request: "version 2 <window> <maxbytes> [caps...]". A v1
// server answers it with ENOSYS like any unknown command, which is the
// fallback signal. Capability tokens ride after the byte budget; peers
// ignore tokens they do not recognize.
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

// hasCap reports whether a capability token list contains cap.
func hasCap(caps []string, cap string) bool {
	for _, c := range caps {
		if c == cap {
			return true
		}
	}
	return false
}
