package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"identitybox/internal/auth"
	"identitybox/internal/replica"
)

// ErrReplGap is returned by ReplicaSession.Next when the server cut
// this subscriber loose for falling behind its push buffer: the stream
// has a hole, and the follower must resubscribe from its applied LSN.
var ErrReplGap = errors.New("chirp: replication stream gap; resubscribe")

// ReplicaSession is a follower's replication feed from a primary: a
// dedicated v2 connection that negotiated the repl capability and
// subscribed to the WAL ship stream. It implements replica.Stream.
//
// It deliberately is not a Client: the client mux treats unknown reply
// tags as protocol errors (correctly, for RPC), while this session's
// whole purpose is server-initiated push frames. The session is
// single-consumer — one goroutine calls Next; Ack may be called from
// the same goroutine between Nexts (the node's apply loop does both).
type ReplicaSession struct {
	conn net.Conn
	c    *codec
	w    frameWriter // writes replsub and replack, and releases c on Close

	// IdleTimeout, when positive, bounds how long Next waits for a
	// frame. On an idle volume nothing flows, so the expiry makes the
	// follower re-dial and resubscribe (cheap) rather than hang on a
	// primary that silently vanished — a partition must not leave the
	// cluster leaderless because no follower noticed the stream died.
	IdleTimeout time.Duration

	// Snap is the snapshot the subscribe reply carried, nil when the
	// WAL tail sufficed. The first Next delivers it as a snapshot batch.
	Snap []byte

	nextTag uint64  // owned by the goroutine that calls Next and Ack
	line    lineBuf // the request being sent, owned likewise

	first *replica.Batch // the subscribe reply, delivered by the first Next
}

// DialReplica opens a replication subscription to the primary at addr,
// authenticating like any client, negotiating protocol v2 with the
// repl capability, and subscribing from fromLSN. The session's first
// Next returns the catch-up the server computed: a snapshot batch, the
// WAL tail past fromLSN, or an empty batch when the follower is current.
func DialReplica(addr string, auths []auth.Authenticator, fromLSN uint64, timeout time.Duration) (*ReplicaSession, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := auth.ClientNegotiate(auth.NewConn(conn), auths); err != nil {
		conn.Close()
		return nil, err
	}
	c := newCodec(conn)
	fail := func(err error) (*ReplicaSession, error) {
		c.release()
		conn.Close()
		return nil, err
	}
	// The version exchange any client runs, demanding repl.
	_, _, caps, err := exchangeVersion(c, DefaultWindow, DefaultMaxInflightBytes, capRepl)
	if err != nil {
		return fail(err)
	}
	if !hasCap(caps, capRepl) {
		return fail(errors.New("chirp: server did not offer the repl capability"))
	}
	rs := &ReplicaSession{conn: conn, c: c, nextTag: 1}
	rs.w.c, rs.w.conn = c, conn
	// Subscribe and decode the catch-up reply.
	if err := rs.send("replsub", fromLSN); err != nil {
		return fail(err)
	}
	h, raw, err := rs.readFrame()
	if err != nil {
		return fail(err)
	}
	fields, err := splitFields(string(raw))
	if err != nil {
		return fail(err)
	}
	if len(fields) < 1 || fields[0] != "ok" {
		rs.discard(h.payloadLen)
		return fail(fmt.Errorf("chirp: replsub refused: %q", fields))
	}
	switch {
	case len(fields) == 5 && fields[1] == "snap": // ok snap <epoch> <lsn> <len>
		epoch, _ := strconv.ParseUint(fields[2], 10, 64)
		lsn, _ := strconv.ParseUint(fields[3], 10, 64)
		blob := make([]byte, h.payloadLen)
		if err := c.readPayloadInto(blob); err != nil {
			return fail(err)
		}
		rs.Snap = blob
		rs.first = &replica.Batch{Epoch: epoch, Last: lsn, Snap: blob}
	case len(fields) == 7 && fields[1] == "tail": // ok tail <epoch> <first> <last> <records> <len>
		epoch, _ := strconv.ParseUint(fields[2], 10, 64)
		first, _ := strconv.ParseUint(fields[3], 10, 64)
		last, _ := strconv.ParseUint(fields[4], 10, 64)
		records, _ := strconv.Atoi(fields[5])
		b := replica.Batch{Epoch: epoch}
		if records > 0 {
			b = replica.Batch{Epoch: epoch, First: first, Last: last, Records: records, Frames: make([]byte, h.payloadLen)}
			if err := c.readPayloadInto(b.Frames); err != nil {
				return fail(err)
			}
		} else if err := rs.discard(h.payloadLen); err != nil {
			return fail(err)
		}
		rs.first = &b
	default:
		rs.discard(h.payloadLen)
		return fail(fmt.Errorf("chirp: malformed replsub reply %q", fields))
	}
	conn.SetDeadline(time.Time{})
	return rs, nil
}

// send writes "<cmd> <arg>" as one frame under the next request tag.
func (rs *ReplicaSession) send(cmd string, arg uint64) error {
	tag := rs.nextTag
	rs.nextTag++
	return rs.w.write(tag, nil, rs.line.start(cmd).uint(arg).b, nil)
}

// readFrame reads the next frame header and its line into the codec's
// scratch (payload left for the caller, sized by the returned header).
// The line is valid only until the payload is read or discarded.
func (rs *ReplicaSession) readFrame() (frameHeader, []byte, error) {
	h, err := rs.c.readFrameHeader()
	if err != nil {
		return frameHeader{}, nil, err
	}
	line, err := rs.c.readFrameLine(h.lineLen)
	if err != nil {
		return frameHeader{}, nil, err
	}
	return h, line, nil
}

// discard consumes n payload bytes into scratch.
func (rs *ReplicaSession) discard(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := rs.c.readPayload(n)
	return err
}

// Next returns the subscribe reply's batch first, then blocks for the
// next pushed batch (replica.Stream). Reply frames for this session's
// own replacks are skipped; a "replgap" push surfaces as ErrReplGap,
// telling the follower to resubscribe from its applied LSN.
func (rs *ReplicaSession) Next() (replica.Batch, error) {
	if b := rs.first; b != nil {
		rs.first = nil
		return *b, nil
	}
	for {
		if rs.IdleTimeout > 0 {
			rs.conn.SetReadDeadline(time.Now().Add(rs.IdleTimeout))
		}
		h, line, err := rs.readFrame()
		if err != nil {
			return replica.Batch{}, err
		}
		if h.tag != replPushTag {
			// A reply to one of our replacks; nothing to do with it.
			if err := rs.discard(h.payloadLen); err != nil {
				return replica.Batch{}, err
			}
			continue
		}
		if string(line) == "replgap" {
			return replica.Batch{}, ErrReplGap
		}
		// "replpush <epoch> <first> <last> <records> <len>": plain words,
		// split and parsed where they lie in the scratch.
		var f [7][]byte
		n := 0
		for rest, more := line, true; more && n < len(f); n++ {
			f[n], rest, more = bytes.Cut(rest, []byte(" "))
		}
		if n != 6 || string(f[0]) != "replpush" {
			return replica.Batch{}, fmt.Errorf("chirp: malformed replication push %q", line)
		}
		epoch, _ := strconv.ParseUint(string(f[1]), 10, 64)
		first, _ := strconv.ParseUint(string(f[2]), 10, 64)
		last, _ := strconv.ParseUint(string(f[3]), 10, 64)
		records, err := strconv.Atoi(string(f[4]))
		if err != nil || first == 0 || last < first {
			return replica.Batch{}, fmt.Errorf("chirp: malformed replication push %q", line)
		}
		frames := make([]byte, h.payloadLen)
		if err := rs.c.readPayloadInto(frames); err != nil {
			return replica.Batch{}, err
		}
		return replica.Batch{Epoch: epoch, First: first, Last: last, Records: records, Frames: frames}, nil
	}
}

// Ack reports the follower's applied horizon (replica.Stream). The
// server's ok reply is skipped by the Next loop; Ack itself does not
// wait for it, so the apply loop never stalls on its own bookkeeping.
func (rs *ReplicaSession) Ack(lsn uint64) error {
	return rs.send("replack", lsn)
}

// Close tears the session down (replica.Stream); closing twice is a
// no-op.
func (rs *ReplicaSession) Close() error {
	err := rs.conn.Close()
	rs.w.release()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
