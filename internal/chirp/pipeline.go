package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// This file is the request pipeline both framings feed: serve → execute
// (table check, dedupe replay, role gate, execution slot, handler,
// durability barrier, dedupe record) → reply, and the refusals built
// along the way. The handlers themselves are in handlers.go.

// tracedDurability is the optional extension of the Durability barrier
// the server probes for: internal/durable's Store implements it,
// reporting the covering commit group's write+fsync latency, so a trace
// can show WAL time explicitly.
type tracedDurability interface {
	BarrierTraced() (wait, commit time.Duration, err error)
}

// stamps are the pipeline's wall-clock marks. Taking them allocates
// nothing, so every request does; only a traced one turns them into a
// span. Virtual time is never touched.
type stamps struct {
	handler, handled, barriered time.Time // zero when the stage never ran
	commitLat                   time.Duration
}

// serve is the one request pipeline, run for every admitted request of
// either framing: execute produces the reply, serve delivers it and
// accounts for it. sc is the caller's scratch: the reply line and a
// pread body are built in it, and it is reused only for the caller's
// next request, after this reply is flushed.
func (sess *session) serve(req request, sc *payloadScratch) {
	s := sess.s
	// The admission ticket is released when the reply (or shed) is on
	// the wire, whatever path the request took; Done on a nil ticket
	// (admission off, or an exempt control command) is a no-op.
	defer req.ticket.Done()
	var st stamps
	res := sess.execute(&req, sc, &st)
	replyStart := time.Now()
	sess.reply(req.tag, res)
	now := time.Now()
	if res.after != nil {
		res.after()
	}
	total := now.Sub(req.arrived)
	s.metrics.requestLat.ObserveExemplar(float64(total.Microseconds()), req.trace)
	if req.trace == 0 {
		return
	}
	sp := obs.Span{
		Trace:  req.trace,
		TraceS: obs.FormatTraceID(req.trace),
		ID:     s.opts.Spans.NextSpanID(),
		Name:   "server",
		Cmd:    req.cmd,
		Start:  req.arrived,
		Dur:    total,
	}
	if rest, isErr := bytes.CutPrefix(res.line.b, []byte("err ")); isErr {
		sp.Err = string(rest)
	}
	if st.handler.IsZero() { // answered before the handler: all queue
		st.handler, st.handled = replyStart, replyStart
	}
	queueWait, handlerDur := st.handler.Sub(req.arrived), st.handled.Sub(st.handler)
	sp.Phase("lane.queue", 0, queueWait)
	sp.Phase("handler", queueWait, handlerDur)
	if !st.barriered.IsZero() {
		off, wait := queueWait+handlerDur, st.barriered.Sub(st.handled)
		sp.Phase("barrier.wait", off, wait)
		if st.commitLat > 0 {
			// The covering group's write+fsync finished when the barrier
			// released, so the phase ends at the barrier's end; it may
			// start before the barrier did (the group was already under
			// way), clamped to the span.
			gOff := off + wait - st.commitLat
			if gOff < 0 {
				gOff = 0
			}
			sp.Phase("wal.group", gOff, st.commitLat)
		}
	}
	sp.Phase("reply", replyStart.Sub(req.arrived), now.Sub(replyStart))
	s.opts.Spans.Record(sp)
	if tl := s.opts.TraceLog; tl != nil && total >= s.opts.TraceSlow {
		if err := tl.RecordValue(sp); err != nil {
			sess.log.printf("slow-request log: %v", err)
		}
	}
}

// execute takes one request from shape check to recorded reply: table
// check → token/dedupe replay → role gate → fair execution slot →
// handler → durability barrier → dedupe record.
func (sess *session) execute(req *request, sc *payloadScratch, st *stamps) hres {
	s := sess.s
	if msg := req.spec.refusal(req.args, req.payload); msg != "" {
		return sess.failf(sc, vfs.ErrInvalid, msg)
	}
	// A tokened request already answered for this principal is replayed
	// without re-executing: a lost reply does not become a second
	// execution. The ordered lane keeps the lookup and the later store
	// from racing a concurrent duplicate on the same session.
	var dk string
	if req.token != "" {
		dk = dedupeKey(sess.ident.String(), req.token)
		if stored, hit := s.dedupe.lookup(dk); hit && len(stored) > 0 {
			s.metrics.dedupeHits.Inc()
			if sess.log.on() {
				sess.log.printf("tag=%d %s: %s (token %s) replayed from dedupe", req.tag, sess.ident, req.cmd, req.token)
			}
			replay := sc.line.start(stored[0])
			for _, tok := range stored[1:] {
				replay.str(tok)
			}
			return hres{line: replay}
		}
	}
	if rr := sess.roleRefusal(req, sc); rr != nil {
		// Not the primary: refuse without touching dedupe — the retry
		// belongs to whichever server holds the lease, not this table.
		return *rr
	}
	// Dispatch hop: wait for a fair execution slot, shedding with
	// EDEADLINE if the budget runs out in the queue — the handler (and
	// any WAL work) never runs for shed requests.
	if err := req.ticket.Acquire(); err != nil {
		return sess.failf(sc, fmt.Errorf("%w awaiting dispatch", ErrDeadline), "")
	}
	st.handler = time.Now()
	res := sess.handle(req.cmd, req.args, req.payload, sc, req.trace)
	st.handled = time.Now()
	if d := s.opts.Durability; d != nil && req.spec.has(fMutating) {
		if dk == "" && req.ticket.ExpiredAtBarrier() {
			// Barrier hop: the op executed but its budget is gone, so
			// answer EDEADLINE instead of parking on the WAL —
			// applied-but-unacknowledged, exactly a client timeout's
			// semantics. Tokened requests are exempt: their reply must
			// be recorded for exactly-once replay, never a shed.
			return sess.failf(sc, fmt.Errorf("%w before durability barrier", ErrDeadline), "")
		}
		// The acknowledgement must not outrun the log: wait until every
		// shard this request wrote is durable. This holds for tokened
		// requests too — the dedupe journal append below waits only on
		// its own key's shard.
		var err error
		if td, ok := d.(tracedDurability); ok {
			_, st.commitLat, err = td.BarrierTraced()
		} else {
			err = d.Barrier()
		}
		if err != nil {
			s.metrics.barrierErrs.Inc()
			sess.log.printf("commit barrier failed (durability degraded): %v", err)
		}
		st.barriered = time.Now()
	}
	if dk != "" {
		sess.recordReply(res.line.b, dk)
	}
	return res
}

// recordReply is a tokened request's pre-wire bookkeeping: its reply,
// as the line's raw tokens, goes into the dedupe table and journal. The
// journal write happens before the reply reaches the wire — once the
// client can see the answer, it is durable, so a retry after a server
// crash replays instead of re-executing.
func (sess *session) recordReply(line []byte, dedupeKey string) {
	fields, _ := tokenize(string(line), false) // a handler's own line: well formed
	if evicted := sess.s.dedupe.store(dedupeKey, fields); evicted > 0 {
		sess.s.metrics.dedupeEvicts.Add(int64(evicted))
	}
	if j := sess.s.opts.DedupeJournal; j != nil {
		if err := j.AppendDedupe(dedupeKey, fields); err != nil {
			sess.s.metrics.dedupeJErrs.Inc()
			sess.log.printf("dedupe journal append failed: %v", err)
		}
	}
	sess.s.syncDedupeMetrics()
}

// reply writes one reply in the session's framing — a tagged frame on
// v2, a line then its counted payload on v1 — under writeMu, so
// concurrent workers and the replication pusher interleave whole
// replies, and under the per-request write deadline.
func (sess *session) reply(tag uint64, res hres) error {
	if sess.isStopping() {
		return errSevered // see severAll: a severed session acknowledges nothing
	}
	sess.writeMu.Lock()
	defer sess.writeMu.Unlock()
	if rt := sess.s.opts.RequestTimeout; rt > 0 {
		if err := sess.conn.SetWriteDeadline(time.Now().Add(rt)); err != nil {
			sess.log.printf("setting reply deadline: %v", err)
		}
		defer func() {
			if err := sess.conn.SetWriteDeadline(time.Time{}); err != nil {
				sess.log.printf("clearing reply deadline: %v", err)
			}
		}()
	}
	if err := sess.c.queueMessage(sess.v2 != nil, tag, nil, res.line.b, res.body); err != nil {
		return err
	}
	return sess.c.flush()
}

// hres is one handled request's outcome: a complete reply line
// (starting "ok" or "err"), encoded in the scratch of whoever handled
// it, plus an optional counted payload. The handler produces it; reply
// delivers it in the session's framing.
type hres struct {
	line  *lineBuf
	body  []byte
	after func() // run once the reply is on the wire (replsub's pusher)
}

// failf builds an error result in sc, counting it.
func (sess *session) failf(sc *payloadScratch, err error, context string) hres {
	msg := context
	if err != nil {
		msg = err.Error()
	}
	sess.s.errors.Add(1)
	sess.s.metrics.errors.Inc()
	return hres{line: sc.line.start("err").str(nameForError(err)).quoted(msg)}
}

// roleRefusal reports the refusal for a mutating command when this
// server is not the primary replica (a follower, or a fenced former
// primary), nil when the command may proceed. The error message names
// the current primary so a failover-aware client can re-target; this
// check is the server half of epoch fencing — a deposed primary
// answers every write with it, no matter how stale its own view is.
func (sess *session) roleRefusal(req *request, sc *payloadScratch) *hres {
	rs := sess.s.opts.Role
	if rs == nil || !req.spec.has(fMutating) {
		return nil
	}
	if req.cmd == "open" {
		// A read-only open without create/truncate mutates nothing, and
		// followers must serve it: bounded-staleness reads (waitlsn +
		// get) are the whole point of read replicas.
		if flags, err := strconv.Atoi(req.args[0]); err == nil &&
			flags&3 == kernel.ORdonly && flags&(kernel.OCreat|kernel.OTrunc) == 0 {
			return nil
		}
	}
	role, _ := rs.Role()
	if role == "" || role == replica.RolePrimary {
		return nil
	}
	err := ErrNotPrimary
	if p := rs.PrimaryAddr(); p != "" {
		err = fmt.Errorf("%w (%s); primary is %s", ErrNotPrimary, role, p)
	}
	res := sess.failf(sc, err, "not primary")
	return &res
}

// PrimaryFromError extracts the primary address a server named in an
// ENOTPRIMARY refusal, or "" when the error is something else (or the
// refusing server did not know the holder).
func PrimaryFromError(err error) string {
	cls, re := classOf(err)
	if cls != classRedirect {
		return ""
	}
	const marker = "primary is "
	i := strings.LastIndex(re.Message, marker)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(re.Message[i+len(marker):])
}

// admissionRefusal builds the typed rejection for an admission failure:
// EBUSY with the controller's retry-after hint, or EDEADLINE for a
// budget already expired at admit.
func (sess *session) admissionRefusal(sc *payloadScratch, aerr error) hres {
	var be *admission.BusyError
	if errors.As(aerr, &be) {
		ms := be.RetryAfter.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		// The hint rides in the error text (failf sends err.Error() as
		// the wire message); RetryAfterFromError parses it back out.
		return sess.failf(sc, fmt.Errorf("%w; %s%dms", ErrBusy, retryAfterMarker, ms), "")
	}
	return sess.failf(sc, fmt.Errorf("%w before admit", ErrDeadline), "")
}
