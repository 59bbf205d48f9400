package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// This file is the request pipeline every session's workers feed: serve → execute
// (table check, dedupe replay, role gate, execution slot, handler, the
// one durability wait) → reply, and the refusals built along the way.
// The handlers themselves are in handlers.go.

// tracedDurability is the optional extension of the Durability barrier
// the server probes for: internal/durable's Store implements it,
// reporting the covering commit group's write+fsync latency, so a trace
// can show WAL time explicitly.
type tracedDurability interface {
	BarrierTraced() (commit time.Duration, err error)
}

// stamps are the pipeline's wall-clock marks. Taking them allocates
// nothing, so every request does; only a traced one turns them into a
// span. Virtual time is never touched.
type stamps struct {
	handler, handled, barriered time.Time // zero when the stage never ran
	commitLat                   time.Duration
}

// serve is the one request pipeline, run for every admitted request:
// execute produces the reply, serve delivers it and accounts for it.
// The reply line and a pread body are built in the request's own
// scratch, which is reused only once the request is recycled. The
// worker is free (wk.idle) once it hands its reply to the frame writer,
// before a lock-step client can send its next request.
func (sess *session) serve(req *request, wk *workers) {
	s := sess.s
	// The admission ticket is released when the reply (or shed) is
	// written, whatever path the request took; Done on a nil ticket
	// (admission off, or an exempt control command) is a no-op.
	defer req.ticket.Done()
	var st stamps
	res := sess.execute(req, &st)
	wk.idle.Add(1)
	replyStart := time.Now()
	if err := sess.reply(req.tag, res); errors.Is(err, errFrameShape) {
		// Nothing of it was written: the refusal answers the tag.
		sess.log.printf("tag=%d %s: %s reply refused: %v", req.tag, sess.ident, req.cmd, err)
		res = sess.fail(&req.sc, err)
		sess.reply(req.tag, res)
	}
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
			sp.Phase("wal.group", max(off+wait-st.commitLat, 0), st.commitLat)
		}
	}
	sp.Phase("reply", replyStart.Sub(req.arrived), now.Sub(replyStart))
	// Log before publishing to the ring: a span a client can fetch by
	// trace ID is then already in the slow-request log.
	if tl := s.opts.TraceLog; tl != nil && total >= s.opts.TraceSlow {
		if err := tl.RecordValue(sp); err != nil {
			sess.log.printf("slow-request log: %v", err)
		}
	}
	s.opts.Spans.Record(sp)
}

// execute takes one request from shape check to recorded reply: table
// check → token/dedupe replay → role gate → fair execution slot →
// handler → the request's one durability wait. A tokened request waits
// on its own dedupe record; an untokened mutation on the barrier.
func (sess *session) execute(req *request, st *stamps) hres {
	s, sc := sess.s, &req.sc
	if !req.spec.shapeOK(req.args, req.payload) {
		return sess.fail(sc, vfs.ErrInvalid)
	}
	// A tokened request already answered for this principal is replayed
	// without re-executing: a lost reply does not become a second
	// execution.
	var dk string
	if req.token != "" {
		dk = dedupeKey(sess.ident.String(), req.token)
		if stored, hit := s.dedupe.LookupDedupe(dk); hit && len(stored) > 0 {
			s.metrics.dedupeHits.Inc()
			if sess.log.on() {
				sess.log.printf("tag=%d %s: %s (token %s) replayed from dedupe", req.tag, sess.ident, req.cmd, req.token)
			}
			// The journal publishes an entry before its record is durable,
			// so the original may still be parked in its append: the replay
			// waits for the same durability. The entry's record is already
			// on the log, so one barrier covers it.
			if d := s.opts.Durability; d != nil {
				sess.barrier(d)
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
		return sess.fail(sc, fmt.Errorf("%w awaiting dispatch", ErrDeadline))
	}
	st.handler = time.Now()
	res := sess.handle(req.cmd, req.args, req.payload, sc, req.trace)
	st.handled = time.Now()
	if dk != "" {
		// The reply is recorded before it reaches the wire, and that
		// append is the request's durability wait: the record lands on
		// the one log after every mutation the request made, and the
		// journal returns only once it is as durable and as shipped as a
		// barrier would make it (see DedupeJournal). Never a shed: the
		// reply must be recorded for exactly-once replay.
		fields, _ := appendFields(nil, string(res.line.b), false) // a handler's own line: well formed
		if err := s.dedupe.AppendDedupe(dk, fields); err != nil {
			s.metrics.dedupeJErrs.Inc()
			sess.log.printf("dedupe journal append failed: %v", err)
		}
		st.barriered = time.Now()
	} else if d := s.opts.Durability; d != nil && req.mutating {
		if req.ticket.ExpiredAtBarrier() {
			// Barrier hop: the op executed but its budget is gone, so
			// answer EDEADLINE instead of parking on the WAL —
			// applied-but-unacknowledged, exactly a client timeout's
			// semantics.
			return sess.fail(sc, fmt.Errorf("%w before durability barrier", ErrDeadline))
		}
		// The acknowledgement must not outrun the log: wait until every
		// mutation this request made is durable.
		st.commitLat = sess.barrier(d)
		st.barriered = time.Now()
	}
	return res
}

// barrier waits until every record journaled so far is durable (and,
// on a replicated primary, shipped), reporting the covering commit
// group's latency when d can tell it. A failed barrier degrades
// durability, never availability: it is counted and logged, and the
// reply is still sent.
func (sess *session) barrier(d interface{ Barrier() error }) (commit time.Duration) {
	var err error
	if td, ok := d.(tracedDurability); ok {
		commit, err = td.BarrierTraced()
	} else {
		err = d.Barrier()
	}
	if err != nil {
		sess.s.metrics.barrierErrs.Inc()
		sess.log.printf("commit barrier failed (durability degraded): %v", err)
	}
	return commit
}

// reply writes one reply frame, carrying tag, through the session's
// frame writer: a severed session acknowledges nothing (see severAll).
func (sess *session) reply(tag uint64, res hres) error {
	return sess.w.write(tag, nil, res.line.b, res.body)
}

// hres is one handled request's outcome: a complete reply line
// (starting "ok" or "err"), encoded in the request's or the codec's
// scratch, plus an optional counted payload. The handler produces it;
// reply delivers it.
type hres struct {
	line  *lineBuf
	body  []byte
	after func() // run once the reply is written (replsub's pusher)
}

// fail builds err's reply in sc, counting it under its errno.
func (sess *session) fail(sc *payloadScratch, err error) hres {
	return sess.failWith(sc, err, errFields{})
}

// failWith is fail for a reply that carries its row's field.
func (sess *session) failWith(sc *payloadScratch, err error, f errFields) hres {
	sess.s.metrics.errors[appendErr(&sc.line, err, f)].Inc()
	return hres{line: &sc.line}
}

// roleRefusal reports the refusal for a mutating command when this
// server is not the primary replica (a follower, or a fenced former
// primary), nil when the command may proceed. The reply names the
// current primary so a failover-aware client can re-target; this
// check is the server half of epoch fencing — a deposed primary
// answers every write with it, no matter how stale its own view is.
func (sess *session) roleRefusal(req *request, sc *payloadScratch) *hres {
	rs := sess.s.opts.Role
	if rs == nil || !req.mutating {
		return nil
	}
	role, _ := rs.Role()
	if role == "" || role == replica.RolePrimary {
		return nil
	}
	err, p := ErrNotPrimary, rs.PrimaryAddr()
	if p != "" {
		err = fmt.Errorf("%w (%s)", ErrNotPrimary, role)
	}
	res := sess.failWith(sc, err, errFields{Primary: p})
	return &res
}

// admissionRefusal builds the typed rejection for an admission failure:
// EBUSY with the controller's retry-after hint (at least 1 ms), or
// EDEADLINE for a budget already expired at admit.
func (sess *session) admissionRefusal(sc *payloadScratch, aerr error) hres {
	var be *admission.BusyError
	if errors.As(aerr, &be) {
		return sess.failWith(sc, ErrBusy, errFields{RetryAfter: max(be.RetryAfter, time.Millisecond)})
	}
	return sess.fail(sc, fmt.Errorf("%w before admit", ErrDeadline))
}
