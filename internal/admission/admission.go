// Package admission implements overload protection for the Chirp
// serving path: bounded admit queues that reject early with a
// retry-after hint once depth or an in-flight byte budget is exceeded,
// deadline-budget shedding at every hop (admit, worker dispatch,
// durability barrier), and per-principal weighted-fair scheduling of
// execution slots so one noisy principal cannot starve the rest.
//
// The controller is deliberately transport-agnostic: the server calls
// Admit when a request frame arrives, Ticket.Acquire before the
// handler runs, Ticket.ExpiredAtBarrier before blocking on the
// durability barrier, and Ticket.Done when the reply (or shed) is
// decided. Control-plane traffic — lease heartbeats, replication
// subscriptions, waitlsn, ping/stats — is admitted unconditionally so
// overload can never masquerade as primary death and trigger spurious
// failover.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"identitybox/internal/obs"
)

// Class is a request's priority class.
type Class int

const (
	// Normal requests are queued, shed, and fairness-scheduled.
	Normal Class = iota
	// Control requests bypass the queue and the fairness scheduler
	// entirely: they are never shed and never counted against a
	// principal's share.
	Control
)

// ErrExpired reports that a request's deadline budget was exhausted
// before the hop it was checked at; the work was shed, not executed.
var ErrExpired = errors.New("admission: deadline budget exhausted")

// BusyError reports that the admit queue is full. RetryAfter is the
// server's estimate of when capacity will free up, which well-behaved
// clients honor as a backoff floor.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("admission: server overloaded; retry after %v", e.RetryAfter)
}

// Options configures a Controller. Zero values pick the defaults.
type Options struct {
	// MaxQueue bounds the number of admitted-but-unfinished normal
	// requests (queued plus executing). Default 256. A principal still
	// under its equal share may overflow a full queue (hard-bounded at
	// twice MaxQueue), so heavy principals filling the queue cannot
	// starve light ones out of admission.
	MaxQueue int
	// MaxBytes bounds the payload bytes held by admitted requests.
	// Default 32 MiB. One request is always admitted whatever its
	// size, so a single fat transfer cannot wedge an idle server.
	MaxBytes int64
	// ExecSlots is the number of requests allowed to execute
	// concurrently. Default 8.
	ExecSlots int
	// FairShare is the burst multiplier over a principal's equal
	// queue share before it is rejected ahead of better-behaved
	// principals (only enforced once the queue is at least half
	// full). Default 2.0.
	FairShare float64
	// Metrics, when set, receives shed/busy counters, queue gauges
	// and the slot-wait histogram.
	Metrics *obs.Registry
}

// Metric names exported by the controller.
const (
	MetricShed       = "admission_shed_total"          // labeled point=admit|dispatch|barrier
	MetricBusy       = "admission_rejected_busy_total" // EBUSY early rejections
	MetricControl    = "admission_control_total"       // exempt control-plane admissions
	MetricQueueDepth = "admission_queue_depth"
	MetricQueueBytes = "admission_queue_bytes"
	MetricExecBusy   = "admission_exec_busy"
	MetricWait       = "admission_slot_wait_us" // time spent waiting for an exec slot
)

// Stats is a point-in-time snapshot used by tests and the stats RPC.
type Stats struct {
	Queued       int
	QueuedBytes  int64
	ExecBusy     int
	ShedAdmit    int64
	ShedDispatch int64
	ShedBarrier  int64
	Busy         int64
	Control      int64
	Completions  map[string]int64 // per-principal executed-and-finished requests
}

type waiter struct {
	ready     chan struct{}
	granted   bool
	abandoned bool
}

type principal struct {
	name      string
	queued    int // admitted and not yet Done
	waiters   []*waiter
	inRR      bool
	completed int64
}

// Ticket is one admitted request's pass through the controller. The
// caller must call Done exactly once; Acquire at most once before it.
type Ticket struct {
	c        *Controller
	p        *principal
	bytes    int64
	deadline time.Time
	grantAt  time.Time
	granted  bool
	released bool
}

var ticketPool = sync.Pool{New: func() any { return new(Ticket) }}

// Controller is the overload-protection state machine. All methods are
// safe for concurrent use.
type Controller struct {
	opts Options

	mu          sync.Mutex
	queued      int
	queuedBytes int64
	execBusy    int
	active      int // principals with queued > 0
	prins       map[string]*principal
	rr          []*principal // round-robin order of principals with waiters
	svc         *obs.EWMA    // execution time estimator, nanoseconds

	shedAdmit    int64
	shedDispatch int64
	shedBarrier  int64
	busy         int64
	control      int64

	mShedAdmit, mShedDispatch, mShedBarrier *obs.Counter
	mBusy, mControl                         *obs.Counter
	mDepth, mBytes, mExec                   *obs.Gauge
	mWait                                   *obs.Histogram
}

// New builds a Controller.
func New(opts Options) *Controller {
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 256
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 32 << 20
	}
	if opts.ExecSlots <= 0 {
		opts.ExecSlots = 8
	}
	if opts.FairShare <= 0 {
		opts.FairShare = 2
	}
	c := &Controller{
		opts:  opts,
		prins: make(map[string]*principal),
		svc:   obs.NewEWMA(0.2),
	}
	if r := opts.Metrics; r != nil {
		r.Help(MetricShed, "requests shed with EDEADLINE, by hop")
		r.Help(MetricBusy, "requests rejected early with EBUSY")
		r.Help(MetricControl, "control-plane requests admitted on the exempt class")
		r.Help(MetricQueueDepth, "admitted normal requests not yet finished")
		r.Help(MetricQueueBytes, "payload bytes held by admitted requests")
		r.Help(MetricExecBusy, "requests currently holding an execution slot")
		r.Help(MetricWait, "microseconds spent waiting for an execution slot")
		c.mShedAdmit = r.Counter(obs.With(MetricShed, "point", "admit"))
		c.mShedDispatch = r.Counter(obs.With(MetricShed, "point", "dispatch"))
		c.mShedBarrier = r.Counter(obs.With(MetricShed, "point", "barrier"))
		c.mBusy = r.Counter(MetricBusy)
		c.mControl = r.Counter(MetricControl)
		c.mDepth = r.Gauge(MetricQueueDepth)
		c.mBytes = r.Gauge(MetricQueueBytes)
		c.mExec = r.Gauge(MetricExecBusy)
		c.mWait = r.Histogram(MetricWait, obs.LatencyBuckets())
	}
	return c
}

// Admit decides whether a request may enter the serving path. A nil
// ticket with a nil error means the request is exempt (Control class)
// and needs no further admission calls. deadline may be zero (no
// budget attached).
func (c *Controller) Admit(prin string, class Class, bytes int, deadline time.Time) (*Ticket, error) {
	if class == Control {
		c.mu.Lock()
		c.control++
		c.mu.Unlock()
		if c.mControl != nil {
			c.mControl.Inc()
		}
		return nil, nil
	}
	now := time.Now()
	c.mu.Lock()
	if !deadline.IsZero() && now.After(deadline) {
		c.shedAdmit++
		c.mu.Unlock()
		if c.mShedAdmit != nil {
			c.mShedAdmit.Inc()
		}
		return nil, ErrExpired
	}
	if c.queued > 0 && c.queuedBytes+int64(bytes) > c.opts.MaxBytes {
		return nil, c.rejectBusyLocked()
	}
	p := c.principalLocked(prin)
	// Fair-share early rejection: once the queue is half full, a
	// principal already holding more than FairShare times its equal
	// share is turned away before it can crowd out the rest.
	if c.queued >= c.opts.MaxQueue/2 && c.active > 0 {
		share := float64(c.opts.MaxQueue) / float64(c.active)
		if float64(p.queued+1) > c.opts.FairShare*share {
			return nil, c.rejectBusyLocked()
		}
	}
	if c.queued >= c.opts.MaxQueue {
		// The queue is full. Fair shedding rejects the requester only
		// if it holds at least an equal share of the queue: a light
		// principal (a victim of someone else's flood) may overflow —
		// within a hard 2x bound — so heavy principals cannot starve
		// it out of admission entirely.
		denom := c.active
		if p.queued == 0 {
			denom++ // the requester joins the active set too
		}
		if denom < 1 {
			denom = 1
		}
		share := c.opts.MaxQueue / denom
		if share < 1 {
			share = 1 // many light principals: each still gets a seat
		}
		if p.queued+1 > share || c.queued >= 2*c.opts.MaxQueue {
			return nil, c.rejectBusyLocked()
		}
	}
	if p.queued == 0 {
		c.active++
	}
	p.queued++
	c.queued++
	c.queuedBytes += int64(bytes)
	depth, qbytes := c.queued, c.queuedBytes
	c.mu.Unlock()

	t := ticketPool.Get().(*Ticket)
	*t = Ticket{c: c, p: p, bytes: int64(bytes), deadline: deadline}
	if c.mDepth != nil {
		c.mDepth.Set(int64(depth))
		c.mBytes.Set(qbytes)
	}
	return t, nil
}

// rejectBusyLocked counts an EBUSY rejection and releases the lock.
func (c *Controller) rejectBusyLocked() error {
	c.busy++
	ra := c.retryAfterLocked()
	c.mu.Unlock()
	if c.mBusy != nil {
		c.mBusy.Inc()
	}
	return &BusyError{RetryAfter: ra}
}

// retryAfterLocked estimates how long the backlog needs to drain:
// queue depth over slot count, times the smoothed execution time,
// clamped to [1ms, 1s].
func (c *Controller) retryAfterLocked() time.Duration {
	svc := time.Duration(c.svc.Value())
	if svc < time.Millisecond {
		svc = time.Millisecond
	}
	depth := c.queued + 1
	est := svc * time.Duration(depth) / time.Duration(c.opts.ExecSlots)
	if est < time.Millisecond {
		est = time.Millisecond
	}
	if est > time.Second {
		est = time.Second
	}
	return est
}

func (c *Controller) principalLocked(name string) *principal {
	p := c.prins[name]
	if p == nil {
		p = &principal{name: name}
		c.prins[name] = p
		// Bound the map under principal churn: idle entries keep their
		// lifetime completion counts only while the map stays small.
		if len(c.prins) > 4096 {
			for n, q := range c.prins {
				if q.queued == 0 && len(q.waiters) == 0 && q != p {
					delete(c.prins, n)
				}
			}
		}
	}
	return p
}

// Acquire blocks until the ticket holds an execution slot, granted
// fairly round-robin across principals. It returns ErrExpired (and
// counts a dispatch shed) if the deadline passes first; Done must
// still be called.
func (t *Ticket) Acquire() error {
	if t == nil {
		return nil
	}
	c := t.c
	c.mu.Lock()
	now := time.Now()
	if !t.deadline.IsZero() && now.After(t.deadline) {
		c.shedDispatch++
		c.mu.Unlock()
		if c.mShedDispatch != nil {
			c.mShedDispatch.Inc()
		}
		return ErrExpired
	}
	// Fast path: a free slot and nobody waiting ahead of us.
	if c.execBusy < c.opts.ExecSlots && len(c.rr) == 0 {
		c.execBusy++
		t.granted = true
		t.grantAt = now
		busy := c.execBusy
		c.mu.Unlock()
		if c.mExec != nil {
			c.mExec.Set(int64(busy))
		}
		return nil
	}
	w := &waiter{ready: make(chan struct{})}
	t.p.waiters = append(t.p.waiters, w)
	if !t.p.inRR {
		t.p.inRR = true
		c.rr = append(c.rr, t.p)
	}
	c.mu.Unlock()

	if t.deadline.IsZero() {
		<-w.ready
		t.finishWait(now)
		return nil
	}
	timer := time.NewTimer(time.Until(t.deadline))
	defer timer.Stop()
	select {
	case <-w.ready:
		t.finishWait(now)
		return nil
	case <-timer.C:
		c.mu.Lock()
		if w.granted {
			// The grant raced the deadline: hand the slot straight to
			// the next waiter rather than execute expired work.
			c.execBusy--
			c.dispatchLocked()
		} else {
			w.abandoned = true
		}
		c.shedDispatch++
		c.mu.Unlock()
		if c.mShedDispatch != nil {
			c.mShedDispatch.Inc()
		}
		return ErrExpired
	}
}

// finishWait records a successful grant delivered through a waiter.
func (t *Ticket) finishWait(enq time.Time) {
	c := t.c
	now := time.Now()
	c.mu.Lock()
	t.granted = true
	t.grantAt = now
	busy := c.execBusy
	c.mu.Unlock()
	if c.mExec != nil {
		c.mExec.Set(int64(busy))
	}
	if c.mWait != nil {
		c.mWait.Observe(float64(now.Sub(enq).Microseconds()))
	}
}

// dispatchLocked hands a freed slot to the next waiting principal in
// round-robin order. Caller holds c.mu and has already released the
// slot (execBusy reflects the free capacity).
func (c *Controller) dispatchLocked() {
	for len(c.rr) > 0 && c.execBusy < c.opts.ExecSlots {
		p := c.rr[0]
		c.rr = c.rr[1:]
		p.inRR = false
		var w *waiter
		for len(p.waiters) > 0 {
			cand := p.waiters[0]
			p.waiters = p.waiters[1:]
			if !cand.abandoned {
				w = cand
				break
			}
		}
		if len(p.waiters) > 0 {
			p.inRR = true
			c.rr = append(c.rr, p)
		}
		if w == nil {
			continue // only abandoned waiters; try the next principal
		}
		c.execBusy++
		w.granted = true
		close(w.ready)
		// Keep granting while slots remain: the loop's post-condition —
		// either every slot is busy or no grantable waiter remains — is
		// what lets Acquire's fast path trust a non-empty rr to mean
		// "slots are full".
	}
}

// ExpiredAtBarrier reports whether the deadline has passed at the
// durability-barrier hop, counting a barrier shed when it has. The
// caller skips the barrier wait and answers EDEADLINE instead.
func (t *Ticket) ExpiredAtBarrier() bool {
	if t == nil || t.deadline.IsZero() {
		return false
	}
	if !time.Now().After(t.deadline) {
		return false
	}
	t.c.mu.Lock()
	t.c.shedBarrier++
	t.c.mu.Unlock()
	if t.c.mShedBarrier != nil {
		t.c.mShedBarrier.Inc()
	}
	return true
}

// Done releases the ticket: the execution slot (waking the next fair
// waiter), the queue accounting, and the completion/service-time
// bookkeeping. It is idempotent.
func (t *Ticket) Done() {
	if t == nil || t.c == nil {
		return
	}
	c := t.c
	c.mu.Lock()
	if t.released {
		c.mu.Unlock()
		return
	}
	t.released = true
	p := t.p
	if t.granted {
		c.execBusy--
		p.completed++
		c.svc.Observe(float64(time.Since(t.grantAt)))
		c.dispatchLocked()
	}
	p.queued--
	if p.queued == 0 {
		c.active--
	}
	c.queued--
	c.queuedBytes -= t.bytes
	depth, qbytes, busy := c.queued, c.queuedBytes, c.execBusy
	c.mu.Unlock()
	if c.mDepth != nil {
		c.mDepth.Set(int64(depth))
		c.mBytes.Set(qbytes)
		c.mExec.Set(int64(busy))
	}
	*t = Ticket{}
	ticketPool.Put(t)
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Queued:       c.queued,
		QueuedBytes:  c.queuedBytes,
		ExecBusy:     c.execBusy,
		ShedAdmit:    c.shedAdmit,
		ShedDispatch: c.shedDispatch,
		ShedBarrier:  c.shedBarrier,
		Busy:         c.busy,
		Control:      c.control,
		Completions:  make(map[string]int64, len(c.prins)),
	}
	for name, p := range c.prins {
		if p.completed > 0 {
			st.Completions[name] = p.completed
		}
	}
	return st
}
