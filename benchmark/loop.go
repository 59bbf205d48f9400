package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// execFn performs one op on behalf of in-flight caller i and reports
// whether it succeeded with the right answer.
type execFn func(i int, o op) error

const maxErrsKept = 5

// errLog keeps the first few failures of a window.
type errLog struct {
	mu   sync.Mutex
	errs []string
}

func (l *errLog) add(o op, err error) {
	l.mu.Lock()
	if len(l.errs) < maxErrsKept {
		l.errs = append(l.errs, o.kind.String()+": "+err.Error())
	}
	l.mu.Unlock()
}

// runClosed drives a closed loop for dur: each of len(gens) callers
// sends its next op only after the previous one completed. Every op
// that starts inside the window is recorded.
func runClosed(gens []*opGen, exec execFn, dur time.Duration) *window {
	w := &window{before: readProcClock()}
	start := time.Now()
	var (
		wg   sync.WaitGroup
		log  errLog
		outs = make([][]sample, len(gens))
	)
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					break
				}
				o := gens[i].next()
				err := exec(i, o)
				t1 := time.Now()
				if err != nil {
					log.add(o, err)
				}
				out = append(out, sample{latNs: int64(t1.Sub(t0)), ok: err == nil})
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	w.dur = time.Since(start)
	w.after = readProcClock()
	w.collect(outs)
	w.errs = log.errs
	return w
}

// collect merges the callers' samples and counts attempts and failures.
func (w *window) collect(outs [][]sample) {
	for _, out := range outs {
		w.samples = append(w.samples, out...)
	}
	w.attempted += int64(len(w.samples))
	for _, s := range w.samples {
		if !s.ok {
			w.failed++
		}
	}
}

// openStep is one fixed-rate step of the open loop.
type openStep struct {
	arrivals []arrival     // the whole schedule, due offsets from the step's start
	settle   time.Duration // arrivals due before this are served but not measured
	dur      time.Duration // measured part, after settle
	drain    time.Duration // how long the queues may take to empty after the step, at most
	conns    int
	pool     int // callers per connection
}

type queued struct {
	due time.Time
	op  op
}

// runOpen drives one open-loop step: a single dispatcher releases each
// arrival at its due time whatever the system's state, onto its
// connection's queue; a bounded pool of callers per connection serves
// the queues. Every request is timed from its due time, not its send
// time, so a stall is charged to every request it delayed, and how late
// the dispatcher itself ran is reported beside it. route picks the
// connection an op must use.
func runOpen(step openStep, route func(i int, o op) int, exec execFn) *window {
	start := time.Now()
	from := start.Add(step.settle)
	end := from.Add(step.dur)
	w := &window{dur: step.dur, before: readProcClock()}

	queues := make([]chan queued, step.conns)
	for c := range queues {
		// Room for the whole schedule: the dispatcher never blocks, the
		// queue is the backlog.
		queues[c] = make(chan queued, len(step.arrivals))
	}
	var (
		wg      sync.WaitGroup
		log     errLog
		closed  atomic.Bool  // the step and its drain are over: what is still queued is dropped
		pending atomic.Int64 // arrivals released that no caller has started on yet
		dropped atomic.Int64
		outs    = make([][]sample, step.conns*step.pool)
	)
	for c := 0; c < step.conns; c++ {
		for p := 0; p < step.pool; p++ {
			wg.Add(1)
			go func(i int, q <-chan queued) {
				defer wg.Done()
				var out []sample
				for it := range q {
					measured := !it.due.Before(from)
					if closed.Load() {
						if measured {
							dropped.Add(1)
						}
						continue
					}
					pending.Add(-1)
					err := exec(i, it.op)
					t1 := time.Now()
					if !measured {
						continue
					}
					if err != nil {
						log.add(it.op, err)
					}
					out = append(out, sample{latNs: int64(t1.Sub(it.due)), ok: err == nil})
				}
				outs[i] = out
			}(c*step.pool+p, queues[c])
		}
	}

	for i, a := range step.arrivals {
		due := start.Add(time.Duration(a.due))
		// (time.Sleep rounds a sub-millisecond wait up to about a
		// millisecond; arrivals are released in batches that late, which
		// lateNs reports. nanosleep(2) wakes sooner but then queues for a
		// P behind the busy server, and ran later still at the tail.)
		time.Sleep(time.Until(due))
		if !due.Before(from) {
			if w.arrivals == 0 {
				w.before = readProcClock() // the settle period is over
			}
			w.arrivals++
			w.lateNs = append(w.lateNs, int64(time.Since(due)))
		}
		pending.Add(1)
		queues[route(i, a.op)] <- queued{due: due, op: a.op}
	}
	// The backlog is what no caller has picked up when the step ends. The
	// queues then get step.drain to empty: a stall in a step the system
	// keeps up with must not turn arrivals into failures, their latency
	// from due time says what happened. What is still queued after that
	// (an overloaded step's backlog) is dropped, and failed its caller as
	// surely as an error would have.
	time.Sleep(time.Until(end))
	w.backlog = pending.Load()
	for deadline := end.Add(step.drain); pending.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	closed.Store(true)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	w.after = readProcClock()
	w.collect(outs)
	w.attempted += dropped.Load()
	w.failed += dropped.Load()
	w.errs = log.errs
	return w
}
