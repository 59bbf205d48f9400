package chirp

import (
	"sync"
	"time"

	"identitybox/internal/obs"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: traffic flows normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the server looks dead; calls fail fast until the
	// cooloff elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooloff elapsed; one probe is in flight.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a small circuit breaker over one server connection: after
// Threshold consecutive transport failures it opens and fails calls
// fast (no dial, no backoff churn) for breakerCooloff, then lets one
// probe through. A probe success closes it; a probe failure re-opens
// it. It feeds the client's obs registry (state gauge, opens counter)
// and is consulted by the catalog-failover driver to route reads away
// from a dead primary — and, through Allow's cooloff, back to it once
// it recovers.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	threshold int
	clk       clock // the client's: the cool-off runs on it
	openedAt  time.Time

	opens    *obs.Counter
	stateGge *obs.Gauge
}

func newBreaker(threshold int, clk clock, reg *obs.Registry) *Breaker {
	reg.Help(MetricClientBreakerOpens, "Times the client circuit breaker opened.")
	reg.Help(MetricClientBreakerState, "Breaker state: 0 closed, 1 open, 2 half-open.")
	return &Breaker{
		threshold: threshold,
		clk:       clk,
		opens:     reg.Counter(MetricClientBreakerOpens),
		stateGge:  reg.Gauge(MetricClientBreakerState),
	}
}

// Allow reports whether a call (or redial) may proceed. In the open
// state it returns false until the cooloff elapses, then transitions to
// half-open and admits a single probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed, BreakerHalfOpen:
		return true
	default: // open
		if b.clk.now().Sub(b.openedAt) < breakerCooloff {
			return false
		}
		b.setLocked(BreakerHalfOpen)
		return true
	}
}

// Success records a completed exchange: the breaker closes and the
// consecutive-failure count resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if b.state != BreakerClosed {
		b.setLocked(BreakerClosed)
	}
}

// Fail records a transport failure (dial error or a connection dying
// mid-exchange). The half-open probe failing re-opens immediately;
// otherwise Threshold consecutive failures open the breaker.
func (b *Breaker) Fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.threshold) {
		b.openedAt = b.clk.now()
		b.setLocked(BreakerOpen)
	}
}

// State reports the breaker's current position (cooloff expiry is
// observed lazily by Allow, so an idle open breaker reports open).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) setLocked(s BreakerState) {
	if s == BreakerOpen && b.state != BreakerOpen {
		b.opens.Inc()
	}
	b.state = s
	b.stateGge.Set(int64(s))
}
