package chirp

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"time"

	"identitybox/internal/obs"
)

// Typed failures of the fault-tolerance layer.
var (
	// ErrRetryNotSafe is returned when a connection fails in the middle
	// of a non-idempotent exchange (pwrite on a live descriptor, exec
	// without a request token): the client cannot tell whether the
	// server applied the request, so it refuses to retry. Callers opt in
	// by supplying a request token the server dedupes (ExecToken), or by
	// restarting the whole logical operation (PutFile does this
	// internally).
	ErrRetryNotSafe = errors.New("chirp: connection failed mid-call; retry not safe for non-idempotent request")
	// ErrBreakerOpen is returned while the client's circuit breaker is
	// open: the server has failed repeatedly and calls fail fast until
	// the cooloff elapses.
	ErrBreakerOpen = errors.New("chirp: circuit breaker open, server considered down")
	// ErrClientClosed is returned for calls on a closed client.
	ErrClientClosed = errors.New("chirp: client closed")
	// ErrDegraded is returned by the failover driver for writes while
	// the primary is unavailable: reads fail over to replicas, writes
	// degrade with this typed error instead of hanging.
	ErrDegraded = errors.New("chirp: writes degraded, primary unavailable")
)

// Client-side metric names (ClientOptions.Metrics / Client.LocalMetrics).
const (
	MetricClientRetries      = "chirp_client_retries_total"
	MetricClientRedials      = "chirp_client_redials_total"
	MetricClientRetryUnsafe  = "chirp_client_retry_unsafe_total"
	MetricClientBreakerOpens = "chirp_client_breaker_opens_total"
	MetricClientBreakerState = "chirp_client_breaker_state"
	// v2 mux observability: tags currently awaiting replies, times a
	// submit had to wait for credit-window space, and in-flight
	// request+reply payload bytes.
	MetricClientTagsInFlight  = "chirp_client_tags_inflight"
	MetricClientWindowStalls  = "chirp_client_window_stalls_total"
	MetricClientInflightBytes = "chirp_client_inflight_bytes"
	// Negotiated v2 session limits, as gauges so operators can see the
	// effective window without running chirp ping: the min of what the
	// client advertised and what the server offered. Zero until a v2
	// session is established (or forever, on a v1 fallback).
	MetricClientWindow         = "chirp_client_negotiated_window"
	MetricClientMaxBytes       = "chirp_client_negotiated_max_bytes"
	MetricClientRequestLatency = "chirp_client_request_latency_us"
	// Overload-protection observability: EBUSY rejections received from
	// the server (each carries a retry-after hint the backoff honors) and
	// calls abandoned because the caller's deadline budget ran out —
	// either shed by the server with EDEADLINE or given up client-side
	// before a send or a retry sleep that could not fit in the budget.
	MetricClientBusy            = "chirp_client_busy_total"
	MetricClientDeadlineExpired = "chirp_client_deadline_expired_total"
)

// Server-side fault-tolerance metric names.
const (
	MetricDedupeHits        = "chirp_dedupe_hits_total"
	MetricDedupeEntries     = "chirp_dedupe_entries"
	MetricDedupeBytes       = "chirp_dedupe_bytes"
	MetricDedupeEvictions   = "chirp_dedupe_evictions_total"
	MetricDedupeJournalErrs = "chirp_dedupe_journal_errors_total"
	MetricDraining          = "chirp_draining"
	MetricBarrierErrs       = "chirp_commit_barrier_errors_total"
	MetricPayloadPoolHits   = "chirp_payload_pool_hits"
	MetricPayloadPoolMisses = "chirp_payload_pool_misses"
)

// Server-side v2 mux metric names.
const (
	MetricTagsInFlight       = "chirp_tags_inflight"
	MetricBackpressureStalls = "chirp_backpressure_stalls_total"
	MetricWindowOccupancy    = "chirp_window_occupancy"
	MetricV2Sessions         = "chirp_v2_sessions_total"
	// End-to-end server-side request latency (lane queue wait included),
	// in microseconds, with per-bucket trace-ID exemplars when the
	// request carried trace context.
	MetricRequestLatency = "chirp_request_latency_us"
)

// ClientOptions tune the client's fault-tolerance layer. The zero value
// gives sensible production defaults: retries enabled, no per-call
// deadline, a 5-failure breaker with a one-second cooloff.
type ClientOptions struct {
	// Timeout bounds each wire exchange (one request/response, payload
	// phases included) with a connection deadline. Zero means no
	// deadline. Redial and re-authentication are bounded by the same
	// timeout.
	Timeout time.Duration
	// MaxRetries is how many times a failed exchange is retried beyond
	// the first attempt (default 3). Only transport failures are
	// retried, and only for calls the command table marks idempotent
	// (tokened ones included); error replies from the server are final,
	// except EBUSY, which was refused before anything ran.
	MaxRetries int
	// DisableRetries turns the retry/redial machinery off entirely: the
	// first transport failure surfaces to the caller, as the pre-fault-
	// tolerance client behaved.
	DisableRetries bool
	// RetryBase is the first backoff delay (default 50ms). Retry n
	// sleeps min(RetryBase<<n, RetryMax), half fixed and half seeded
	// jitter.
	RetryBase time.Duration
	// RetryMax caps the backoff (default 2s).
	RetryMax time.Duration
	// Seed makes the backoff jitter deterministic (default 1).
	Seed int64
	// BreakerThreshold is the consecutive transport failures that open
	// the circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooloff is how long the breaker stays open before letting
	// a probe through (default 1s).
	BreakerCooloff time.Duration
	// Metrics, when set, receives the client's retry/redial/breaker
	// counters. When nil the client keeps a private registry, reachable
	// via LocalMetrics.
	Metrics *obs.Registry
	// Dialer replaces net.Dial("tcp", addr) — the hook fault-injection
	// tests (and exotic transports) use.
	Dialer func(addr string) (net.Conn, error)
	// Sleep replaces time.Sleep for backoff waits, letting tests record
	// the schedule instead of waiting it out.
	Sleep func(time.Duration)
	// PipelineDepth, when > 1, lets GetFile and PutFile keep that many
	// chunk requests in flight on the session at once instead of waiting
	// out a round trip per chunk (on a v2 session each chunk is an
	// independently tagged call; a v1 session's window of 1 serializes
	// them again). A transport failure mid-transfer breaks
	// the connection and surfaces ErrRetryNotSafe so the whole transfer
	// restarts, exactly like the serial path. 0 or 1 means one request
	// at a time.
	PipelineDepth int
	// Protocol pins the wire framing: ProtocolV1 forces the lock-step
	// line framing, ProtocolV2 (or 0, the default) negotiates tagged
	// async multiplexing and falls back to v1 when the server answers
	// the version exchange with ENOSYS (an old server treats it as an
	// unknown command).
	Protocol int
	// Window is the credit window this client advertises during v2
	// negotiation: the most tags it will keep in flight on one session
	// (default DefaultWindow). The server advertises its own cap and the
	// minimum wins.
	Window int
	// MaxInflightBytes bounds the request+reply payload bytes in flight
	// on a v2 session (default DefaultMaxInflightBytes), so a deep
	// window of fat transfers cannot buffer unbounded memory. At least
	// one call is always admitted, whatever its size.
	MaxInflightBytes int64
	// Spans, when set, turns on request tracing: the client requests the
	// trace capability during v2 negotiation, stamps every tagged call
	// with a trace ID, and records one client-side span per call (with
	// submit-stall, write, and await phases) into this ring. Nil (the
	// default) keeps the wire format and the hot path exactly as before;
	// tracing never activates on a v1 session or against a server that
	// does not echo the capability.
	Spans *obs.SpanRing
	// DeadlineBudget, when > 0, bounds each logical call (all retries and
	// backoff sleeps included) by a wall-clock budget. The client requests
	// the deadline capability during v2 negotiation and stamps every
	// request line with the remaining budget in milliseconds; the server
	// sheds the request with EDEADLINE at any hop — admit queue, worker
	// dispatch, durability barrier — once the budget is gone, instead of
	// doing work whose caller has stopped waiting. The retry layer never
	// sleeps past the deadline and fails fast with ErrDeadline once it
	// expires. Against an old server (no capability echo) requests carry
	// no deadline on the wire but the client-side budget still applies.
	// Zero (the default) keeps calls unbounded, exactly as before.
	DeadlineBudget time.Duration
}

// withDefaults fills zero fields in place.
func (o *ClientOptions) withDefaults() {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.RetryBase == 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooloff == 0 {
		o.BreakerCooloff = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Protocol == 0 {
		o.Protocol = ProtocolV2
	}
	if o.Window == 0 {
		o.Window = DefaultWindow
	}
	if o.MaxInflightBytes == 0 {
		o.MaxInflightBytes = DefaultMaxInflightBytes
	}
}

// clientMetrics caches the client's counter handles.
type clientMetrics struct {
	reg            *obs.Registry
	retries        *obs.Counter
	redials        *obs.Counter
	unsafe         *obs.Counter
	tagsInFlight   *obs.Gauge
	windowStalls   *obs.Counter
	inflightBytes  *obs.Gauge
	negWindow      *obs.Gauge
	negMaxBytes    *obs.Gauge
	requestLatency *obs.Histogram
	busy           *obs.Counter
	deadline       *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	reg.Help(MetricClientRetries, "Exchanges re-sent after a transport failure.")
	reg.Help(MetricClientRedials, "Connections re-established (re-authentication included).")
	reg.Help(MetricClientRetryUnsafe, "Transport failures surfaced as ErrRetryNotSafe.")
	reg.Help(MetricClientTagsInFlight, "Tagged calls currently awaiting replies.")
	reg.Help(MetricClientWindowStalls, "Submits that waited for credit-window space.")
	reg.Help(MetricClientInflightBytes, "Request+reply payload bytes currently in flight.")
	reg.Help(MetricClientWindow, "Credit window of the current session (1 on the v1 line framing).")
	reg.Help(MetricClientMaxBytes, "Negotiated v2 in-flight byte budget (0 on the v1 line framing).")
	reg.Help(MetricClientRequestLatency, "Client-observed tagged-call latency, submit to reply, in microseconds.")
	reg.Help(MetricClientBusy, "EBUSY overload rejections received (retried with the server's retry-after hint).")
	reg.Help(MetricClientDeadlineExpired, "Calls abandoned because the deadline budget ran out (server shed or client-side).")
	return &clientMetrics{
		reg:            reg,
		retries:        reg.Counter(MetricClientRetries),
		redials:        reg.Counter(MetricClientRedials),
		unsafe:         reg.Counter(MetricClientRetryUnsafe),
		tagsInFlight:   reg.Gauge(MetricClientTagsInFlight),
		windowStalls:   reg.Counter(MetricClientWindowStalls),
		inflightBytes:  reg.Gauge(MetricClientInflightBytes),
		negWindow:      reg.Gauge(MetricClientWindow),
		negMaxBytes:    reg.Gauge(MetricClientMaxBytes),
		requestLatency: reg.Histogram(MetricClientRequestLatency, requestLatencyBuckets()),
		busy:           reg.Counter(MetricClientBusy),
		deadline:       reg.Counter(MetricClientDeadlineExpired),
	}
}

// requestLatencyBuckets spans wall-clock RPC latencies: geometric from
// 10µs (loopback metadata call) to 4s (a transfer riding out a group
// commit under load). Shared by the client- and server-side request
// latency histograms so their quantiles compare directly.
func requestLatencyBuckets() []float64 {
	return []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
		25000, 50000, 100000, 250000, 500000, 1e6, 4e6}
}

// backoff computes the nth retry's delay (n is 1-based): capped
// exponential, half fixed plus half jitter from the seeded rng.
func backoff(rng *mrand.Rand, base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// NewRequestToken returns a fresh random idempotency token for tokened
// calls (ExecToken): 16 bytes of crypto randomness, hex-encoded, unique
// across client restarts.
func NewRequestToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("chirp: reading random token: %v", err)) // unreachable
	}
	return hex.EncodeToString(b[:])
}

// deadlineErr builds the terminal error for a call whose deadline
// budget ran out on the client side, preserving the last transport or
// server error (if any) for diagnosis.
func deadlineErr(budget time.Duration, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("%w (budget %v): last error: %v", ErrDeadline, budget, lastErr)
	}
	return fmt.Errorf("%w (budget %v)", ErrDeadline, budget)
}

// isTransient reports whether an error is a transport-level failure (a
// candidate for retry or failover) rather than a definitive reply from
// a server. Remote error replies are final; everything else — dial
// errors, resets, deadline expiries, breaker trips — is transient.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	class, _ := classOf(err)
	return class == classTransient
}
