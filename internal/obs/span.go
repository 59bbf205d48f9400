package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// This file is the request-tracing half of the package: spans are
// wall-clock timings of one request's passage through a process,
// correlated across processes by a shared trace ID. Like every other
// obs facility, span recording never touches the virtual clock — a
// traced run is tick-identical to an untraced one.

// DefaultSpanCapacity bounds a process's span ring when the creator
// does not choose.
const DefaultSpanCapacity = 4096

// A Span is one timed unit of work attributed to a trace: a client
// call, a server request, a WAL group commit. Start and Dur are wall
// clock (time.Time / time.Duration), never virtual ticks. Phases
// subdivide the span; their offsets are relative to Start.
type Span struct {
	Trace  uint64        `json:"-"`
	TraceS string        `json:"trace"` // %016x form, for JSON consumers
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"` // "client", "server", "wal.commit", "box.<class>"
	Cmd    string        `json:"cmd,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Phases []SpanPhase   `json:"phases,omitempty"`
	Err    string        `json:"err,omitempty"`
}

// SpanPhase is one timed sub-step inside a span.
type SpanPhase struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"off_ns"` // from Span.Start
	Dur    time.Duration `json:"dur_ns"`
}

// Phase appends a phase covering [off, off+dur) and returns the span
// for chaining.
func (s *Span) Phase(name string, off, dur time.Duration) *Span {
	s.Phases = append(s.Phases, SpanPhase{Name: name, Offset: off, Dur: dur})
	return s
}

// SpanRing is a bounded in-memory store of completed spans, oldest
// evicted first. A nil *SpanRing is a valid no-op recorder, so call
// sites need no guards — the disabled path is one nil check.
type SpanRing struct {
	spans *Ring[Span]
	ids   atomic.Uint64 // span-ID allocator
}

// NewSpanRing creates a ring holding up to capacity completed spans
// (minimum 1; 0 or negative uses DefaultSpanCapacity).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRing{spans: NewRing[Span](capacity)}
}

// NextSpanID allocates a process-unique span ID. Nil-safe: a nil ring
// still hands out IDs from a shared fallback counter.
func (r *SpanRing) NextSpanID() uint64 {
	if r == nil {
		return fallbackIDs.Add(1)
	}
	return r.ids.Add(1)
}

var fallbackIDs atomic.Uint64

// Record stores one completed span. Nil-safe and safe for concurrent
// use. The span's TraceS field is derived here so recorders never
// format IDs on their own.
func (r *SpanRing) Record(s Span) {
	if r == nil {
		return
	}
	s.TraceS = FormatTraceID(s.Trace)
	r.spans.Push(s)
}

// Spans returns the retained spans, oldest first. Nil-safe (empty).
func (r *SpanRing) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans.Snapshot()
}

// Trace returns the retained spans carrying the given trace ID, oldest
// first. Nil-safe (empty).
func (r *SpanRing) Trace(id uint64) []Span {
	if r == nil || id == 0 {
		return nil
	}
	var out []Span
	for _, s := range r.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// Len reports how many spans are retained. Nil-safe (0).
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	return r.spans.Len()
}

// Dropped reports how many spans were evicted to make room. Nil-safe.
func (r *SpanRing) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.spans.Dropped()
}

// --- trace IDs ----------------------------------------------------------

var traceSeq atomic.Uint64

func init() {
	// Seed the trace-ID sequence from the wall clock once, so separate
	// processes started in the same second diverge. Collisions are
	// harmless (a trace view shows a few foreign spans), so a strong
	// RNG is not needed and the hot path stays a single atomic add.
	traceSeq.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID returns a fresh non-zero trace ID: a splitmix64 of a
// process-wide sequence seeded from the wall clock. Zero is reserved
// to mean "untraced".
func NewTraceID() uint64 {
	for {
		z := traceSeq.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// FormatTraceID renders an ID in the canonical 16-hex-digit wire form.
func FormatTraceID(id uint64) string {
	var b [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the wire form produced by FormatTraceID (any
// hex string up to 16 digits is accepted).
func ParseTraceID(s string) (uint64, error) {
	return strconv.ParseUint(s, 16, 64)
}
