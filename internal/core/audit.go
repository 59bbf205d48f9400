package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"sync"

	"identitybox/internal/obs"
)

// AuditSink receives every audit record the box produces, as it is
// produced. Implementations must be safe for concurrent use: concurrent
// boxed processes record from their own goroutines.
//
// The box ships three implementations: AuditRing (bounded in-memory,
// the default), JSONLSink (streaming forensic log) and FanoutSink
// (duplicate to several sinks).
type AuditSink interface {
	Record(rec AuditRecord)
}

// AuditSnapshotter is implemented by sinks that retain records and can
// return them; Box.Audit uses it when available.
type AuditSnapshotter interface {
	Snapshot() []AuditRecord
}

// AuditRing is a fixed-capacity in-memory audit sink: eviction is O(1)
// and the backing array never grows or retains evicted records. It is
// an obs.Ring itself rather than a wrapper around one: one allocation
// fewer per box. A record holds its call as a value, so recording one
// allocates nothing.
type AuditRing obs.Ring[AuditRecord]

// NewAuditRing creates a ring holding up to capacity records
// (minimum 1).
func NewAuditRing(capacity int) *AuditRing {
	return (*AuditRing)(obs.NewRing[AuditRecord](capacity))
}

func (r *AuditRing) ring() *obs.Ring[AuditRecord] { return (*obs.Ring[AuditRecord])(r) }

// Record implements AuditSink.
func (r *AuditRing) Record(rec AuditRecord) { r.ring().Push(rec) }

// Snapshot returns the retained records, oldest first.
func (r *AuditRing) Snapshot() []AuditRecord { return r.ring().Snapshot() }

// Dropped reports how many records have been evicted to make room.
func (r *AuditRing) Dropped() int64 { return r.ring().Dropped() }

// ErrSinkClosed reports a record that arrived after Close: the line was
// dropped, not written.
var ErrSinkClosed = errors.New("core: audit sink closed")

// JSONLSink streams audit records to a writer as JSON lines, one record
// per line, suitable for shipping to an external collector or a file.
//
// NewJSONLSink writes through unbuffered; NewFileJSONLSink buffers (and
// optionally fsyncs), so callers of the latter must Flush or Close
// before discarding the sink or buffered lines are lost.
type JSONLSink struct {
	mu      sync.Mutex
	enc     *json.Encoder
	bw      *bufio.Writer // nil for the unbuffered variant
	w       io.Writer     // underlying writer, for Sync and Close
	fsync   bool
	every   int // auto-flush after this many records (0: only on Flush/Close)
	pending int // records since the last flush
	closed  bool
	err     error
}

// NewJSONLSink creates a sink writing each record straight to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w), w: w}
}

// NewFileJSONLSink creates a buffered sink for a file-backed writer:
// records accumulate in memory and reach w only on Flush or Close.
// With fsync true, every Flush also forces the lines to stable storage
// when w supports it (as *os.File does).
func NewFileJSONLSink(w io.Writer, fsync bool) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{enc: json.NewEncoder(bw), bw: bw, w: w, fsync: fsync}
}

// SetAutoFlush makes the sink flush itself every n records — the audit
// analog of the WAL's grouped sync policy: a file-backed sink under
// heavy traffic pays one buffered write (and one fsync, when enabled)
// per n records instead of trusting callers to Flush at the right
// moments. n <= 0 restores the default: flush only on Flush/Close.
func (s *JSONLSink) SetAutoFlush(n int) {
	s.mu.Lock()
	s.every = n
	s.pending = 0
	s.mu.Unlock()
}

// Record implements AuditSink. Write errors are sticky: the first one
// stops further output and is reported by Err, Flush and Close.
func (s *JSONLSink) Record(rec AuditRecord) {
	s.RecordValue(rec)
}

// RecordValue encodes an arbitrary value as one JSON line, with the
// same sticky-error and auto-flush behavior as Record. It exists for
// sinks reused beyond audit records — the Chirp server's slow-request
// log streams completed trace spans through it. The returned error is
// the sink's first (possibly from an earlier record), so callers that
// care can notice degradation without polling Err.
func (s *JSONLSink) RecordValue(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		if s.err == nil {
			s.err = ErrSinkClosed
		}
	case s.err == nil:
		s.err = s.enc.Encode(v)
		if s.err == nil && s.every > 0 {
			s.pending++
			if s.pending >= s.every {
				s.flushLocked()
				s.pending = 0
			}
		}
	}
	return s.err
}

// Err reports the first error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush pushes buffered lines to the underlying writer and, for a
// fsync-enabled sink, on to stable storage. It returns the sink's
// first error, so a shutdown path ending in Flush surfaces write
// failures that Record absorbed.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = 0
	return s.flushLocked()
}

func (s *JSONLSink) flushLocked() error {
	if s.err != nil {
		return s.err
	}
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil {
			s.err = err
			return err
		}
	}
	if s.fsync {
		if f, ok := s.w.(interface{ Sync() error }); ok {
			if err := f.Sync(); err != nil {
				s.err = err
				return err
			}
		}
	}
	return nil
}

// Close flushes and, when the underlying writer is an io.Closer,
// closes it. Close is idempotent; later records are dropped and show
// up in Err. The returned error is the sink's first, so audit lines
// never vanish silently at shutdown.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.flushLocked()
	s.closed = true
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// FanoutSink duplicates every record to each child sink in order.
type FanoutSink []AuditSink

// Record implements AuditSink.
func (f FanoutSink) Record(rec AuditRecord) {
	for _, s := range f {
		s.Record(rec)
	}
}

// Snapshot implements AuditSnapshotter using the first child that
// retains records, so Box.Audit keeps working when a fan-out includes
// an AuditRing.
func (f FanoutSink) Snapshot() []AuditRecord {
	for _, s := range f {
		if snap, ok := s.(AuditSnapshotter); ok {
			return snap.Snapshot()
		}
	}
	return nil
}
