package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"identitybox/internal/kernel"
)

// syncRecorder is a file-like writer that counts Sync calls and can be
// told to fail them, for exercising the fsync path without real disks.
type syncRecorder struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	syncs   int
	syncErr error
	closed  bool
}

func (w *syncRecorder) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncRecorder) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncs++
	return w.syncErr
}

func (w *syncRecorder) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return nil
}

func (w *syncRecorder) contents() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func auditRec(call string) AuditRecord { return AuditRecord{Call: kernel.NoteCall(call)} }

// TestFileJSONLSinkBuffersUntilFlush: the buffered variant holds lines
// in memory; Flush pushes them out and fsyncs when asked.
func TestFileJSONLSinkBuffersUntilFlush(t *testing.T) {
	w := &syncRecorder{}
	sink := NewFileJSONLSink(w, true)
	sink.Record(auditRec("open"))
	sink.Record(auditRec("read"))
	if got := w.contents(); got != "" {
		t.Fatalf("records reached the writer before Flush: %q", got)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.contents(), "\n"); got != 2 {
		t.Fatalf("flushed %d lines, want 2", got)
	}
	if w.syncs != 1 {
		t.Fatalf("fsyncs = %d, want 1", w.syncs)
	}
	// Without fsync, Flush drains the buffer but never syncs.
	w2 := &syncRecorder{}
	sink2 := NewFileJSONLSink(w2, false)
	sink2.Record(auditRec("open"))
	if err := sink2.Flush(); err != nil {
		t.Fatal(err)
	}
	if w2.syncs != 0 {
		t.Fatalf("fsyncs without fsync option = %d, want 0", w2.syncs)
	}
}

// TestJSONLSinkCloseFlushesAndCloses: Close drains the buffer, closes a
// closable writer, is idempotent, and rejects later records.
func TestJSONLSinkCloseFlushesAndCloses(t *testing.T) {
	w := &syncRecorder{}
	sink := NewFileJSONLSink(w, true)
	sink.Record(auditRec("open"))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.contents(), "\n"); got != 1 {
		t.Fatalf("Close flushed %d lines, want 1", got)
	}
	if !w.closed {
		t.Fatal("Close did not close the underlying writer")
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	sink.Record(auditRec("late"))
	if !errors.Is(sink.Err(), ErrSinkClosed) {
		t.Fatalf("Err after post-Close record = %v, want ErrSinkClosed", sink.Err())
	}
}

// TestJSONLSinkFsyncErrorPropagates: a failing fsync surfaces from
// Flush, sticks, and reappears from Close — lost durability is never
// silent.
func TestJSONLSinkFsyncErrorPropagates(t *testing.T) {
	w := &syncRecorder{syncErr: errors.New("disk on fire")}
	sink := NewFileJSONLSink(w, true)
	sink.Record(auditRec("open"))
	err := sink.Flush()
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("Flush error = %v", err)
	}
	if sink.Err() != err {
		t.Fatalf("error not sticky: Err() = %v", sink.Err())
	}
	if cerr := sink.Close(); cerr != err {
		t.Fatalf("Close() = %v, want the sticky %v", cerr, err)
	}
	if !w.closed {
		t.Fatal("Close must still close the writer after an error")
	}
}

// TestJSONLSinkUnbufferedFlushIsCheap: the write-through variant has
// nothing buffered; Flush and Close still work (and Close still closes
// a closable writer).
func TestJSONLSinkUnbufferedFlushIsCheap(t *testing.T) {
	w := &syncRecorder{}
	sink := NewJSONLSink(w)
	sink.Record(auditRec("open"))
	if got := strings.Count(w.contents(), "\n"); got != 1 {
		t.Fatalf("unbuffered sink wrote %d lines before Flush, want 1", got)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.syncs != 0 {
		t.Fatalf("plain sink fsynced %d times", w.syncs)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Fatal("Close did not reach the writer")
	}
}

// TestJSONLSinkAutoFlushBatches: with SetAutoFlush(n) the sink flushes
// (and fsyncs) once per n records — grouped durability instead of a
// sync per record or none until shutdown.
func TestJSONLSinkAutoFlushBatches(t *testing.T) {
	w := &syncRecorder{}
	sink := NewFileJSONLSink(w, true)
	sink.SetAutoFlush(4)
	for i := 0; i < 10; i++ {
		sink.Record(auditRec("op"))
	}
	if got := strings.Count(w.contents(), "\n"); got != 8 {
		t.Fatalf("auto-flush pushed %d lines, want 8 (two groups of 4)", got)
	}
	if w.syncs != 2 {
		t.Fatalf("fsyncs = %d, want one per full group", w.syncs)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.contents(), "\n"); got != 10 {
		t.Fatalf("explicit Flush left %d lines, want all 10", got)
	}
}

// TestJSONLSinkConcurrentRecordAndFlush: concurrent recorders and a
// flusher race cleanly (run with -race).
func TestJSONLSinkConcurrentRecordAndFlush(t *testing.T) {
	w := &syncRecorder{}
	sink := NewFileJSONLSink(w, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.Record(auditRec("op"))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			sink.Flush()
		}
	}()
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(w.contents(), "\n"); got != 200 {
		t.Fatalf("wrote %d lines, want 200", got)
	}
}
