package main

import (
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/chirp"
	"identitybox/internal/durable"
)

// The program is measured only from outside: these wrappers sit on the
// interfaces it already accepts (ClientOptions.Dialer, Options.OpenAppend,
// Options.OnShip, ServerOptions.DedupeJournal). Each counter is one
// atomic add; the time.Now pairs run only while timed is set (the traced
// pass).

// wireCounters counts what crosses the clients' connections.
type wireCounters struct {
	reads, writes, bytes atomic.Int64
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (w *wireCounters) dialer(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: w}, nil
}

// fileTracker stands behind durable.Options.OpenAppend for one store.
// Besides counting, it remembers how many bytes of each segment have
// been written and how many were covered by a completed fsync: the
// crash check discards everything past the synced length, which is what
// a power failure would do (killing a process keeps the page cache).
type fileTracker struct {
	writes, bytes, syncs atomic.Int64
	timed                atomic.Bool

	mu      sync.Mutex
	files   map[string]*trackedFile
	writeNs []int64 // samples while timed
	syncNs  []int64
}

type trackedFile struct {
	durable.File
	t       *fileTracker
	path    string
	written atomic.Int64
	synced  atomic.Int64
}

func newFileTracker() *fileTracker {
	return &fileTracker{files: make(map[string]*trackedFile)}
}

func (t *fileTracker) open(path string) (durable.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	tf := &trackedFile{File: f, t: t, path: path}
	if st, err := f.Stat(); err == nil {
		// Bytes found at open were recovered from disk: they are synced.
		tf.written.Store(st.Size())
		tf.synced.Store(st.Size())
	}
	t.mu.Lock()
	t.files[path] = tf
	t.mu.Unlock()
	return tf, nil
}

func (f *trackedFile) Write(p []byte) (int, error) {
	var t0 time.Time
	timed := f.t.timed.Load()
	if timed {
		t0 = time.Now()
	}
	n, err := f.File.Write(p)
	if timed {
		f.t.sample(&f.t.writeNs, time.Since(t0))
	}
	f.written.Add(int64(n))
	f.t.writes.Add(1)
	f.t.bytes.Add(int64(n))
	return n, err
}

func (f *trackedFile) Sync() error {
	// A sync covers the writes that completed before it began.
	covered := f.written.Load()
	var t0 time.Time
	timed := f.t.timed.Load()
	if timed {
		t0 = time.Now()
	}
	err := f.File.Sync()
	if timed {
		f.t.sample(&f.t.syncNs, time.Since(t0))
	}
	f.t.syncs.Add(1)
	if err == nil {
		for {
			cur := f.synced.Load()
			if covered <= cur || f.synced.CompareAndSwap(cur, covered) {
				break
			}
		}
	}
	return err
}

func (t *fileTracker) sample(dst *[]int64, d time.Duration) {
	t.mu.Lock()
	*dst = append(*dst, int64(d))
	t.mu.Unlock()
}

// takeSamples returns and clears the timed samples.
func (t *fileTracker) takeSamples() (writeNs, syncNs []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	writeNs, syncNs = t.writeNs, t.syncNs
	t.writeNs, t.syncNs = nil, nil
	return writeNs, syncNs
}

// syncedLengths snapshots every tracked segment's synced length.
func (t *fileTracker) syncedLengths() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.files))
	for path, f := range t.files {
		out[path] = f.synced.Load()
	}
	return out
}

// writtenByPath snapshots bytes written per segment path (for shard
// skew: the shard index is in the segment's name).
func (t *fileTracker) writtenByPath() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.files))
	for path, f := range t.files {
		out[path] = f.written.Load()
	}
	return out
}

// shipCounters sits in front of Publisher.Ship.
type shipCounters struct {
	groups, bytes atomic.Int64
}

func (s *shipCounters) wrap(ship func(first, last uint64, records int, frames []byte)) func(first, last uint64, records int, frames []byte) {
	return func(first, last uint64, records int, frames []byte) {
		s.groups.Add(1)
		s.bytes.Add(int64(len(frames)))
		ship(first, last, records, frames)
	}
}

// countingDedupe counts tokened replies on their way to the journal.
type countingDedupe struct {
	chirp.DedupeJournal
	appends atomic.Int64
}

func (d *countingDedupe) AppendDedupe(key string, reply []string) error {
	d.appends.Add(1)
	return d.DedupeJournal.AppendDedupe(key, reply)
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
