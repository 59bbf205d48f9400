package chirp

import "sync"

// dedupeTable remembers replies to tokened requests so a client retry
// whose first attempt actually executed is answered from memory instead
// of re-executed. Keys are principal+token (never raw tokens: one
// client must not replay another's reply). The table is server-wide
// rather than per-session because the whole point of a token is to
// survive the session dying mid-exchange — the retry arrives on a new
// connection. Capacity is bounded FIFO in both entries and bytes: the
// oldest entry is evicted when either bound is reached, which is safe
// because tokens protect short retry windows, not long-term replay.
// The byte bound matters under principal churn — a parade of
// principals storing fat tokened replies must not grow the table
// without limit — though a single entry larger than the whole budget
// is still stored (dropping it would re-execute a retried mutation,
// breaking exactly-once; the next store evicts it).
type dedupeTable struct {
	mu        sync.Mutex
	cap       int
	maxBytes  int64
	entries   map[string]dedupeEntry
	order     []string // insertion order for FIFO eviction
	bytes     int64    // sum of entrySize over entries
	hits      int64
	evictions int64
}

type dedupeEntry struct {
	reply []string
	size  int64
}

// The server's table bounds.
const (
	dedupeTableEntries = 1024
	dedupeTableBytes   = 8 << 20
)

// newDedupeTable returns a table with the given bounds; zero or
// negative means the server's.
func newDedupeTable(capacity int, maxBytes int64) *dedupeTable {
	if capacity <= 0 {
		capacity = dedupeTableEntries
	}
	if maxBytes <= 0 {
		maxBytes = dedupeTableBytes
	}
	return &dedupeTable{cap: capacity, maxBytes: maxBytes, entries: make(map[string]dedupeEntry)}
}

func dedupeKey(principal, token string) string {
	return principal + "\x00" + token
}

// entrySize approximates an entry's memory footprint: key plus reply
// field bytes plus a small fixed overhead per field and entry.
func entrySize(key string, reply []string) int64 {
	n := int64(len(key)) + 64
	for _, f := range reply {
		n += int64(len(f)) + 16
	}
	return n
}

// lookup returns the stored reply fields for a key, if any.
func (t *dedupeTable) lookup(key string) ([]string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if ok {
		t.hits++
	}
	return e.reply, ok
}

// store records the reply for a key, evicting oldest entries while
// either the entry cap or the byte budget is exceeded. Re-storing an
// existing key refreshes the value without growing the order list. It
// returns the number of entries evicted, so the caller can advance a
// monotonic metric without re-deriving deltas.
func (t *dedupeTable) store(key string, reply []string) (evicted int) {
	size := entrySize(key, reply)
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, exists := t.entries[key]; exists {
		t.bytes -= old.size
	} else {
		for len(t.order) > 0 && (len(t.order) >= t.cap || t.bytes+size > t.maxBytes) {
			oldest := t.order[0]
			t.order = t.order[1:]
			t.bytes -= t.entries[oldest].size
			delete(t.entries, oldest)
			t.evictions++
			evicted++
		}
		t.order = append(t.order, key)
	}
	t.entries[key] = dedupeEntry{reply: append([]string(nil), reply...), size: size}
	t.bytes += size
	return evicted
}

func (t *dedupeTable) stats() (hits int64, size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, len(t.entries)
}

// byteStats reports the table's current footprint and lifetime
// evictions for the chirp_dedupe_bytes gauge and eviction counter.
func (t *dedupeTable) byteStats() (bytes int64, evictions int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes, t.evictions
}
