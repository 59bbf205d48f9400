package obs

import "sync"

// Ring is a fixed-capacity buffer of the most recent values pushed,
// overwriting the oldest once full. It is safe for concurrent use, and
// Push allocates nothing: the buffer is sized once, by NewRing, so a
// ring can sit on a per-syscall or per-request path.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   uint64 // values ever pushed; the next one lands in buf[n%len(buf)]
}

// NewRing creates a ring holding up to capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push stores v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = v
	r.n++
	r.mu.Unlock()
}

// Snapshot returns the retained values, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out, _ := r.snapshot()
	return out
}

// snapshot is Snapshot plus the push sequence number (1-based) of
// out[0], taken under the same lock, so each value's number is first+i.
func (r *Ring[T]) snapshot() (out []T, first uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	if r.n <= size {
		out = make([]T, r.n)
		copy(out, r.buf[:r.n])
		return out, 1
	}
	next := r.n % size
	out = make([]T, 0, size)
	out = append(out, r.buf[next:]...)
	out = append(out, r.buf[:next]...)
	return out, r.n - size + 1
}

// Len reports how many values are retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.n, uint64(len(r.buf))))
}

// Dropped reports how many values were evicted to make room.
func (r *Ring[T]) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(r.n - min(r.n, uint64(len(r.buf))))
}
