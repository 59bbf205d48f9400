package kernel

import (
	"errors"
	"sync"

	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Pipes and blocking I/O. The paper's Parrot supports inter-process
// communication and blocking system calls by parking the calling
// process while servicing others; here each simulated process is a
// goroutine, so a blocked reader simply waits on a condition variable
// until a writer supplies data, the last writer hangs up, or a signal
// kills it. Blocking wall time is not CPU time, so it does not advance
// the virtual clock.

// ErrPipe is returned when writing to a pipe with no readers (EPIPE).
var ErrPipe = errors.New("broken pipe")

// PipeCapacity is the in-kernel pipe buffer size.
const PipeCapacity = 65536

// pipe is the shared buffer between two PipeEnds.
type pipe struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte
	readers int
	writers int
	cap     int
}

// PipeEnd is one side of a pipe. Ends are created in pairs by NewPipe.
type PipeEnd struct {
	p     *pipe
	write bool

	mu     sync.Mutex
	closed bool
}

// NewPipe creates a connected pipe and returns its read and write ends.
// Supervisors use it to implement pipe() for traced processes.
func NewPipe(capacity int) (r, w *PipeEnd) {
	if capacity <= 0 {
		capacity = PipeCapacity
	}
	p := &pipe{cap: capacity, readers: 1, writers: 1}
	p.cond = sync.NewCond(&p.mu)
	return &PipeEnd{p: p}, &PipeEnd{p: p, write: true}
}

// Ref adds a reference to the end (dup, fork inheritance).
func (e *PipeEnd) Ref() {
	e.p.mu.Lock()
	if e.write {
		e.p.writers++
	} else {
		e.p.readers++
	}
	e.p.mu.Unlock()
}

// Close drops one reference; when the last writer goes, blocked readers
// see EOF; when the last reader goes, writers see EPIPE.
func (e *PipeEnd) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	// Note: a dup'd descriptor closes the shared end once; reference
	// counts added with Ref are dropped with Unref.
	e.closed = true
	e.mu.Unlock()
	e.Unref()
	return nil
}

// Unref drops a reference without marking this end object closed (used
// for inherited references held by other descriptors).
func (e *PipeEnd) Unref() {
	e.p.mu.Lock()
	if e.write {
		e.p.writers--
	} else {
		e.p.readers--
	}
	e.p.cond.Broadcast()
	e.p.mu.Unlock()
}

// Read blocks until data, EOF (no writers), or a fatal signal on p.
// The descriptor holding the end checks its direction (vfs.MayRead).
func (e *PipeEnd) Read(pr *Proc, b []byte) (int, error) {
	pp := e.p
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for {
		if pr != nil && pr.Killed() {
			return 0, ErrKilled
		}
		if len(pp.buf) > 0 {
			n := copy(b, pp.buf)
			pp.buf = pp.buf[n:]
			pp.cond.Broadcast()
			return n, nil
		}
		if pp.writers == 0 {
			return 0, nil // EOF
		}
		if len(b) == 0 {
			return 0, nil
		}
		e.waitInterruptible(pr)
	}
}

// Write blocks until all of b is accepted or there are no readers. The
// descriptor holding the end checks its direction (vfs.MayWrite).
func (e *PipeEnd) Write(pr *Proc, b []byte) (int, error) {
	pp := e.p
	pp.mu.Lock()
	defer pp.mu.Unlock()
	written := 0
	for written < len(b) {
		if pr != nil && pr.Killed() {
			return written, ErrKilled
		}
		if pp.readers == 0 {
			return written, ErrPipe
		}
		space := pp.cap - len(pp.buf)
		if space > 0 {
			n := len(b) - written
			if n > space {
				n = space
			}
			pp.buf = append(pp.buf, b[written:written+n]...)
			written += n
			pp.cond.Broadcast()
			continue
		}
		e.waitInterruptible(pr)
	}
	return written, nil
}

// waitInterruptible parks on the pipe's condition, registered so a
// fatal signal can wake the process. Callers hold pp.mu.
func (e *PipeEnd) waitInterruptible(pr *Proc) {
	if pr != nil {
		pr.setBlockedOn(e.p.cond)
		defer pr.setBlockedOn(nil)
	}
	e.p.cond.Wait()
}

// Buffered reports the bytes currently queued (for fstat and tests).
func (e *PipeEnd) Buffered() int {
	e.p.mu.Lock()
	defer e.p.mu.Unlock()
	return len(e.p.buf)
}

// pipeStat synthesizes fstat output for a pipe descriptor.
func pipeStat(e *PipeEnd) vfs.Stat {
	return vfs.Stat{Type: vfs.TypeRegular, Mode: 0o600, Nlink: 1, Size: int64(e.Buffered())}
}

// pipeIOCost prices one pipe transfer.
func pipeIOCost(m vclock.CostModel, n int) vclock.Micros {
	return m.SyscallFixed + m.ReadFixed + m.CopyPerByte*vclock.Micros(n)
}
