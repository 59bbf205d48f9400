// Package vclock provides deterministic virtual-time accounting for the
// simulated kernel and the identity-box supervisor.
//
// Every simulated process owns a Clock; kernel operations charge virtual
// microseconds to the calling process according to a CostModel. Because
// time is virtual, every experiment in this repository is exactly
// reproducible run-to-run, independent of host load.
//
// The default cost model is calibrated against the hardware used in the
// paper's evaluation (1545 MHz Athlon XP1800, Linux 2.4.20, ext3, warm
// buffer cache) so that the unmodified columns of Figure 5(a) land near
// the paper's measurements and the boxed columns emerge from the
// mechanism costs (six context switches, register fixups, peek/poke data
// movement, and the I/O-channel bulk copy) rather than being hard-coded.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Micros is a duration in virtual microseconds. A float is used because
// individual syscall costs on the paper's hardware are fractions of a
// microsecond (getpid is ~0.35 us).
type Micros float64

// Duration converts a virtual duration to a time.Duration for display.
func (m Micros) Duration() time.Duration {
	return time.Duration(float64(m) * float64(time.Microsecond))
}

// Seconds reports the duration in seconds.
func (m Micros) Seconds() float64 { return float64(m) / 1e6 }

// String renders the duration with microsecond units.
func (m Micros) String() string {
	switch {
	case m >= 1e6:
		return fmt.Sprintf("%.3fs", m.Seconds())
	case m >= 1e3:
		return fmt.Sprintf("%.3fms", float64(m)/1e3)
	default:
		return fmt.Sprintf("%.3fus", float64(m))
	}
}

// Clock accumulates virtual time for one simulated process. The zero
// value is a clock at time zero, ready to use.
type Clock struct {
	mu  sync.Mutex
	now Micros
}

// Now reports the clock's current virtual time.
func (c *Clock) Now() Micros {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d virtual microseconds. Negative
// advances are ignored: virtual time is monotone.
func (c *Clock) Advance(d Micros) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// Reset rewinds the clock to zero. Used between benchmark repetitions.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.now = 0
	c.mu.Unlock()
}

// CostModel holds the virtual cost, in microseconds, of each primitive
// operation in the simulated system. All higher-level costs (a boxed
// stat, a traced read through the I/O channel) are composed from these.
type CostModel struct {
	// Native (unmodified) syscall costs, charged when a process enters
	// the kernel directly. These correspond to the light bars of
	// Figure 5(a).
	SyscallFixed Micros // trap into kernel and back: every syscall pays this
	GetPID       Micros // additional work for getpid (nearly nothing)
	Stat         Micros // path resolution + inode copy
	Open         Micros // path resolution + fd allocation
	Close        Micros // fd release
	ReadFixed    Micros // per-call read overhead, excluding data copy
	WriteFixed   Micros // per-call write overhead, excluding data copy
	CopyPerByte  Micros // kernel<->user data copy cost per byte
	DirEntry     Micros // per directory entry scanned during lookup
	ProcessSpawn Micros // fork+exec of a child process
	ProcessWait  Micros // wait() bookkeeping

	// Tracing (identity box) mechanism costs; the dark bars of
	// Figure 5(a) emerge from these. See Figure 4 of the paper.
	ContextSwitch   Micros // one kernel<->process switch; six per traced call
	TrapDecode      Micros // supervisor decodes the stopped syscall frame
	PeekPokeWord    Micros // one ptrace PEEKDATA/POKEDATA word (4 bytes)
	PeekPokeSetup   Micros // fixed cost to start a peek/poke transfer
	ChannelPerByte  Micros // extra copy through the shared I/O channel
	ACLCheck        Micros // supervisor evaluates an access-control list
	SupervisorFixed Micros // per-call supervisor bookkeeping (fd table etc.)

	// Remote (Chirp) costs, used when the parrot driver forwards an
	// operation over the network instead of the local kernel.
	NetworkRTT     Micros // one request/response round trip on a LAN
	NetworkPerByte Micros // serialization + wire cost per byte
}

// Default returns the cost model calibrated against the paper's
// evaluation hardware. See DESIGN.md §2 for the calibration targets.
func Default() CostModel {
	return CostModel{
		SyscallFixed: 0.30,
		GetPID:       0.05,
		Stat:         1.70,
		Open:         1.60,
		Close:        0.80,
		ReadFixed:    0.60,
		WriteFixed:   0.80,
		CopyPerByte:  0.00065,
		DirEntry:     0.05,
		ProcessSpawn: 350,
		ProcessWait:  2.0,

		ContextSwitch:   1.00,
		TrapDecode:      0.80,
		PeekPokeWord:    0.12,
		PeekPokeSetup:   0.50,
		ChannelPerByte:  0.0011,
		ACLCheck:        1.10,
		SupervisorFixed: 0.90,

		NetworkRTT:     180,
		NetworkPerByte: 0.009,
	}
}
