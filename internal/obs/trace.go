package obs

import (
	"fmt"
	"sync/atomic"
)

// Phase identifies one stage of the Figure-4 trapping protocol, as seen
// from the supervisor: the entry stop, the policy check, each data
// movement mechanism, and the three ways a trapped call completes
// (nullified, native, or rewritten onto the I/O channel).
type Phase uint8

const (
	PhaseTrapEntry      Phase = iota // child stopped at syscall entry
	PhaseACLCheck                    // supervisor evaluated an ACL
	PhasePeek                        // bytes peeked out of the child
	PhasePoke                        // bytes poked into the child
	PhaseChannelStage                // bulk data staged into the I/O channel
	PhaseChannelCollect              // bulk data collected from the I/O channel
	PhaseNullified                   // call completed by nullification (getpid rewrite)
	PhaseNative                      // call completed natively by the kernel
	PhaseChannelRead                 // call completed as a rewritten channel pread
	PhaseChannelWrite                // call completed as a rewritten channel pwrite

	phaseCount // keep last
)

var phaseNames = [...]string{
	PhaseTrapEntry:      "trap_entry",
	PhaseACLCheck:       "acl_check",
	PhasePeek:           "peek",
	PhasePoke:           "poke",
	PhaseChannelStage:   "channel_stage",
	PhaseChannelCollect: "channel_collect",
	PhaseNullified:      "nullified",
	PhaseNative:         "native",
	PhaseChannelRead:    "channel_read",
	PhaseChannelWrite:   "channel_write",
}

// Phases lists every phase in protocol order.
func Phases() []Phase {
	out := make([]Phase, phaseCount)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// String names the phase, e.g. "acl_check".
func (ph Phase) String() string {
	if int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return "phase?"
}

// Event is one phase occurrence during one trapped system call.
type Event struct {
	Seq   uint64  // emission order, monotone per Trace (numbered by Events)
	At    float64 // process virtual clock at emission, in ticks (µs)
	PID   int
	Sys   string // syscall name ("" for events emitted outside a frame)
	Path  string // path involved, when the phase has one
	Bytes int    // bytes moved, for data-movement phases
	Phase Phase
}

// String renders the event for logs: "#12 @6.90us pid=1 stat acl_check /data".
func (e Event) String() string {
	s := fmt.Sprintf("#%d @%.2fus pid=%d %s %s", e.Seq, e.At, e.PID, e.Sys, e.Phase)
	if e.Bytes > 0 {
		s += fmt.Sprintf(" %dB", e.Bytes)
	}
	if e.Path != "" {
		s += " " + e.Path
	}
	return s
}

// Trace is a bounded in-memory span/event recorder for the Figure-4
// protocol phases. Events land in a ring (newest overwrite oldest);
// per-phase totals are kept forever. All methods are safe on a nil
// *Trace, so instrumented code needs no enabled-checks.
type Trace struct {
	events *Ring[Event]
	counts [phaseCount]atomic.Int64
}

// DefaultTraceCapacity bounds the event ring when NewTrace is given no
// explicit capacity.
const DefaultTraceCapacity = 4096

// NewTrace creates a tracer holding up to capacity events (0 means
// DefaultTraceCapacity).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{events: NewRing[Event](capacity)}
}

// Emit records one event. Emit on a nil Trace is a no-op.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	if int(e.Phase) < int(phaseCount) {
		t.counts[e.Phase].Add(1)
	}
	t.events.Push(e)
}

// Events returns the retained events, oldest first, each numbered with
// its emission sequence (1 for the first event ever emitted).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	out, first := t.events.snapshot()
	for i := range out {
		out[i].Seq = first + uint64(i)
	}
	return out
}

// PhaseCount reports how many events of the phase were ever emitted
// (including any that have rotated out of the ring).
func (t *Trace) PhaseCount(ph Phase) int64 {
	if t == nil || int(ph) >= int(phaseCount) {
		return 0
	}
	return t.counts[ph].Load()
}

// Len reports how many events are currently retained.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.events.Len()
}
