// Package trap provides the data-movement machinery a supervisor uses on
// a stopped child: word-at-a-time peek/poke transfers and the shared
// I/O channel of Figure 4(b).
//
// Small amounts of data (registers, stat buffers, path strings) move by
// peeking and poking one word at a time, each word charged to the child.
// Bulk data moves through the I/O channel: an in-memory file shared
// between the supervisor and all of its children. The supervisor copies
// data into the channel, rewrites the child's read into a pread on the
// channel descriptor, and the kernel performs the final copy into the
// application's buffer — one extra copy compared to a native read, which
// is exactly the overhead the paper measures on 8 kB transfers.
package trap

import (
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
)

// WordSize is the peek/poke transfer unit, matching the 32-bit ptrace
// word of the paper's evaluation platform.
const WordSize = 4

// words reports how many peek/poke words cover n bytes.
func words(n int) int { return (n + WordSize - 1) / WordSize }

// PeekPokeCost reports the virtual cost of moving n bytes of child
// memory by peek/poke.
func PeekPokeCost(m vclock.CostModel, n int) vclock.Micros {
	if n <= 0 {
		return 0
	}
	return m.PeekPokeSetup + m.PeekPokeWord*vclock.Micros(words(n))
}

// ChargePeek bills the child for the supervisor peeking n bytes of its
// memory (arguments, path strings).
func ChargePeek(p *kernel.Proc, m vclock.CostModel, n int) {
	p.Charge(PeekPokeCost(m, n))
}

// ChargePoke bills the child for the supervisor poking n bytes into its
// memory (results, stat buffers, small reads).
func ChargePoke(p *kernel.Proc, m vclock.CostModel, n int) {
	p.Charge(PeekPokeCost(m, n))
}

// PokeBytes copies data into the child's buffer word-at-a-time, charging
// the peek/poke cost, and reports bytes transferred. Supervisors use it
// for small results; bulk data should go through the Channel.
func PokeBytes(p *kernel.Proc, m vclock.CostModel, dst, src []byte) int {
	n := copy(dst, src)
	ChargePoke(p, m, n)
	return n
}

// PeekBytes copies data out of the child's buffer word-at-a-time,
// charging the peek/poke cost, and reports bytes transferred.
func PeekBytes(p *kernel.Proc, m vclock.CostModel, dst, src []byte) int {
	n := copy(dst, src)
	ChargePeek(p, m, n)
	return n
}

// BulkThreshold is the size above which a supervisor prefers the I/O
// channel over peek/poke. Below it, two word transfers cost less than
// staging the channel.
const BulkThreshold = 256

// Channel is the shared in-memory file used for bulk data movement
// between a supervisor and its children. One channel serves all children
// of a supervisor, as in Parrot.
type Channel struct {
	buf []byte
}

// DefaultChannelBytes is the channel buffer size: comfortably bigger than
// the largest single transfer in the evaluation (8 kB reads/writes).
const DefaultChannelBytes = 1 << 20

// NewChannel allocates an I/O channel of the given size (0 means
// DefaultChannelBytes).
func NewChannel(size int) *Channel {
	if size <= 0 {
		size = DefaultChannelBytes
	}
	return &Channel{buf: make([]byte, size)}
}

// Size reports the channel capacity in bytes.
func (c *Channel) Size() int { return len(c.buf) }

// StageRead copies data the supervisor fetched (from its driver) into
// the channel, charging the child for the extra copy, and returns the
// staged region for the kernel's final copy into the application buffer.
// Data longer than the channel is truncated to the channel size; callers
// loop for larger transfers.
func (c *Channel) StageRead(p *kernel.Proc, m vclock.CostModel, data []byte) []byte {
	n := copy(c.buf, data)
	p.Charge(m.ChannelPerByte * vclock.Micros(n))
	return c.buf[:n]
}

// ReserveWrite returns a channel region of up to n bytes for the kernel
// to copy application data into; the supervisor then completes the write
// from that region at syscall exit via CollectWrite.
func (c *Channel) ReserveWrite(n int) []byte {
	if n > len(c.buf) {
		n = len(c.buf)
	}
	return c.buf[:n]
}

// CollectWrite charges the child for the supervisor's copy out of the
// channel (toward its driver) and returns the data.
func (c *Channel) CollectWrite(p *kernel.Proc, m vclock.CostModel, region []byte) []byte {
	p.Charge(m.ChannelPerByte * vclock.Micros(len(region)))
	return region
}
