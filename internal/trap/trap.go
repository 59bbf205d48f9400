// Package trap provides the data-movement machinery a supervisor uses on
// a stopped child: word-at-a-time peek/poke transfers and the shared
// I/O channel of Figure 4(b).
//
// Small amounts of data (registers, stat buffers, path strings) move by
// peeking and poking one word at a time, each word charged to the child.
// Bulk data moves through the I/O channel: an in-memory file shared
// between the supervisor and its children, in which each child has a
// region of its own. The supervisor copies data into the child's
// region, rewrites the child's read into a pread on the channel
// descriptor, and the kernel performs the final copy into the
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

// Channel is one child's region of the I/O channel, the in-memory file
// a supervisor moves bulk data through (Parrot's channel is one file
// for all children; a region per child keeps children that run at once
// out of each other's bytes). The zero value is ready to use and holds
// no memory until the first transfer: the region is then sized to the
// transfer, grown on demand, and never larger than DefaultChannelBytes.
// A Channel serves one child, whose calls arrive one at a time, so it
// takes no lock.
type Channel struct {
	buf []byte
}

// DefaultChannelBytes is the channel capacity: comfortably bigger than
// the largest single transfer in the evaluation (8 kB reads/writes).
const DefaultChannelBytes = 1 << 20

// region returns the first n bytes of the buffer, n truncated to the
// capacity, growing the buffer to at least twice its old size when it
// is too small.
func (c *Channel) region(n int) []byte {
	n = min(n, DefaultChannelBytes)
	if cap(c.buf) < n {
		c.buf = make([]byte, min(max(n, 2*cap(c.buf)), DefaultChannelBytes))
	}
	return c.buf[:n]
}

// StageRead copies data the supervisor fetched (from its driver) into
// the channel, charging the child for the extra copy, and returns the
// staged region for the kernel's final copy into the application buffer.
// Data longer than the channel is truncated to the channel size; callers
// loop for larger transfers.
func (c *Channel) StageRead(p *kernel.Proc, m vclock.CostModel, data []byte) []byte {
	region := c.region(len(data))
	n := copy(region, data)
	p.Charge(m.ChannelPerByte * vclock.Micros(n))
	return region
}

// ReserveWrite returns a channel region of up to n bytes for the kernel
// to copy application data into; the supervisor then completes the write
// from that region at syscall exit via CollectWrite.
func (c *Channel) ReserveWrite(n int) []byte { return c.region(n) }

// CollectWrite charges the child for the supervisor's copy out of the
// channel (toward its driver) and returns the data.
func (c *Channel) CollectWrite(p *kernel.Proc, m vclock.CostModel, region []byte) []byte {
	p.Charge(m.ChannelPerByte * vclock.Micros(len(region)))
	return region
}
