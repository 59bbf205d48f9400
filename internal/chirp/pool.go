package chirp

import (
	"bufio"
	"sync"
	"sync/atomic"
)

// MaxPayload is the protocol's maximum counted-payload size: no request
// or reply body may exceed it, and the codec refuses wire-supplied
// lengths above it before allocating anything — a hostile peer cannot
// force a huge allocation by announcing one.
const MaxPayload = 1 << 22

// wireBufSize sizes the pooled bufio readers and writers. 32 KiB fits
// the common pread/pwrite chunk (64 KiB bodies still pass through in
// two fills) without pinning much memory per idle connection.
const wireBufSize = 32 << 10

// payloadScratch is the reusable buffers of one goroutine on the wire
// path: a payload buffer, and beside it (a different buffer, so a reply
// line never overlaps the body it announces) the line a server handler
// encodes its reply into. Each codec owns one for its lifetime, each v2
// lane worker one more, and the wrapper returns to scratchPool on
// release so connections recycle each other's grown buffers instead of
// allocating per call.
type payloadScratch struct {
	buf  []byte
	line lineBuf
}

// ok begins a success reply in the scratch's line.
func (ps *payloadScratch) ok() *lineBuf { return ps.line.start("ok") }

// bytes returns an n-byte view of the scratch, growing it if needed and
// counting the hit or miss. The view is only valid until the next call.
func (ps *payloadScratch) bytes(n int) []byte {
	if cap(ps.buf) >= n {
		poolHits.Add(1)
	} else {
		poolMisses.Add(1)
		ps.buf = make([]byte, n)
	}
	return ps.buf[:n]
}

var (
	brPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, wireBufSize) }}
	bwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, wireBufSize) }}

	scratchPool = sync.Pool{New: func() any {
		return &payloadScratch{buf: make([]byte, 0, 64<<10)}
	}}

	// linePool holds the client's request lines: Client.do takes one per
	// logical call and returns it when the call is over.
	linePool = sync.Pool{New: func() any { return new(lineBuf) }}
)

// Pool effectiveness counters, process-wide: a hit serves a payload
// from a codec's existing scratch capacity, a miss had to grow it.
// Servers expose them in their registries as sampled gauges.
var poolHits, poolMisses atomic.Int64
