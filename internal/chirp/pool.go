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

// payloadScratch is a codec's reusable payload buffer. Each codec owns
// one for its lifetime (single-goroutine use), and the wrapper returns
// to scratchPool on codec release so connections recycle each other's
// grown buffers instead of allocating per call.
type payloadScratch struct{ buf []byte }

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
)

// Pool effectiveness counters, process-wide: a hit serves a payload
// from a codec's existing scratch capacity, a miss had to grow it.
// Servers mirror them into their registries (see session.recordReply).
var poolHits, poolMisses atomic.Int64
