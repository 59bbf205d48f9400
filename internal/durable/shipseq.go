package durable

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// shipSeq resequences committed records from a sharded store into the
// single contiguous LSN stream the replication layer ships. Each
// shard's committer emits groups in its own commit order; group LSNs
// from different shards interleave, so the sequencer splits every
// group into record frames, buffers them by LSN, and emits maximal
// contiguous runs from the cursor onward. Emission happens under the
// sequencer lock so downstream sees runs in strict LSN order.
//
// Two sharding artifacts are erased here so a follower's log stays a
// clean single-shard history:
//
//   - A cross-shard record is committed by both of its shards and
//     would arrive twice; the second copy is dropped.
//   - Its FlagCrossShard bit is cleared (checksum recomputed): on the
//     follower the record lives in one log with no partner copy, and a
//     flagged-but-unpaired record is exactly what follower recovery
//     would discard as a half-committed cross write.
//
// A gap that never fills — a degraded shard dropped the LSN — parks
// the stream; compaction covers the hole with a snapshot and calls
// skipTo to resume past it.
type shipSeq struct {
	mu   sync.Mutex
	next uint64 // next LSN to emit
	buf  map[uint64][]byte
	sink func(first, last uint64, records int, frames []byte)
}

func newShipSeq(next uint64, sink func(first, last uint64, records int, frames []byte)) *shipSeq {
	return &shipSeq{next: next, buf: make(map[uint64][]byte), sink: sink}
}

// frameFlagsOff is the offset of a frame's flags byte: past the header
// and the body's version and type bytes. The LSN follows it.
const frameFlagsOff = frameHeaderLen + 2

// frameLSNFlags peeks one frame's LSN and flags without a full decode.
func frameLSNFlags(frame []byte) (lsn uint64, flags uint8, ok bool) {
	if len(frame) <= frameFlagsOff {
		return 0, 0, false
	}
	lsn, n := binary.Uvarint(frame[frameFlagsOff+1:])
	return lsn, frame[frameFlagsOff], n > 0
}

// ingest accepts one committed group's frames (any shard), buffers the
// new records and emits whatever became contiguous. The frames buffer
// is only read, never retained.
func (s *shipSeq) ingest(frames []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for off := 0; off+frameHeaderLen <= len(frames); {
		n := int(binary.LittleEndian.Uint32(frames[off : off+4]))
		end := off + frameHeaderLen + n
		if n > maxBodyLen || end > len(frames) {
			break // committer never writes torn groups; defensive only
		}
		frame := frames[off:end]
		off = end
		lsn, flags, ok := frameLSNFlags(frame)
		if !ok || lsn < s.next {
			continue // malformed (cannot happen) or duplicate cross copy
		}
		if _, dup := s.buf[lsn]; dup {
			continue // cross-shard partner already buffered
		}
		cp := append([]byte(nil), frame...)
		if flags&FlagCrossShard != 0 {
			cp[frameFlagsOff] &^= FlagCrossShard
			binary.LittleEndian.PutUint32(cp[4:8], crc32.ChecksumIEEE(cp[frameHeaderLen:]))
		}
		s.buf[lsn] = cp
	}
	s.flushLocked()
}

// skipTo advances the cursor past lsn (dropping anything buffered at
// or below it) and emits what became contiguous. Compaction calls this
// after a snapshot covered every allocated LSN, unsticking a stream
// parked on a degraded shard's hole.
func (s *shipSeq) skipTo(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for l := range s.buf {
		if l <= lsn {
			delete(s.buf, l)
		}
	}
	if s.next <= lsn {
		s.next = lsn + 1
	}
	s.flushLocked()
}

// flushLocked emits the maximal contiguous run starting at the cursor
// as one downstream group. Caller holds mu; the out-call happens under
// it so runs reach the sink in LSN order.
func (s *shipSeq) flushLocked() {
	first := s.next
	count := 0
	var out []byte
	for {
		frame, ok := s.buf[s.next]
		if !ok {
			break
		}
		delete(s.buf, s.next)
		out = append(out, frame...)
		count++
		s.next++
	}
	if count > 0 {
		s.sink(first, s.next-1, count, out)
	}
}
