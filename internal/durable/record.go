// Package durable makes a Chirp server's state survive crashes. It
// pairs a checksummed, length-prefixed write-ahead log — journaling
// every VFS namespace mutation, data write, ACL edit and tokened-reply
// dedupe entry — with periodic snapshot compaction (full tree image,
// atomic rename-into-place, WAL reset past the snapshot LSN). Recovery
// loads the newest snapshot, replays the WAL after its LSN, and
// truncates any torn or corrupt tail at the last valid record, so a
// crash at any byte of the log yields a state that is an exact prefix
// of the mutation history: no partial record is ever applied, and in
// particular no ACL is ever widened by one.
//
// Replay charges zero virtual ticks: it drives the VFS directly, below
// the kernel's cost model, so a recovered server's virtual clock
// position comes from the snapshot image, not from re-running history.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"identitybox/internal/vfs"
)

// Record types. Values 1..11 coincide with vfs.MutOp; DedupeType is the
// one record kind that is not a file-system mutation. Stable on disk:
// never renumber.
const (
	// DedupeType journals a tokened request's reply so retried
	// mutations stay exactly-once across a restart.
	DedupeType uint8 = 12
	// EpochType journals a replication epoch change: written when a
	// store becomes primary (first lease grant, or promotion after the
	// old primary's lease expired). The record rides the same LSN
	// sequence as mutations, so followers learn epochs from the
	// replicated stream itself and recovery restores the fence.
	EpochType uint8 = 13
)

// recVersion is the record-format version written into every record. A
// reader rejects any other version (treated as a torn tail, truncating
// the log there), so the format can evolve. Version 2 is version 1
// plus a flags byte after the type.
const recVersion = 2

// Record flag bits.
const (
	// FlagCrossShard marks a record that spans two journal shards (a
	// rename or link whose paths live in different top-level subtrees).
	// The record is appended to both shards' logs under the same LSN;
	// recovery applies it once, and treats a copy whose partner never
	// reached disk as uncommitted (see the cross-shard commit protocol
	// in DESIGN.md §15).
	FlagCrossShard uint8 = 1 << 0
)

// maxBodyLen bounds a single record body (a data write is capped at
// 4 MiB by the Chirp wire protocol; 8 MiB leaves headroom for framing
// and paths) so a corrupt length prefix cannot force a huge allocation.
const maxBodyLen = 8 << 20

// frameHeaderLen is the fixed per-record prefix: u32 body length then
// u32 CRC32 (IEEE) of the body.
const frameHeaderLen = 8

// Record is one WAL entry: either a VFS mutation or a dedupe entry.
type Record struct {
	LSN   uint64
	Type  uint8 // vfs.MutOp value, or DedupeType
	Flags uint8 // FlagCrossShard et al

	// Mut holds the mutation for types 1..11. Data is an owned copy.
	Mut vfs.Mutation

	// DedupeKey/DedupeReply hold the dedupe entry for DedupeType.
	DedupeKey   string
	DedupeReply []string

	// Epoch holds the new replication epoch for EpochType.
	Epoch uint64
}

// IsMutation reports whether the record is a VFS mutation.
func (r Record) IsMutation() bool { return r.Type >= 1 && r.Type <= 11 }

// ErrTorn marks a log tail that could not be decoded: a short frame, a
// checksum mismatch, an unknown version or type, or a malformed body.
// Replay treats it as the crash point and truncates the log there.
var ErrTorn = errors.New("durable: torn or corrupt record")

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes appends a length-prefixed byte slice.
func appendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// bodyPool recycles encode scratch across EncodeRecord calls so the
// framer does not allocate a fresh body buffer per record. Buffers that
// grew past maxPooledBody are dropped rather than pinned in the pool.
var bodyPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

const maxPooledBody = 1 << 20

// EncodeRecord appends the framed wire form of rec to dst and returns
// the extended slice.
func EncodeRecord(dst []byte, rec Record) []byte {
	bp := bodyPool.Get().(*[]byte)
	body := (*bp)[:0]
	body = append(body, recVersion, rec.Type, rec.Flags)
	body = binary.AppendUvarint(body, rec.LSN)
	switch {
	case rec.IsMutation():
		m := rec.Mut
		body = appendString(body, m.Path)
		body = appendString(body, m.Path2)
		body = binary.AppendUvarint(body, uint64(m.Mode))
		body = appendString(body, m.Owner)
		body = appendString(body, m.Group)
		body = binary.AppendVarint(body, m.Off)
		body = binary.AppendVarint(body, m.Size)
		body = appendBytes(body, m.Data)
	case rec.Type == DedupeType:
		body = appendString(body, rec.DedupeKey)
		body = binary.AppendUvarint(body, uint64(len(rec.DedupeReply)))
		for _, f := range rec.DedupeReply {
			body = appendString(body, f)
		}
	case rec.Type == EpochType:
		body = binary.AppendUvarint(body, rec.Epoch)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	dst = append(dst, hdr[:]...)
	dst = append(dst, body...)
	if cap(body) <= maxPooledBody {
		*bp = body
		bodyPool.Put(bp)
	}
	return dst
}

// bodyReader walks a record body with bounds checking; any overrun
// flips err, and every accessor returns a zero value thereafter.
type bodyReader struct {
	b   []byte
	off int
	err bool
}

func (r *bodyReader) byte() byte {
	if r.err || r.off >= len(r.b) {
		r.err = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *bodyReader) uvarint() uint64 {
	if r.err {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

func (r *bodyReader) varint() int64 {
	if r.err {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.off += n
	return v
}

func (r *bodyReader) bytes() []byte {
	n := r.uvarint()
	if r.err || n > uint64(len(r.b)-r.off) {
		r.err = true
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *bodyReader) string() string { return string(r.bytes()) }

// decodeBody parses one record body (already checksum-verified).
func decodeBody(body []byte) (Record, error) {
	r := bodyReader{b: body}
	ver := r.byte()
	typ := r.byte()
	if r.err || ver != recVersion {
		return Record{}, fmt.Errorf("%w: version %d", ErrTorn, ver)
	}
	rec := Record{Type: typ, Flags: r.byte()}
	rec.LSN = r.uvarint()
	switch {
	case rec.IsMutation():
		rec.Mut.Op = vfs.MutOp(typ)
		rec.Mut.Path = r.string()
		rec.Mut.Path2 = r.string()
		rec.Mut.Mode = uint32(r.uvarint())
		rec.Mut.Owner = r.string()
		rec.Mut.Group = r.string()
		rec.Mut.Off = r.varint()
		rec.Mut.Size = r.varint()
		rec.Mut.Data = append([]byte(nil), r.bytes()...)
	case typ == DedupeType:
		rec.DedupeKey = r.string()
		n := r.uvarint()
		if n > uint64(len(body)) { // each field takes >= 1 byte
			return Record{}, fmt.Errorf("%w: dedupe field count %d", ErrTorn, n)
		}
		rec.DedupeReply = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			rec.DedupeReply = append(rec.DedupeReply, r.string())
		}
	case typ == EpochType:
		rec.Epoch = r.uvarint()
	default:
		return Record{}, fmt.Errorf("%w: unknown type %d", ErrTorn, typ)
	}
	if r.err {
		return Record{}, fmt.Errorf("%w: truncated body", ErrTorn)
	}
	if r.off != len(body) {
		return Record{}, fmt.Errorf("%w: %d trailing body bytes", ErrTorn, len(body)-r.off)
	}
	return rec, nil
}

// DecodeRecord parses the first framed record in b. It returns the
// record and the number of bytes consumed. Any defect — short frame,
// bad checksum, bad version, malformed body — returns an error wrapping
// ErrTorn and consumes nothing; DecodeRecord never panics on arbitrary
// input, and never returns a record whose checksum did not verify.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: short frame header", ErrTorn)
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > maxBodyLen {
		return Record{}, 0, fmt.Errorf("%w: body length %d exceeds limit", ErrTorn, n)
	}
	if uint64(len(b)-frameHeaderLen) < uint64(n) {
		return Record{}, 0, fmt.Errorf("%w: short body", ErrTorn)
	}
	body := b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrTorn)
	}
	rec, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeaderLen + int(n), nil
}

// DecodeAll parses records until the log ends or turns torn. It returns
// the decoded records, the byte offset just past the last valid record
// (the truncation point for a torn log), and whether a torn tail was
// found. It never fails: a fully unreadable log is simply zero records.
func DecodeAll(b []byte) (recs []Record, validBytes int64, torn bool) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:])
		if err != nil {
			return recs, int64(off), true
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), false
}
