// Package binenc holds the binary primitives shared by the two on-disk
// formats: the WAL record codec (internal/durable) and the snapshot
// image (internal/vfs). Integers are uvarints or zig-zag varints;
// strings and byte slices carry a uvarint length prefix. Reader walks
// such a byte stream with bounds checking.
package binenc

import "encoding/binary"

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Reader walks B from Off with bounds checking: any overrun or
// malformed varint sets Err, and every accessor returns a zero value
// thereafter, so a decoder checks Err once at the end.
type Reader struct {
	B   []byte
	Off int
	Err bool
}

// Len reports how many bytes remain unread.
func (r *Reader) Len() int { return len(r.B) - r.Off }

// Byte returns the next byte.
func (r *Reader) Byte() byte {
	if r.Err || r.Off >= len(r.B) {
		r.Err = true
		return 0
	}
	c := r.B[r.Off]
	r.Off++
	return c
}

// Uvarint returns the next uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.Err {
		return 0
	}
	v, n := binary.Uvarint(r.B[r.Off:])
	if n <= 0 {
		r.Err = true
		return 0
	}
	r.Off += n
	return v
}

// Varint returns the next zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.Err {
		return 0
	}
	v, n := binary.Varint(r.B[r.Off:])
	if n <= 0 {
		r.Err = true
		return 0
	}
	r.Off += n
	return v
}

// Bytes returns the next length-prefixed byte slice, aliasing B.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.Err || n > uint64(r.Len()) {
		r.Err = true
		return nil
	}
	p := r.B[r.Off : r.Off+int(n)]
	r.Off += int(n)
	return p
}

// Str returns the next length-prefixed string as a fresh copy.
func (r *Reader) Str() string { return string(r.Bytes()) }
