package vfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"identitybox/internal/binenc"
)

// Snapshot support: WriteImage serializes the whole file system —
// hard-link sharing, symlinks, owners, modes and mtimes — with the
// metadata a durable store binds to it, and ReadImage rebuilds both.
// A Chirp server's store compacts into such an image, so visiting
// users' data, and the ACLs protecting it, survive server restarts:
// the "return" property across service lifetimes.
//
// An image is one binary stream, written in one pass straight from the
// inodes:
//
//	magic    "IBOXSNAP"
//	version  one byte (imageVersion)
//	lsn      uvarint
//	epoch    uvarint
//	dedupe   uvarint count, then per entry: key, uvarint field count, fields
//	root     inode record, id 1
//	clock    varint
//	crc      uint32 little-endian: CRC32 (IEEE) of every byte before it
//
// An inode record is its id (uvarint), type and mode (uvarints), owner
// and group, mtime (varint), then a regular file's data, a symlink's
// target, or a directory's uvarint entry count and entries. An entry is
// a name and then either the child's whole record, in pre-order, when
// its id is the next unused one, or only the id of an earlier
// non-directory record: a hard link. Strings and data carry a uvarint
// length (internal/binenc).

const (
	imageMagic   = "IBOXSNAP"
	imageVersion = 1
	// imageBufSize is the one buffer an encode stages bytes in; file
	// data of half its size or more bypasses it.
	imageBufSize = 64 << 10
	// minEntryLen is the fewest bytes a directory or dedupe entry takes:
	// a length byte and one more uvarint.
	minEntryLen = 2
)

// ErrNotImage reports input that does not begin with the image magic:
// not a snapshot image, or one in the gob encoding used before this
// format, which nothing reads any more.
var ErrNotImage = errors.New("vfs: no snapshot image magic")

// ImageMeta is what an image carries besides the tree: the log position
// it covers, the replication epoch, and the table of tokened replies.
// The file system stores them and never interprets them.
type ImageMeta struct {
	LSN    uint64
	Epoch  uint64
	Dedupe map[string][]string
}

// Save writes an image of the file system with empty metadata.
func (fs *FS) Save(w io.Writer) error {
	_, err := fs.WriteImage(w, ImageMeta{})
	return err
}

// Load reads an image written by Save or WriteImage and rebuilds its
// file system, dropping the metadata.
func Load(r io.Reader) (*FS, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("vfs: reading snapshot: %w", err)
	}
	fs, _, err := ReadImage(b)
	return fs, err
}

// WriteImage streams an image of the file system and meta to w and
// reports the bytes written. The namespace lock is held shared across
// the walk, freezing the tree shape, and each inode's own lock while
// its fields and data are written. Fields and small files pass through
// one staging buffer; data of half its size or more goes to w straight
// from the inode's slice. The only allocations are that buffer and the
// ids of hard-linked files.
func (fs *FS) WriteImage(w io.Writer, meta ImageMeta) (int64, error) {
	iw := imageWriter{w: w, buf: make([]byte, 0, imageBufSize)}
	iw.buf = append(iw.buf, imageMagic...)
	iw.buf = append(iw.buf, imageVersion)
	iw.uvarint(meta.LSN)
	iw.uvarint(meta.Epoch)
	iw.uvarint(uint64(len(meta.Dedupe)))
	for key, fields := range meta.Dedupe {
		iw.str(key)
		iw.uvarint(uint64(len(fields)))
		for _, f := range fields {
			iw.str(f)
		}
	}
	fs.treeMu.RLock()
	iw.next = 1
	iw.uvarint(1)
	iw.inode(fs.root)
	iw.varint(fs.clock.Load())
	fs.treeMu.RUnlock()
	iw.flush()
	iw.buf = binary.LittleEndian.AppendUint32(iw.buf, iw.crc)
	iw.flush()
	return iw.n, iw.err
}

// imageWriter stages an image in one fixed buffer, folding every byte
// into the running checksum as it leaves. The first write error sticks
// and silences the rest.
type imageWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error

	next uint64            // the last inode id assigned
	ids  map[*Inode]uint64 // written hard-linked non-directories
}

func (iw *imageWriter) emit(p []byte) {
	if iw.err != nil {
		return
	}
	iw.crc = crc32.Update(iw.crc, crc32.IEEETable, p)
	n, err := iw.w.Write(p)
	iw.n += int64(n)
	iw.err = err
}

func (iw *imageWriter) flush() {
	iw.emit(iw.buf)
	iw.buf = iw.buf[:0]
}

// room flushes unless n more bytes fit in the buffer.
func (iw *imageWriter) room(n int) {
	if cap(iw.buf)-len(iw.buf) < n {
		iw.flush()
	}
}

func (iw *imageWriter) uvarint(v uint64) {
	iw.room(binary.MaxVarintLen64)
	iw.buf = binary.AppendUvarint(iw.buf, v)
}

func (iw *imageWriter) varint(v int64) {
	iw.room(binary.MaxVarintLen64)
	iw.buf = binary.AppendVarint(iw.buf, v)
}

func (iw *imageWriter) str(s string) {
	iw.room(binary.MaxVarintLen64 + len(s))
	iw.buf = binenc.AppendString(iw.buf, s)
}

func (iw *imageWriter) data(p []byte) {
	if len(p) >= cap(iw.buf)/2 {
		iw.uvarint(uint64(len(p)))
		iw.flush()
		iw.emit(p)
		return
	}
	iw.room(binary.MaxVarintLen64 + len(p))
	iw.buf = binenc.AppendBytes(iw.buf, p)
}

// inode writes n's record after its id, and its subtree. The caller
// holds the namespace lock shared.
func (iw *imageWriter) inode(n *Inode) {
	if iw.err != nil {
		return
	}
	iw.uvarint(uint64(n.ftype))
	n.mu.RLock()
	iw.uvarint(uint64(n.mode))
	iw.str(n.owner)
	iw.str(n.group)
	iw.varint(n.mtime.Load())
	if n.ftype == TypeRegular {
		iw.data(n.data)
	}
	n.mu.RUnlock()
	switch n.ftype {
	case TypeSymlink:
		iw.str(n.target)
	case TypeDir:
		iw.uvarint(uint64(len(n.children)))
		for name, c := range n.children {
			iw.str(name)
			if c.ftype != TypeDir && c.nlink > 1 {
				if id, ok := iw.ids[c]; ok {
					iw.uvarint(id)
					continue
				}
				if iw.ids == nil {
					iw.ids = make(map[*Inode]uint64)
				}
				iw.ids[c] = iw.next + 1
			}
			iw.next++
			iw.uvarint(iw.next)
			iw.inode(c)
		}
	}
}

// ReadImage rebuilds a file system and its metadata from an image. It
// verifies the checksum before it builds anything and never allocates
// more than the remaining input can describe, so arbitrary bytes yield
// an error, never a panic or an outsized allocation. Input without the
// image magic fails with ErrNotImage. The file system shares no memory
// with b.
func ReadImage(b []byte) (*FS, ImageMeta, error) {
	if len(b) < len(imageMagic) || string(b[:len(imageMagic)]) != imageMagic {
		return nil, ImageMeta{}, ErrNotImage
	}
	if len(b) < len(imageMagic)+1+4 {
		return nil, ImageMeta{}, errors.New("vfs: snapshot image truncated")
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, ImageMeta{}, errors.New("vfs: snapshot image checksum mismatch: corrupt or truncated")
	}
	d := imageReader{Reader: binenc.Reader{B: body, Off: len(imageMagic)}}
	if v := d.Byte(); v != imageVersion {
		return nil, ImageMeta{}, fmt.Errorf("vfs: unsupported snapshot image version %d", v)
	}
	meta, err := d.meta()
	if err != nil {
		return nil, ImageMeta{}, err
	}
	root, err := d.tree()
	if err != nil {
		return nil, ImageMeta{}, err
	}
	clock := d.Varint()
	switch {
	case d.Err:
		return nil, ImageMeta{}, errors.New("vfs: snapshot image truncated")
	case d.Len() != 0:
		return nil, ImageMeta{}, fmt.Errorf("vfs: snapshot image has %d trailing bytes", d.Len())
	case clock < d.maxMtime:
		// Ticks are never reused: a clock behind an mtime would let a
		// later write repeat a content version (see Inode).
		return nil, ImageMeta{}, fmt.Errorf("vfs: snapshot image clock %d behind mtime %d", clock, d.maxMtime)
	}
	fs := &FS{root: root}
	fs.clock.Store(clock)
	return fs, meta, nil
}

// imageReader decodes the body of an image whose checksum verified.
type imageReader struct {
	binenc.Reader
	nodes    []*Inode // decoded inodes, by id-1
	pending  uint64   // directory entries announced and not yet read
	maxMtime int64
}

func (d *imageReader) meta() (ImageMeta, error) {
	meta := ImageMeta{LSN: d.Uvarint(), Epoch: d.Uvarint()}
	n := d.Uvarint()
	if n > uint64(d.Len()/minEntryLen) {
		return ImageMeta{}, fmt.Errorf("vfs: snapshot image dedupe count %d exceeds its input", n)
	}
	meta.Dedupe = make(map[string][]string, n)
	for i := uint64(0); i < n && !d.Err; i++ {
		key := d.Str()
		nf := d.Uvarint()
		if nf > uint64(d.Len()) { // each field takes its length byte
			return ImageMeta{}, fmt.Errorf("vfs: snapshot image dedupe field count %d exceeds its input", nf)
		}
		fields := make([]string, nf)
		for j := range fields {
			fields[j] = d.Str()
		}
		meta.Dedupe[key] = fields
	}
	if d.Err {
		return ImageMeta{}, errors.New("vfs: snapshot image truncated in its dedupe table")
	}
	return meta, nil
}

// tree decodes the pre-order inode stream from the root's id onward,
// iteratively, so a deep tree cannot exhaust the stack, and recounts
// link counts: a directory's entry in its parent, its own "." and each
// subdirectory's "..".
func (d *imageReader) tree() (*Inode, error) {
	if id := d.Uvarint(); id != 1 {
		return nil, fmt.Errorf("vfs: snapshot image root has id %d, want 1", id)
	}
	root, entries, err := d.inode()
	if err != nil {
		return nil, err
	}
	if root.ftype != TypeDir {
		return nil, errors.New("vfs: snapshot image root is not a directory")
	}
	root.nlink = 2 // "." and the notional parent
	type openDir struct {
		n    *Inode
		left uint64
	}
	stack := []openDir{{root, entries}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.left == 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		top.left--
		d.pending--
		dir := top.n
		name := d.Str()
		id := d.Uvarint()
		if d.Err {
			return nil, errors.New("vfs: snapshot image truncated in a directory")
		}
		if name == "" || name == "." || name == ".." || strings.IndexByte(name, '/') >= 0 {
			return nil, fmt.Errorf("vfs: snapshot image has invalid entry name %q", name)
		}
		if _, dup := dir.children[name]; dup {
			return nil, fmt.Errorf("vfs: snapshot image repeats entry name %q", name)
		}
		var child *Inode
		switch {
		case id == uint64(len(d.nodes))+1:
			c, entries, err := d.inode()
			if err != nil {
				return nil, err
			}
			if c.ftype == TypeDir {
				dir.nlink++ // its ".."
				c.nlink++   // its own "."
				stack = append(stack, openDir{c, entries})
			}
			child = c
		case id >= 1 && id <= uint64(len(d.nodes)) && d.nodes[id-1].ftype != TypeDir:
			child = d.nodes[id-1]
		default:
			return nil, fmt.Errorf("vfs: snapshot image entry %q names inode %d, neither the next one nor an earlier non-directory", name, id)
		}
		child.nlink++
		dir.children[name] = child
	}
	return root, nil
}

// inode decodes one record after its id, appending it to d.nodes, and
// reports how many entries a directory announced.
func (d *imageReader) inode() (*Inode, uint64, error) {
	typ := d.Uvarint()
	mode := d.Uvarint()
	n := &Inode{ino: nextIno(), ftype: FileType(typ), mode: uint32(mode), owner: d.Str(), group: d.Str()}
	mtime := d.Varint()
	n.mtime.Store(mtime)
	d.maxMtime = max(d.maxMtime, mtime)
	var entries uint64
	switch n.ftype {
	case TypeRegular:
		n.data = append([]byte(nil), d.Bytes()...)
	case TypeSymlink:
		n.target = d.Str()
	case TypeDir:
		entries = d.Uvarint()
		if entries > uint64(d.Len()/minEntryLen) || d.pending+entries > uint64(d.Len()/minEntryLen) {
			return nil, 0, fmt.Errorf("vfs: snapshot image directory announces %d entries, more than its input holds", entries)
		}
		d.pending += entries
		n.children = make(map[string]*Inode, entries)
	}
	switch {
	case d.Err:
		return nil, 0, errors.New("vfs: snapshot image truncated in an inode")
	case typ > uint64(TypeSymlink):
		return nil, 0, fmt.Errorf("vfs: snapshot image has unknown inode type %d", typ)
	case mode > math.MaxUint32:
		return nil, 0, fmt.Errorf("vfs: snapshot image has mode %#x out of range", mode)
	}
	d.nodes = append(d.nodes, n)
	return n, entries, nil
}

// Restore replaces fs's tree with from's in place, under the exclusive
// tree lock: every holder of fs sees the old tree or the new one, never
// a mix. The clock only moves forward, so no tick is reused, even on an
// old inode an open handle still reaches. from must be fresh from Load
// or ReadImage and unused afterwards; fs keeps its journal.
func (fs *FS) Restore(from *FS) {
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	fs.root = from.root
	c := from.clock.Load()
	for cur := fs.clock.Load(); c > cur && !fs.clock.CompareAndSwap(cur, c); cur = fs.clock.Load() {
	}
}
