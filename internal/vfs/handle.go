package vfs

import "errors"

// Open flags, following the Unix convention. The kernel re-exports them.
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
	OExcl   = 0x80
)

// Access is what an open's flags grant: the one reading of its access
// mode that the kernel, the box, the server and the policy all share.
type Access uint8

const (
	MayRead   Access = 1 << iota // the descriptor may read
	MayWrite                     // the descriptor may write
	MayMutate                    // the open itself may change the tree: O_CREAT, or O_TRUNC with MayWrite
)

// OpenAccess reads the access an open with flags asks for. Access mode 3
// names none of O_RDONLY, O_WRONLY and O_RDWR: it grants nothing and is
// refused with ErrInvalid, before any permission check, as FreeBSD's
// open(2) refuses it.
func OpenAccess(flags int) (Access, error) {
	acc := [4]Access{ORdonly: MayRead, OWronly: MayWrite, ORdwr: MayRead | MayWrite}[flags&3]
	if acc == 0 {
		return 0, ErrInvalid
	}
	if flags&OCreat != 0 || acc&MayWrite != 0 && flags&OTrunc != 0 {
		acc |= MayMutate
	}
	return acc, nil
}

// Writes reports whether an open with this access is a write: it may
// write through its descriptor or change the tree. Such an open needs
// write permission, and a replica set serves it on its primary alone.
func (acc Access) Writes() bool { return acc&(MayWrite|MayMutate) != 0 }

// Handle pins an inode, giving file-descriptor semantics: I/O through a
// handle keeps working after the name is renamed or unlinked, exactly as
// an open fd does in Unix. The kernel's file-descriptor table and the
// identity-box supervisor's open-file table are built on handles.
//
// Handle I/O takes only the pinned inode's lock — never the namespace
// lock — so reads and writes through handles on distinct files proceed
// fully in parallel.
type Handle struct {
	fs   *FS
	n    *Inode
	path string // path at open time, used to attribute journaled writes
}

// OpenHandle resolves path (following symlinks) and pins its inode: a
// read-only OpenFile, which a directory passes too.
func (fs *FS) OpenHandle(path string) (*Handle, error) {
	return fs.OpenFile(path, ORdonly, 0, "")
}

// OpenFile is open(2)'s namespace rule in one step: OpenAccess reads the
// flags, O_CREAT makes a missing regular file with mode and owner,
// O_CREAT|O_EXCL refuses an existing one, O_TRUNC on a writable open
// empties the file, and a directory opens read-only only. Symlinks are
// followed. It journals at most one mutation (MutCreate for a file it
// made, MutTruncate for one it emptied), and an open without MayMutate
// takes no journal lock. Permission checks are the caller's.
func (fs *FS) OpenFile(path string, flags int, mode uint32, owner string) (*Handle, error) {
	return fs.Traced(0).OpenFile(path, flags, mode, owner)
}

// OpenFile is FS.OpenFile through the view. The existence test and
// what follows from it happen under one hold of the namespace lock, so
// two racing O_CREAT|O_EXCL opens of a missing name have one winner.
func (v TracedView) OpenFile(path string, flags int, mode uint32, owner string) (*Handle, error) {
	fs := v.fs
	acc, err := OpenAccess(flags)
	if err != nil {
		return nil, &PathError{"open", path, err}
	}
	if acc&MayMutate == 0 {
		fs.treeMu.RLock()
		defer fs.treeMu.RUnlock()
	} else {
		defer fs.endJournal(fs.beginJournal())
		fs.treeMu.Lock()
		defer fs.treeMu.Unlock()
	}
	if err := v.allow(); err != nil {
		return nil, err
	}
	n, parent, _, err := fs.resolve(path, true, 0)
	switch {
	case err != nil && flags&OCreat != 0 && parent != nil && errors.Is(err, ErrNotExist):
		n, err = fs.create(path, nil, mode, owner, v.trace)
	case err != nil:
	case flags&(OCreat|OExcl) == OCreat|OExcl:
		err = ErrExist
	case acc&MayWrite != 0 && n.ftype == TypeDir:
		err = ErrIsDir
	case acc&MayWrite != 0 && flags&OTrunc != 0:
		err = fs.edit(n, Mutation{Op: MutTruncate, Path: path, Trace: v.trace})
	}
	if err != nil {
		return nil, &PathError{"open", path, err}
	}
	return &Handle{fs: fs, n: n, path: Clean(path)}, nil
}

// Stat reports the pinned inode's metadata. The link count is read under
// the namespace lock, like any stat.
func (h *Handle) Stat() Stat {
	h.fs.treeMu.RLock()
	nlink := h.n.nlink
	h.fs.treeMu.RUnlock()
	return h.fs.statOf(h.n, nlink)
}

// IsDir reports whether the handle refers to a directory.
func (h *Handle) IsDir() bool { return h.n.ftype == TypeDir }

// ReadAt copies data starting at off into p. Reads at or past EOF return
// 0, nil.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) { return h.n.readAt("(fd)", p, off) }

// WriteAt writes p at off, extending the file (zero-filled) as needed.
// A journaled write is attributed to the handle's open-time path; see
// the journal notes in DESIGN.md §3 for the rename-while-open caveat.
func (h *Handle) WriteAt(p []byte, off int64) (int, error) {
	return h.WriteAtTraced(p, off, 0)
}

// WriteAtTraced is WriteAt with a request-tracing ID stamped on the
// journaled mutation.
func (h *Handle) WriteAtTraced(p []byte, off int64, trace uint64) (int, error) {
	defer h.fs.endJournal(h.fs.beginJournal())
	if err := h.fs.edit(h.n, Mutation{Op: MutWrite, Path: h.path, Off: off, Data: p, Trace: trace}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate sets the pinned file's length.
func (h *Handle) Truncate(size int64) error {
	defer h.fs.endJournal(h.fs.beginJournal())
	return h.fs.edit(h.n, Mutation{Op: MutTruncate, Path: h.path, Size: size})
}

// Size reports the current file length.
func (h *Handle) Size() int64 {
	if h.n.ftype == TypeSymlink {
		return int64(len(h.n.target))
	}
	h.n.mu.RLock()
	defer h.n.mu.RUnlock()
	return int64(len(h.n.data))
}
