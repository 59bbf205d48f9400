package vfs

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

// OpenHandle resolves path (following symlinks) and pins its inode.
func (fs *FS) OpenHandle(path string) (*Handle, error) {
	n, err := fs.resolveShared(path, true)
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
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if h.n.ftype == TypeDir {
		return 0, &PathError{"read", "(fd)", ErrIsDir}
	}
	if off < 0 {
		return 0, &PathError{"read", "(fd)", ErrInvalid}
	}
	h.n.mu.RLock()
	defer h.n.mu.RUnlock()
	if off >= int64(len(h.n.data)) {
		return 0, nil
	}
	return copy(p, h.n.data[off:]), nil
}

// WriteAt writes p at off, extending the file (zero-filled) as needed.
// A journaled write is attributed to the handle's open-time path; see
// the journal notes in DESIGN.md §3 for the rename-while-open caveat.
func (h *Handle) WriteAt(p []byte, off int64) (int, error) {
	return h.writeAt(p, off, 0)
}

// WriteAtTraced is WriteAt with a request-tracing ID stamped on the
// journaled mutation.
func (h *Handle) WriteAtTraced(p []byte, off int64, trace uint64) (int, error) {
	return h.writeAt(p, off, trace)
}

func (h *Handle) writeAt(p []byte, off int64, trace uint64) (int, error) {
	defer h.fs.endJournal(h.fs.beginJournal())
	if h.n.ftype == TypeDir {
		return 0, &PathError{"write", "(fd)", ErrIsDir}
	}
	if off < 0 {
		return 0, &PathError{"write", "(fd)", ErrInvalid}
	}
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(h.n.data)) {
		grown := make([]byte, end)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	copy(h.n.data[off:end], p)
	h.n.mtime.Store(h.fs.tick())
	h.fs.record(Mutation{Op: MutWrite, Path: h.path, Off: off, Data: p, Trace: trace})
	return len(p), nil
}

// Truncate sets the pinned file's length.
func (h *Handle) Truncate(size int64) error {
	return h.truncate(size, 0)
}

// TruncateTraced is Truncate with a request-tracing ID stamped on the
// journaled mutation.
func (h *Handle) TruncateTraced(size int64, trace uint64) error {
	return h.truncate(size, trace)
}

func (h *Handle) truncate(size int64, trace uint64) error {
	defer h.fs.endJournal(h.fs.beginJournal())
	if h.n.ftype == TypeDir {
		return &PathError{"truncate", "(fd)", ErrIsDir}
	}
	if size < 0 {
		return &PathError{"truncate", "(fd)", ErrInvalid}
	}
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	switch {
	case size <= int64(len(h.n.data)):
		h.n.data = h.n.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	h.n.mtime.Store(h.fs.tick())
	h.fs.record(Mutation{Op: MutTruncate, Path: h.path, Size: size, Trace: trace})
	return nil
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
