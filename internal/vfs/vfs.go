// Package vfs implements an in-memory POSIX-like file system: the
// storage substrate beneath the simulated kernel and beneath every Chirp
// server in this repository.
//
// The file system supports regular files, directories, symbolic links
// and hard links, Unix permission bits with string owners, rename,
// truncate and deterministic (sorted) directory listing. It is safe for
// concurrent use and built to scale with cores: a read-mostly namespace
// lock covers path resolution and the directory tree, while file
// contents and mutable metadata are guarded per inode, so independent
// requests — a read of one file, a write of another, a stat of a third —
// proceed in parallel. See DESIGN.md §5 for the locking hierarchy.
//
// Access control is intentionally split: the VFS enforces nothing by
// itself. Unix-permission checks and ACL checks are made by the callers
// (the kernel for ordinary processes; the identity-box supervisor for
// boxed processes), mirroring how Parrot sits above the real kernel. A
// caller may hand a step its check as a Guard, which the step runs
// under its own lock (the Chirp server does).
package vfs

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// FileType distinguishes the kinds of inode.
type FileType int

const (
	TypeRegular FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return "unknown"
	}
}

// Sentinel errors, in the spirit of errno.
var (
	ErrNotExist    = errors.New("no such file or directory")
	ErrExist       = errors.New("file exists")
	ErrNotDir      = errors.New("not a directory")
	ErrIsDir       = errors.New("is a directory")
	ErrNotEmpty    = errors.New("directory not empty")
	ErrInvalid     = errors.New("invalid argument")
	ErrLoop        = errors.New("too many levels of symbolic links")
	ErrPermission  = errors.New("permission denied")
	ErrCrossDevice = errors.New("invalid cross-device link")
	ErrTooBig      = errors.New("file too large")
)

// PathError annotates an error with the operation and path, matching the
// style of os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap supports errors.Is against the sentinel errors.
func (e *PathError) Unwrap() error { return e.Err }

const maxSymlinks = 40

// inoCounter is the global inode-number source, shared across file
// systems so handles are never confused between instances.
var inoCounter atomic.Uint64

func nextIno() uint64 { return inoCounter.Add(1) }

// Inode is one file-system object.
//
// Field ownership (the locking hierarchy is FS.treeMu before Inode.mu;
// at most one inode lock is ever held at a time):
//
//   - ino, ftype, target: immutable after creation, read lock-free;
//   - children, nlink: namespace state, guarded by FS.treeMu;
//   - mode, owner, group, data: guarded by this inode's mu;
//   - mtime: updated and read atomically (writers may hold either lock).
//     Invariant: every writer of data publishes a fresh tick of the FS
//     clock to mtime before it releases mu (every write but a new
//     file's first contents goes through FS.edit, which does so). Ticks
//     are never reused and neither are inode numbers, so under mu
//     (shared or exclusive) the pair (inode, mtime) names one content
//     version exactly;
//   - memo: a value derived from data, stamped with the mtime it was
//     derived at; written and read atomically, valid only while the
//     stamp equals mtime (see FS.MemoIn). Dies with the inode.
//
// Callers outside this package must treat inodes as opaque except
// through FS methods and the Stat result.
type Inode struct {
	ino    uint64   // immutable
	ftype  FileType // immutable
	target string   // symlink target; immutable

	mu    sync.RWMutex // guards mode, owner, group, data
	mode  uint32
	owner string
	group string
	data  []byte

	nlink    int               // guarded by FS.treeMu
	children map[string]*Inode // guarded by FS.treeMu

	mtime atomic.Int64 // virtual timestamp, monotonic event counter
	memo  atomic.Pointer[memoEntry]
}

// memoEntry is one value derived from an inode's data at content
// version mtime.
type memoEntry struct {
	mtime int64
	val   any
}

// Stat is the metadata snapshot returned by stat-family calls.
type Stat struct {
	Ino   uint64
	Type  FileType
	Mode  uint32
	Owner string
	Group string
	Nlink int
	Size  int64
	Mtime int64
}

// IsDir reports whether the stat describes a directory.
func (s Stat) IsDir() bool { return s.Type == TypeDir }

// DirEntry is one directory-listing element.
type DirEntry struct {
	Name string
	Type FileType
}

// FS is an in-memory file system rooted at "/". Create one with New.
//
// Locking: treeMu is the read-mostly namespace lock, taken shared for
// path resolution and directory listing and exclusively only by
// operations that change the tree shape (create, unlink, mkdir, rmdir,
// link, symlink, rename). Per-file I/O by path resolves under the
// shared lock and keeps it through the target inode's own lock, so
// data operations on distinct files run fully in parallel and a step's
// Guard decides on the tree the step acts on.
type FS struct {
	treeMu sync.RWMutex
	root   *Inode
	clock  atomic.Int64 // monotonic event counter used for mtimes

	// journalMu serializes journaled mutations, so the journal sees one
	// commit order. Untouched (and uncontended) when journal is nil.
	// journal is set once via SetJournal before concurrent use.
	// Lock order: journalMu before treeMu before any inode mu.
	journalMu sync.Mutex
	journal   Journal
}

// New returns an empty file system whose root directory is owned by
// owner with mode 0755.
func New(owner string) *FS {
	fs := &FS{}
	fs.root = &Inode{
		ino:      nextIno(),
		ftype:    TypeDir,
		mode:     0o755,
		owner:    owner,
		nlink:    2,
		children: make(map[string]*Inode),
	}
	return fs
}

func (fs *FS) tick() int64 { return fs.clock.Add(1) }

// SplitPath cleans an absolute slash-separated path into components.
// "" and "/" yield an empty slice. Relative paths are interpreted
// against "/" (the kernel joins cwd before calling the VFS).
func SplitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		switch c {
		case "", ".":
		case "..":
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		default:
			out = append(out, c)
		}
	}
	return out
}

// isCanonical reports whether path is already in the form Clean
// produces: rooted, no empty, "." or ".." component, no trailing slash
// (other than the root itself). One scan, no allocation — the fast
// path that lets Clean, Dir, Base and resolve hand back the argument or
// a substring of it; SplitPath stays the definition for everything else.
func isCanonical(path string) bool {
	if len(path) == 0 || path[0] != '/' {
		return false
	}
	return len(path) == 1 || cleanComponents(path[1:])
}

// cleanComponents reports whether rel is one or more components, none
// of them empty, "." or "..", separated by single slashes.
func cleanComponents(rel string) bool {
	start := 0
	for i := 0; i <= len(rel); i++ {
		if i < len(rel) && rel[i] != '/' {
			continue
		}
		switch rel[start:i] {
		case "", ".", "..":
			return false
		}
		start = i + 1
	}
	return true
}

// Clean returns the canonical absolute form of path.
func Clean(path string) string {
	if isCanonical(path) {
		return path
	}
	return "/" + strings.Join(SplitPath(path), "/")
}

// Join joins path elements with slashes and cleans the result.
func Join(elem ...string) string {
	if len(elem) == 2 && isCanonical(elem[0]) && cleanComponents(elem[1]) {
		// A canonical directory plus clean relative components: one
		// concatenation, nothing to re-split.
		if elem[0] == "/" {
			return "/" + elem[1]
		}
		return elem[0] + "/" + elem[1]
	}
	return Clean(strings.Join(elem, "/"))
}

// Dir returns the parent directory of path ("/" for the root).
func Dir(path string) string {
	path = Clean(path)
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// Base returns the final component of path ("/" for the root).
func Base(path string) string {
	path = Clean(path)
	if path == "/" {
		return path
	}
	return path[strings.LastIndexByte(path, '/')+1:]
}

// resolve walks the path and returns the target inode. When followLast
// is false a trailing symlink is returned rather than followed.
// It also returns the parent directory inode and the final component
// name (empty for the root). Callers hold fs.treeMu (shared or
// exclusive).
//
// The path is cleaned lexically first (".." is resolved before any
// symlink is followed, as SplitPath defines) and then walked by index:
// components are substrings of the cleaned path, so a symlink-free
// lookup of a canonical path allocates nothing.
func (fs *FS) resolve(path string, followLast bool, depth int) (node, parent *Inode, base string, err error) {
	if depth > maxSymlinks {
		return nil, nil, "", ErrLoop
	}
	path = Clean(path)
	if path == "/" {
		return fs.root, nil, "", nil
	}
	cur := fs.root
	var par *Inode
	var comp string
	for start := 1; start < len(path); {
		end := start
		for end < len(path) && path[end] != '/' {
			end++
		}
		comp = path[start:end]
		last := end == len(path)
		if cur.ftype != TypeDir {
			return nil, nil, "", ErrNotDir
		}
		child, ok := cur.children[comp]
		if !ok {
			if last {
				// Parent exists; target missing. Report the parent so
				// create-style operations can proceed.
				return nil, cur, comp, ErrNotExist
			}
			return nil, nil, "", ErrNotExist
		}
		if child.ftype == TypeSymlink && (!last || followLast) {
			targ := child.target
			if !strings.HasPrefix(targ, "/") {
				// Relative symlink: resolve against the link's directory.
				targ = path[:start] + targ
			}
			if !last {
				targ = targ + path[end:]
			}
			return fs.resolve(targ, followLast, depth+1)
		}
		par = cur
		cur = child
		start = end + 1
	}
	return cur, par, comp, nil
}

// lookupDir resolves path to an existing directory. Callers hold
// fs.treeMu.
func (fs *FS) lookupDir(op, path string) (*Inode, error) {
	n, _, _, err := fs.resolve(path, true, 0)
	if err != nil {
		return nil, &PathError{op, path, err}
	}
	if n.ftype != TypeDir {
		return nil, &PathError{op, path, ErrNotDir}
	}
	return n, nil
}

// Mkdir creates a directory. The parent must exist.
func (fs *FS) Mkdir(path string, mode uint32, owner string) error {
	return fs.Traced(0).MkdirWithFile(path, mode, owner, "", nil)
}

// MkdirWithFile creates a directory holding one regular file, name,
// with a private copy of data, made mode 0644 and owned by owner like
// the directory: a caller's per-directory metadata file, such as the
// ACL. Both appear in one step and one MutMkdir record (Path2 names the
// file, Data carries its bytes), so no reader and no recovery ever
// meets the directory without the file. An empty name makes no file:
// MkdirWithFile(path, mode, owner, "", nil) is Mkdir.
//
// Through a view whose Guard is a FileGuard, the file's contents are
// the guard's File, decided under the step's hold, not data.
func (fs *FS) MkdirWithFile(path string, mode uint32, owner, name string, data []byte) error {
	return fs.Traced(0).MkdirWithFile(path, mode, owner, name, data)
}

func (v TracedView) MkdirWithFile(path string, mode uint32, owner, name string, data []byte) error {
	m := Mutation{Op: MutMkdir, Path: path, Mode: mode, Owner: owner, Path2: name, Data: data, Trace: v.trace}
	if name != "" && (strings.IndexByte(name, '/') >= 0 || !cleanComponents(name)) {
		return &PathError{"mkdir", path, ErrInvalid} // the file is one name inside the directory
	}
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	if fg, ok := v.guard.(FileGuard); ok {
		m.Data = fg.File()
	}
	_, parent, base, err := fs.resolve(m.Path, true, 0)
	if err == nil {
		return &PathError{"mkdir", m.Path, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"mkdir", m.Path, err}
	}
	child := &Inode{
		ino:      nextIno(),
		ftype:    TypeDir,
		mode:     m.Mode,
		owner:    m.Owner,
		nlink:    2,
		children: make(map[string]*Inode),
	}
	child.mtime.Store(fs.tick())
	parent.children[base] = child
	parent.nlink++
	parent.mtime.Store(fs.tick())
	if m.Path2 != "" {
		fs.addFile(child, m.Path2, m.Data, 0o644, m.Owner)
	}
	fs.record(m)
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FS) MkdirAll(path string, mode uint32, owner string) error {
	parts := SplitPath(path)
	cur := ""
	for _, c := range parts {
		cur += "/" + c
		err := fs.Mkdir(cur, mode, owner)
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Create makes (or truncates) a regular file and returns its stat.
func (fs *FS) Create(path string, mode uint32, owner string) (Stat, error) {
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	n, err := fs.create(path, nil, mode, owner, 0)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(n, n.nlink), nil
}

// create makes path a regular file holding a private copy of data: a
// new file with mode and owner when the name is missing, the existing
// file's contents replaced otherwise. Either way it journals one
// MutCreate carrying data, so no reader ever sees the file between its
// old and new contents. Callers hold the journal lock and treeMu
// exclusively.
func (fs *FS) create(path string, data []byte, mode uint32, owner string, trace uint64) (*Inode, error) {
	m := Mutation{Op: MutCreate, Path: path, Mode: mode, Owner: owner, Data: data, Trace: trace}
	n, parent, base, err := fs.resolve(path, true, 0)
	switch {
	case err == nil:
		return n, fs.edit(n, m)
	case errors.Is(err, ErrNotExist) && parent != nil:
		n = fs.addFile(parent, base, data, mode, owner)
		fs.record(m)
		return n, nil
	default:
		return nil, &PathError{"create", path, err}
	}
}

// addFile links a new regular file, holding a private copy of data,
// into dir as name. The file gets its first mtime tick before it is
// linked and dir a fresh one after. Callers hold treeMu exclusively.
func (fs *FS) addFile(dir *Inode, name string, data []byte, mode uint32, owner string) *Inode {
	n := &Inode{
		ino:   nextIno(),
		ftype: TypeRegular,
		mode:  mode,
		owner: owner,
		nlink: 1,
		data:  append([]byte(nil), data...),
	}
	n.mtime.Store(fs.tick())
	dir.children[name] = n
	dir.mtime.Store(fs.tick())
	return n
}

// MaxFileSize is the largest a file may grow: a write ending past it,
// or a truncate to a length above it, is refused with ErrInvalid, as
// truncate(2) refuses a length past the largest file, before anything
// is allocated. A file is one slice in memory, so a size is an
// allocation. DESIGN.md §6 gives the reason for the value.
const MaxFileSize = 1 << 30

// edit applies one data mutation to a regular file and journals it:
// MutWrite copies Data in at Off, MutTruncate sets the length to Size,
// MutCreate replaces the contents with a copy of Data. Growth is
// zero-filled, up to MaxFileSize. It is the one writer of an existing
// inode's data (path and handle writes, truncates, create over an
// existing file), so every such write publishes a fresh mtime before it
// releases the inode lock — the memo-validity invariant on Inode.
// Callers hold the journal lock.
func (fs *FS) edit(n *Inode, m Mutation) error {
	if n.ftype == TypeDir {
		return &PathError{m.Op.String(), m.Path, ErrIsDir}
	}
	if m.Off < 0 || m.Size < 0 || m.Size > MaxFileSize || (m.Op == MutWrite && m.Off > MaxFileSize-int64(len(m.Data))) {
		return &PathError{m.Op.String(), m.Path, ErrInvalid}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m.Op {
	case MutWrite:
		end := m.Off + int64(len(m.Data))
		if end > int64(len(n.data)) {
			n.resize(end)
		}
		copy(n.data[m.Off:end], m.Data)
	case MutTruncate:
		n.resize(m.Size)
	case MutCreate:
		n.data = append(n.data[:0], m.Data...)
	}
	n.mtime.Store(fs.tick())
	fs.record(m)
	return nil
}

// resize sets the length of n's data, zero-filling any growth. Callers
// hold n.mu exclusively.
func (n *Inode) resize(size int64) {
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, n.data)
	n.data = grown
}

// statOf snapshots an inode's metadata. nlink is namespace state, so the
// caller supplies the value it read under fs.treeMu (handles, which hold
// no namespace lock, pass a best-effort value read the same way).
func (fs *FS) statOf(n *Inode, nlink int) Stat {
	n.mu.RLock()
	size := int64(len(n.data))
	st := Stat{
		Ino:   n.ino,
		Type:  n.ftype,
		Mode:  n.mode,
		Owner: n.owner,
		Group: n.group,
		Nlink: nlink,
		Size:  size,
		Mtime: n.mtime.Load(),
	}
	n.mu.RUnlock()
	if n.ftype == TypeSymlink {
		st.Size = int64(len(n.target))
	}
	return st
}

// Stat follows symlinks and reports metadata for path.
func (fs *FS) Stat(path string) (Stat, error) {
	return Lookup(fs.Traced(0), fs.Locked(), Locked.Stat, path)
}

// Lstat reports metadata for path without following a final symlink.
func (fs *FS) Lstat(path string) (Stat, error) {
	return Lookup(fs.Traced(0), fs.Locked(), Locked.Lstat, path)
}

// Exists reports whether path resolves to an object.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// ReadDir lists a directory in sorted order.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) { return fs.Traced(0).ReadDir(path) }

func (v TracedView) ReadDir(path string) ([]DirEntry, error) {
	fs := v.fs
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	if err := v.allow(); err != nil {
		return nil, err
	}
	dir, err := fs.lookupDir("readdir", path)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(dir.children))
	for name, child := range dir.children {
		out = append(out, DirEntry{Name: name, Type: child.ftype})
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// ReadAt copies file data starting at off into p and reports the number
// of bytes copied. Reading at or past EOF returns 0, nil (the kernel
// layers EOF semantics above this).
func (fs *FS) ReadAt(path string, p []byte, off int64) (int, error) {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	n, _, _, err := fs.resolve(path, true, 0)
	if err != nil {
		return 0, &PathError{"read", path, err}
	}
	return n.readAt(path, p, off)
}

// readAt is ReadAt on a resolved inode, path naming it in errors.
func (n *Inode) readAt(path string, p []byte, off int64) (int, error) {
	if n.ftype == TypeDir {
		return 0, &PathError{"read", path, ErrIsDir}
	}
	if off < 0 {
		return 0, &PathError{"read", path, ErrInvalid}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(p, n.data[off:]), nil
}

// WriteAt writes p into the file at off, extending it (zero-filled) as
// needed, and reports the number of bytes written.
func (fs *FS) WriteAt(path string, p []byte, off int64) (int, error) {
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	n, _, _, err := fs.resolve(path, true, 0)
	if err != nil {
		return 0, &PathError{"write", path, err}
	}
	if err := fs.edit(n, Mutation{Op: MutWrite, Path: path, Off: off, Data: p}); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate sets the file's length, extending with zeros if needed.
func (fs *FS) Truncate(path string, size int64) error { return fs.Traced(0).Truncate(path, size) }

func (v TracedView) Truncate(path string, size int64) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	if err := v.allow(); err != nil {
		return err
	}
	n, _, _, err := fs.resolve(path, true, 0)
	if err != nil {
		return &PathError{"truncate", path, err}
	}
	return fs.edit(n, Mutation{Op: MutTruncate, Path: path, Size: size, Trace: v.trace})
}

// Unlink removes a file or symlink (not a directory).
func (fs *FS) Unlink(path string) error { return fs.Traced(0).Unlink(path) }

func (v TracedView) Unlink(path string) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	n, parent, base, err := fs.resolve(path, false, 0)
	if err != nil {
		return &PathError{"unlink", path, err}
	}
	if n.ftype == TypeDir {
		return &PathError{"unlink", path, ErrIsDir}
	}
	delete(parent.children, base)
	n.nlink--
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutUnlink, Path: path, Trace: v.trace})
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string) error {
	_, err := fs.RmdirWithFile(path, "")
	return err
}

// RmdirWithFile removes the directory path when it is empty but for, at
// most, one regular file called name, which goes with it: one step and
// one MutRmdir record (Path2 names the file when one went). Anything
// else in the directory refuses the call with ErrNotEmpty and changes
// nothing, the file included. It reports how many entries the
// directory held (0 when path is not a directory), what a listing of it
// would have counted. An empty name is Rmdir.
func (fs *FS) RmdirWithFile(path, name string) (int, error) {
	return fs.Traced(0).RmdirWithFile(path, name)
}

func (v TracedView) RmdirWithFile(path, name string) (int, error) {
	m := Mutation{Op: MutRmdir, Path: path, Path2: name, Trace: v.trace}
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return 0, err
	}
	n, parent, base, err := fs.resolve(m.Path, false, 0)
	if err != nil {
		return 0, &PathError{"rmdir", m.Path, err}
	}
	if n.ftype != TypeDir {
		return 0, &PathError{"rmdir", m.Path, ErrNotDir}
	}
	entries := len(n.children)
	if n == fs.root {
		return entries, &PathError{"rmdir", m.Path, ErrInvalid}
	}
	switch f := n.children[m.Path2]; {
	case entries == 0:
		m.Path2 = "" // no file went with it
	case entries == 1 && f != nil && f.ftype != TypeDir:
		delete(n.children, m.Path2)
		f.nlink--
		n.mtime.Store(fs.tick())
	default:
		return entries, &PathError{"rmdir", m.Path, ErrNotEmpty}
	}
	delete(parent.children, base)
	parent.nlink--
	parent.mtime.Store(fs.tick())
	fs.record(m)
	return entries, nil
}

// Symlink creates a symbolic link at linkPath pointing at target.
func (fs *FS) Symlink(target, linkPath string, owner string) error {
	return fs.Traced(0).Symlink(target, linkPath, owner)
}

func (v TracedView) Symlink(target, linkPath string, owner string) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	_, parent, base, err := fs.resolve(linkPath, false, 0)
	if err == nil {
		return &PathError{"symlink", linkPath, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"symlink", linkPath, err}
	}
	child := &Inode{
		ino:    nextIno(),
		ftype:  TypeSymlink,
		mode:   0o777,
		owner:  owner,
		nlink:  1,
		target: target,
	}
	child.mtime.Store(fs.tick())
	parent.children[base] = child
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutSymlink, Path: linkPath, Path2: target, Owner: owner, Trace: v.trace})
	return nil
}

// Readlink reports the target of a symlink.
func (fs *FS) Readlink(path string) (string, error) {
	return Lookup(fs.Traced(0), fs.Locked(), Locked.Readlink, path)
}

// Link creates a hard link newPath referring to the same inode as
// oldPath. Directories cannot be hard-linked.
func (fs *FS) Link(oldPath, newPath string) error { return fs.Traced(0).Link(oldPath, newPath) }

func (v TracedView) Link(oldPath, newPath string) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	src, _, _, err := fs.resolve(oldPath, true, 0)
	if err != nil {
		return &PathError{"link", oldPath, err}
	}
	if src.ftype == TypeDir {
		return &PathError{"link", oldPath, ErrIsDir}
	}
	_, parent, base, err := fs.resolve(newPath, false, 0)
	if err == nil {
		return &PathError{"link", newPath, ErrExist}
	}
	if !errors.Is(err, ErrNotExist) || parent == nil {
		return &PathError{"link", newPath, err}
	}
	parent.children[base] = src
	src.nlink++
	parent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutLink, Path: oldPath, Path2: newPath, Trace: v.trace})
	return nil
}

// Rename atomically moves oldPath to newPath, replacing a non-directory
// target if one exists.
func (fs *FS) Rename(oldPath, newPath string) error { return fs.Traced(0).Rename(oldPath, newPath) }

func (v TracedView) Rename(oldPath, newPath string) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	src, srcParent, srcBase, err := fs.resolve(oldPath, false, 0)
	if err != nil {
		return &PathError{"rename", oldPath, err}
	}
	if src == fs.root {
		return &PathError{"rename", oldPath, ErrInvalid}
	}
	dst, dstParent, dstBase, err := fs.resolve(newPath, false, 0)
	switch {
	case err == nil:
		if dst == src {
			return nil
		}
		if dst.ftype == TypeDir {
			if src.ftype != TypeDir {
				return &PathError{"rename", newPath, ErrIsDir}
			}
			if len(dst.children) > 0 {
				return &PathError{"rename", newPath, ErrNotEmpty}
			}
		} else if src.ftype == TypeDir {
			return &PathError{"rename", newPath, ErrNotDir}
		}
	case errors.Is(err, ErrNotExist) && dstParent != nil:
		// Target absent; fine.
	default:
		return &PathError{"rename", newPath, err}
	}
	// Refuse to move a directory into its own subtree.
	if src.ftype == TypeDir && fs.isAncestor(src, dstParent) {
		return &PathError{"rename", newPath, ErrInvalid}
	}
	delete(srcParent.children, srcBase)
	if dst != nil && dst != src {
		dst.nlink--
		if dst.ftype == TypeDir {
			dstParent.nlink--
		}
	}
	dstParent.children[dstBase] = src
	if src.ftype == TypeDir && srcParent != dstParent {
		srcParent.nlink--
		dstParent.nlink++
	}
	srcParent.mtime.Store(fs.tick())
	dstParent.mtime.Store(fs.tick())
	fs.record(Mutation{Op: MutRename, Path: oldPath, Path2: newPath, Trace: v.trace})
	return nil
}

// isAncestor reports whether n lies in maybeAncestor's subtree. Callers
// hold fs.treeMu.
func (fs *FS) isAncestor(maybeAncestor, n *Inode) bool {
	if n == nil {
		return false
	}
	if maybeAncestor == n {
		return true
	}
	for _, child := range maybeAncestor.children {
		if child.ftype == TypeDir && fs.isAncestor(child, n) {
			return true
		}
	}
	return false
}

// Chmod sets the permission bits.
func (fs *FS) Chmod(path string, mode uint32) error {
	return fs.chattr(Mutation{Op: MutChmod, Path: path, Mode: mode})
}

// Chown sets the owner (and optionally group) of path.
func (fs *FS) Chown(path, owner, group string) error {
	return fs.chattr(Mutation{Op: MutChown, Path: path, Owner: owner, Group: group})
}

// chattr applies a MutChmod or a MutChown to the inode path names.
func (fs *FS) chattr(m Mutation) error {
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	n, _, _, err := fs.resolve(m.Path, true, 0)
	if err != nil {
		return &PathError{m.Op.String(), m.Path, err}
	}
	n.mu.Lock()
	if m.Op == MutChmod {
		n.mode = m.Mode & 0o7777
	} else {
		n.owner = m.Owner
		if m.Group != "" {
			n.group = m.Group
		}
	}
	n.mtime.Store(fs.tick())
	n.mu.Unlock()
	fs.record(m)
	return nil
}

// WriteFile creates (or replaces) a file with the given contents, in
// one journaled step: a reader sees the old contents or the new, never
// an empty file in between. The file keeps a private copy of data.
func (fs *FS) WriteFile(path string, data []byte, mode uint32, owner string) error {
	return fs.Traced(0).WriteFile(path, data, mode, owner)
}

func (v TracedView) WriteFile(path string, data []byte, mode uint32, owner string) error {
	fs := v.fs
	defer fs.endJournal(fs.beginJournal())
	fs.treeMu.Lock()
	defer fs.treeMu.Unlock()
	if err := v.allow(); err != nil {
		return err
	}
	_, err := fs.create(path, data, mode, owner, v.trace)
	return err
}

// ReadFile returns the full contents of a file.
func (fs *FS) ReadFile(path string) ([]byte, error) { return fs.Traced(0).ReadFile(path, MaxFileSize) }

// ReadFile is FS.ReadFile for a file of at most max bytes: a longer one
// is refused with ErrTooBig before anything is copied.
func (v TracedView) ReadFile(path string, max int) ([]byte, error) {
	fs := v.fs
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	if err := v.allow(); err != nil {
		return nil, err
	}
	n, _, _, err := fs.resolve(path, true, 0)
	if err != nil {
		return nil, &PathError{"read", path, err}
	}
	if n.ftype == TypeDir {
		return nil, &PathError{"read", path, ErrIsDir}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.data) > max {
		return nil, &PathError{"read", path, ErrTooBig}
	}
	return append([]byte(nil), n.data...), nil
}

// MemoIn returns a value derived from the contents of the file name in
// directory dir — the per-directory ACL file, looked up on every
// permission check — found through the directory's inode. It derives
// the value once per content version (readers that miss together each
// derive; their values are interchangeable). The value lives on the
// file's inode stamped with the mtime it was derived at, and is handed
// back only while that stamp is still the inode's mtime — it is
// validated on every call, never invalidated, so every writer is
// honoured (handles, replay, snapshot load, a rename or a hard link of
// the file) without any of them knowing the memo exists. derive runs
// under the inode's read lock and the shared tree lock: it must not
// retain data or call back into the FS. All callers naming one file
// must pass the same derive. Errors are the bare sentinels.
func (fs *FS) MemoIn(dir, name string, derive func(data []byte) any) (any, error) {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	return Locked{fs}.MemoIn(dir, name, derive)
}

// memoise returns the inode's memoised value for its current content
// version, deriving and storing it when there is none.
func (n *Inode) memoise(derive func(data []byte) any) (any, error) {
	if n.ftype == TypeDir {
		return nil, ErrIsDir
	}
	if m := n.memo.Load(); m != nil && m.mtime == n.mtime.Load() {
		return m.val, nil
	}
	n.mu.RLock()
	m := &memoEntry{mtime: n.mtime.Load(), val: derive(n.data)}
	n.mu.RUnlock()
	n.memo.Store(m)
	return m.val, nil
}

// Size reports the length of a file in bytes.
func (fs *FS) Size(path string) (int64, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size, nil
}

// TotalInodes walks the tree and reports the number of distinct inodes,
// a useful invariant for tests.
func (fs *FS) TotalInodes() int {
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	seen := map[*Inode]bool{}
	var walk func(n *Inode)
	walk = func(n *Inode) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
	return len(seen)
}

// PathComponents reports the number of components the path resolves
// through; the kernel uses it to charge per-component lookup cost. It
// is len(SplitPath(path)), counted in one scan without building the
// slice.
func PathComponents(path string) int {
	n, start := 0, 0
	for i := 0; i <= len(path); i++ {
		if i < len(path) && path[i] != '/' {
			continue
		}
		switch path[start:i] {
		case "", ".":
		case "..":
			if n > 0 {
				n--
			}
		default:
			n++
		}
		start = i + 1
	}
	return n
}
