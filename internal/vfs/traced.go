package vfs

// TracedView is a thin facade over an FS that stamps every journaled
// mutation it performs with a request-tracing ID (see Mutation.Trace).
// It adds no synchronization and no state beyond the ID itself; each
// method is exactly the corresponding FS method. A zero trace makes the
// view equivalent to the plain FS, so callers can pass whatever ID the
// request carried without branching.
//
// Read operations are deliberately absent: reads emit no mutations, so
// there is nothing to stamp — call the FS directly.
type TracedView struct {
	fs    *FS
	trace uint64
}

// Traced returns a view of the file system whose mutations carry the
// given trace ID.
func (fs *FS) Traced(trace uint64) TracedView {
	return TracedView{fs: fs, trace: trace}
}

// MkdirWithFile is FS.MkdirWithFile with the view's trace stamped on
// its one MutMkdir.
func (v TracedView) MkdirWithFile(path string, mode uint32, owner, name string, data []byte) error {
	return v.fs.mkdir(Mutation{Op: MutMkdir, Path: path, Mode: mode, Owner: owner, Path2: name, Data: data, Trace: v.trace})
}

// OpenFile is FS.OpenFile with the view's trace stamped on the
// mutation, if the open makes one.
func (v TracedView) OpenFile(path string, flags int, mode uint32, owner string) (*Handle, error) {
	return v.fs.openFile(path, flags, mode, owner, v.trace)
}

// Truncate is FS.Truncate with the view's trace stamped on the mutation.
func (v TracedView) Truncate(path string, size int64) error {
	return v.fs.truncate(path, size, v.trace)
}

// WriteFile is FS.WriteFile with the view's trace stamped on its one
// MutCreate.
func (v TracedView) WriteFile(path string, data []byte, mode uint32, owner string) error {
	return v.fs.writeFile(path, data, mode, owner, v.trace)
}

// Unlink is FS.Unlink with the view's trace stamped on the mutation.
func (v TracedView) Unlink(path string) error { return v.fs.unlink(path, v.trace) }

// RmdirWithFile is FS.RmdirWithFile with the view's trace stamped on
// its one MutRmdir.
func (v TracedView) RmdirWithFile(path, name string) (int, error) {
	return v.fs.rmdir(Mutation{Op: MutRmdir, Path: path, Path2: name, Trace: v.trace})
}

// Symlink is FS.Symlink with the view's trace stamped on the mutation.
func (v TracedView) Symlink(target, linkPath string, owner string) error {
	return v.fs.symlink(target, linkPath, owner, v.trace)
}

// Link is FS.Link with the view's trace stamped on the mutation.
func (v TracedView) Link(oldPath, newPath string) error {
	return v.fs.link(oldPath, newPath, v.trace)
}

// Rename is FS.Rename with the view's trace stamped on the mutation.
func (v TracedView) Rename(oldPath, newPath string) error {
	return v.fs.rename(oldPath, newPath, v.trace)
}
