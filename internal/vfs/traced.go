package vfs

// TracedView is a thin facade over an FS that stamps every journaled
// mutation it performs with a request-tracing ID (see Mutation.Trace)
// and, when it carries a Guard, lets that guard decide each step from
// inside it. It adds no state beyond the two; each method is the FS
// method of the same name, which is the view with a zero trace and no
// guard. A zero trace makes the view equivalent to the plain FS, so
// callers can pass whatever ID the request carried without branching.
type TracedView struct {
	fs    *FS
	trace uint64
	guard Guard
}

// Traced returns a view of the file system whose mutations carry the
// given trace ID.
func (fs *FS) Traced(trace uint64) TracedView {
	return TracedView{fs: fs, trace: trace}
}

// Guarded returns the view with g deciding every step made through it.
func (v TracedView) Guarded(g Guard) TracedView {
	v.guard = g
	return v
}

// Guard decides one step from inside it: the check and the act it
// authorises are one event, so no rename, setacl or retargeted symlink
// lands between them. The step calls Allow once it holds the tree lock
// — exclusively to change the namespace or a whole file (an open that
// may create or truncate too), shared otherwise — and before it
// resolves its own paths; it acts only on a nil result and otherwise
// returns Allow's error as it is. Allow reads the file system only
// through a Locked view and takes no FS lock itself.
type Guard interface {
	Allow() error
}

// FileGuard is a Guard that also decides, in the same hold, what the
// file MkdirWithFile makes holds: a directory's ACL, derived from the
// parent's that Allow has just read.
type FileGuard interface {
	Guard
	File() []byte
}

func (v TracedView) allow() error {
	if v.guard == nil {
		return nil
	}
	return v.guard.Allow()
}

// Check runs the view's guard alone under a shared hold of the tree
// lock: a step whose only act is what the guard reads.
func (v TracedView) Check() error {
	v.fs.treeMu.RLock()
	defer v.fs.treeMu.RUnlock()
	return v.allow()
}

// Lookup is a read step: the view's guard, then lookup on r, a reader
// of the locked view, in one shared hold of the tree lock.
func Lookup[R, T any](v TracedView, r R, lookup func(R, string) (T, error), path string) (T, error) {
	v.fs.treeMu.RLock()
	defer v.fs.treeMu.RUnlock()
	if err := v.allow(); err != nil {
		var none T
		return none, err
	}
	return lookup(r, path)
}

// Locked is the file system as a Guard reads it: the lookups a check
// needs, the FS methods of the same names for a caller that already
// holds the tree lock (shared or exclusive), as a step does while its
// guard runs. The FS methods take the shared hold and call these.
// Outside a hold a Locked view is unsynchronised.
type Locked struct{ fs *FS }

// Locked returns the file system's locked view.
func (fs *FS) Locked() Locked { return Locked{fs} }

func (l Locked) Stat(path string) (Stat, error)  { return l.stat("stat", path, true) }
func (l Locked) Lstat(path string) (Stat, error) { return l.stat("lstat", path, false) }

func (l Locked) stat(op, path string, follow bool) (Stat, error) {
	n, _, _, err := l.fs.resolve(path, follow, 0)
	if err != nil {
		return Stat{}, &PathError{op, path, err}
	}
	return l.fs.statOf(n, n.nlink), nil
}

func (l Locked) Readlink(path string) (string, error) {
	n, _, _, err := l.fs.resolve(path, false, 0)
	if err != nil {
		return "", &PathError{"readlink", path, err}
	}
	if n.ftype != TypeSymlink {
		return "", &PathError{"readlink", path, ErrInvalid}
	}
	return n.target, nil
}

func (l Locked) MemoIn(dir, name string, derive func(data []byte) any) (any, error) {
	n, _, _, err := l.fs.resolve(dir, true, 0)
	if err == nil {
		switch child := n.children[name]; {
		case n.ftype != TypeDir:
			err = ErrNotDir
		case child == nil:
			err = ErrNotExist
		case child.ftype == TypeSymlink: // rare: let the path walk follow it
			n, _, _, err = l.fs.resolve(Join(dir, name), true, 0)
		default:
			n = child
		}
	}
	if err != nil {
		return nil, err
	}
	return n.memoise(derive)
}
