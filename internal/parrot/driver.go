// Package parrot provides the mechanism half of the interposition agent:
// file-service drivers, the mount table that routes paths to them, and a
// local driver over the simulated kernel's file system.
//
// Parrot is a delegation architecture (like Ostia): the supervisor
// implements each trapped system call by invoking operations on a
// driver, then reflects results back into the stopped child. Drivers
// make filesystem-like services appear under ordinary paths — the local
// file system at "/", and remote Chirp servers under /chirp/host/path —
// so unmodified applications can use them. The policy half (identity
// attachment and ACL enforcement) lives in internal/core.
package parrot

import (
	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// File is an open file within a driver, the supervisor-side analogue of
// a file descriptor.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Stat() (vfs.Stat, error)
	Close() error
}

// Driver provides operating-system-like file service for one mount.
// Every method takes the calling (stopped) process first so the driver
// can charge the virtual cost of the work to it: the child is suspended
// while the supervisor works on its behalf, so supervisor time is child
// time.
type Driver interface {
	// Open opens an existing file or creates one, honoring Unix-style
	// flags (kernel.ORdonly etc.). The returned stat describes the file
	// after any O_TRUNC.
	Open(p *kernel.Proc, path string, flags int, mode uint32) (File, error)

	Stat(p *kernel.Proc, path string) (vfs.Stat, error)
	Lstat(p *kernel.Proc, path string) (vfs.Stat, error)
	Readlink(p *kernel.Proc, path string) (string, error)
	ReadDir(p *kernel.Proc, path string) ([]vfs.DirEntry, error)

	// Mkdir makes a directory. childACL is the ACL the box's policy
	// computed for it (nil where none governs the parent): a driver over
	// the supervisor's own file system installs it with the directory in
	// one step; a driver whose service applies its own mkdir rule (a
	// Chirp server) ignores it.
	Mkdir(p *kernel.Proc, path string, mode uint32, childACL *acl.ACL) error
	// Rmdir removes a directory. One holding only its ACL file counts as
	// empty, and the ACL goes with it in the same step, as a Chirp
	// server's rmdir does; anything else in it is ErrNotEmpty, and the
	// ACL stays.
	Rmdir(p *kernel.Proc, path string) error
	Unlink(p *kernel.Proc, path string) error
	Link(p *kernel.Proc, oldPath, newPath string) error
	Symlink(p *kernel.Proc, target, linkPath string) error
	Rename(p *kernel.Proc, oldPath, newPath string) error
	Chmod(p *kernel.Proc, path string, mode uint32) error
	Truncate(p *kernel.Proc, path string, size int64) error

	// ReadACL returns the parsed ACL file of directory dir: the one
	// lookup the box's policy checks and its getacl make. A driver may
	// hand back a version it memoised, but charges p as if it had read
	// the whole file. A missing file is an error matching
	// vfs.ErrNotExist.
	ReadACL(p *kernel.Proc, dir string) (*acl.Version, error)
	// WriteFileSmall replaces a whole (small) file.
	WriteFileSmall(p *kernel.Proc, path string, data []byte, mode uint32) error
}

// Mount binds a path prefix to a driver.
type Mount struct {
	Prefix string // "/" or "/chirp/host:port"
	Driver Driver
}

// MountTable routes absolute paths to drivers, longest prefix first.
// The zero value is empty; use Add to populate. Not safe for concurrent
// mutation (configure before use).
type MountTable struct {
	mounts []Mount
}

// Add installs a mount. Later Adds with longer prefixes take priority.
func (t *MountTable) Add(prefix string, d Driver) {
	m := Mount{Prefix: vfs.Clean(prefix), Driver: d}
	// Insert keeping longest-prefix-first order.
	for i, existing := range t.mounts {
		if len(m.Prefix) > len(existing.Prefix) {
			t.mounts = append(t.mounts[:i], append([]Mount{m}, t.mounts[i:]...)...)
			return
		}
	}
	t.mounts = append(t.mounts, m)
}

// Resolve returns the driver owning path and the path rewritten relative
// to the mount (always absolute within the driver). Returns nil if no
// mount matches.
func (t *MountTable) Resolve(path string) (Driver, string) {
	path = vfs.Clean(path)
	for _, m := range t.mounts {
		if m.Prefix == "/" {
			return m.Driver, path
		}
		if path == m.Prefix {
			return m.Driver, "/"
		}
		if len(path) > len(m.Prefix) && path[:len(m.Prefix)] == m.Prefix && path[len(m.Prefix)] == '/' {
			return m.Driver, path[len(m.Prefix):]
		}
	}
	return nil, ""
}

// Mounts lists the installed mounts, longest prefix first.
func (t *MountTable) Mounts() []Mount {
	out := make([]Mount, len(t.mounts))
	copy(out, t.mounts)
	return out
}
