// Package policy is the paper's access rule, written once: per-directory
// ACLs (rwlax plus the reserve right), consulted in the directory of the
// object an operation finally reaches, with Unix permissions as the
// user "nobody" where no ACL governs. The identity box (internal/core)
// and the Chirp server (internal/chirp) are its two callers. They differ
// only in what they read from — mount-table drivers that charge virtual
// time, or the exported file system with ACLs inherited from the nearest
// ancestor — and that difference lives in their Source, not here.
package policy

import (
	"strings"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/vfs"
)

// Source is what the rule reads. Paths are absolute in the caller's
// namespace. The rule calls it in a fixed order — Lstat and Readlink per
// symlink hop, then ACL, then (only when ACL reports none) Stat or
// Lstat — which a Source that charges for lookups may rely on.
type Source interface {
	Lstat(path string) (vfs.Stat, error)
	Stat(path string) (vfs.Stat, error)
	// Readlink returns a link's target: relative to the link's
	// directory, or absolute in the same namespace as path.
	Readlink(path string) (string, error)
	// ACL returns the ACL governing dir: nil when none does (Unix
	// permissions then decide), an empty ACL — which grants nothing —
	// when the ACL file is malformed.
	ACL(dir string) (*acl.ACL, error)
}

// How says which object a path names for a check.
type How int

const (
	// Follow: the object a final symlink leads to; the ACL of the
	// directory holding it decides (open, stat, truncate, exec).
	Follow How = iota
	// NoFollow: the name itself, for calls that act on a link rather
	// than through it (unlink, rename, readlink, a new link's name).
	NoFollow
	// Dir: the directory path leads to; its own ACL decides (list,
	// chdir, getacl, setacl).
	Dir
	// LinkOld: the existing name given to link(2). Follow, except that
	// a second name for an ACL file is a way to write it and takes
	// Admin: no check made later through the new name could tell.
	LinkOld
)

const maxSymlinkDepth = 10

// Resolve chases final symlinks so that a check applies to the target's
// directory, not the link's — Garfinkel's "overlooking indirect paths"
// pitfall. A dangling link resolves to its missing target; a chain
// longer than maxSymlinkDepth is judged where the chase stopped.
func Resolve(src Source, path string) string {
	cur := vfs.Clean(path)
	for i := 0; i < maxSymlinkDepth; i++ {
		st, err := src.Lstat(cur)
		if err != nil || st.Type != vfs.TypeSymlink {
			return cur
		}
		target, err := src.Readlink(cur)
		if err != nil {
			return cur
		}
		if strings.HasPrefix(target, "/") {
			cur = vfs.Clean(target)
		} else {
			cur = vfs.Join(vfs.Dir(cur), target)
		}
	}
	return cur
}

// Subject reports what a check is about: the object path names under
// how, and the right that object takes. The ACL file is special by its
// resolved name, whatever route led to it: reading it takes List, any
// modification takes Admin. Callers that add grants of their own to the
// local ACL (the server's community assertions) match them against
// this, so no route to an ACL file is cheaper there than here.
func Subject(src Source, path string, want acl.Rights, how How) (string, acl.Rights) {
	var final string
	if how == NoFollow {
		final = vfs.Clean(path)
	} else {
		final = Resolve(src, path)
	}
	if how != Dir && vfs.Base(final) == acl.FileName {
		if how != LinkOld && want&^(acl.Read|acl.List) == 0 {
			want = acl.List
		} else {
			want = acl.Admin
		}
	}
	return final, want
}

// Check authorizes who for want on path. It returns nil, a bare
// vfs.ErrPermission for a refusal, or the Source's error.
func Check(src Source, who identity.Principal, path string, want acl.Rights, how How) error {
	final, want := Subject(src, path, want, how)
	dir := final
	if how != Dir {
		dir = vfs.Dir(final)
	}
	a, err := src.ACL(dir)
	if err != nil {
		return err
	}
	if a != nil {
		if a.Allows(who, want) {
			return nil
		}
		return vfs.ErrPermission
	}
	var st vfs.Stat
	if how == NoFollow {
		st, err = src.Lstat(final)
	} else {
		st, err = src.Stat(final)
	}
	if err != nil && dir != final {
		// Object absent (e.g. a create): judge by the directory.
		st, err = src.Stat(dir)
	}
	if err != nil {
		return err
	}
	if !unixAsNobody(st, want) {
		return vfs.ErrPermission
	}
	return nil
}

// Mkdir authorizes creating the directory path and reports the ACL it
// should receive: a copy of the parent's when who holds w there, or the
// reserve set when who holds only v(...) — the amplification of the
// paper's Section 4. parent is the ACL consulted, returned on a refusal
// too so a caller with other grounds to allow the mkdir can still
// inherit from it. Both are nil where no ACL governs the parent.
func Mkdir(src Source, who identity.Principal, path string) (child, parent *acl.ACL, err error) {
	dir := vfs.Dir(vfs.Clean(path))
	parent, err = src.ACL(dir)
	if err != nil {
		return nil, nil, err
	}
	if parent == nil {
		st, err := src.Stat(dir)
		if err != nil {
			return nil, nil, err
		}
		if !unixAsNobody(st, acl.Write) {
			return nil, nil, vfs.ErrPermission
		}
		return nil, nil, nil
	}
	rights, reserve := parent.Lookup(who)
	switch {
	case rights.Has(acl.Write):
		return parent.Clone(), parent, nil
	case rights.Has(acl.Reserve):
		return acl.ReserveChild(who, reserve), parent, nil
	}
	return nil, parent, vfs.ErrPermission
}

// unixAsNobody is the rule where no ACL exists: Unix permission bits
// with the visitor as the unprivileged user "nobody" — the owner bits
// of what nobody owns, the other bits of everything else — so the
// supervising user's own data stays protected.
func unixAsNobody(st vfs.Stat, want acl.Rights) bool {
	var bits uint32
	if want&(acl.Read|acl.List) != 0 {
		bits |= 4
	}
	if want&(acl.Write|acl.Admin) != 0 {
		bits |= 2
	}
	if want&acl.Execute != 0 {
		bits |= 1
	}
	mode := st.Mode
	if st.Owner == "nobody" {
		mode >>= 6
	}
	return mode&bits == bits
}
