package core

import (
	"errors"
	"strings"

	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/parrot"
	"identitybox/internal/policy"
	"identitybox/internal/trap"
	"identitybox/internal/vfs"
)

// rewritePath applies the /etc/passwd redirection: inside the box, the
// account database appears to contain the visiting identity.
func (b *Box) rewritePath(path string) string {
	if path == passwdPath {
		return b.shadowPasswd
	}
	return path
}

// driverFor resolves the mount table.
func (b *Box) driverFor(path string) (parrot.Driver, string, error) {
	d, rel := b.mounts.Resolve(path)
	if d == nil {
		return nil, "", &vfs.PathError{Op: "mount", Path: path, Err: vfs.ErrNotExist}
	}
	return d, rel, nil
}

// boxSource is the box's policy.Source on behalf of one stopped process:
// the mount table's drivers, each call charged to that process. Since
// lookups cost virtual time, the order policy makes them in is part of
// what Figures 4 and 5 measure.
type boxSource struct {
	b *Box
	p *kernel.Proc
}

func (s *boxSource) Lstat(path string) (vfs.Stat, error) {
	d, rel, err := s.b.driverFor(path)
	if err != nil {
		return vfs.Stat{}, err
	}
	return d.Lstat(s.p, rel)
}

func (s *boxSource) Stat(path string) (vfs.Stat, error) {
	d, rel, err := s.b.driverFor(path)
	if err != nil {
		return vfs.Stat{}, err
	}
	return d.Stat(s.p, rel)
}

func (s *boxSource) Readlink(path string) (string, error) {
	d, rel, err := s.b.driverFor(path)
	if err != nil {
		return "", err
	}
	target, err := d.Readlink(s.p, rel)
	if err == nil && strings.HasPrefix(target, "/") {
		// Absolute within the mount: rebuild the outer path.
		target = path[:len(path)-len(rel)] + target
	}
	return target, err
}

// ACL fetches and parses the ACL protecting dir. A missing ACL file
// yields (nil, nil): policy falls back to nobody semantics. Nothing is
// remembered between checks: another box on the same kernel, or a Chirp
// setacl behind this one, may rewrite the file at any time, and the
// next check must see it.
func (s *boxSource) ACL(dir string) (*acl.ACL, error) {
	d, rel, err := s.b.driverFor(dir)
	if err != nil {
		return nil, err
	}
	data, err := d.ReadFileSmall(s.p, vfs.Join(rel, acl.FileName))
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	a, err := acl.Parse(string(data))
	if err != nil {
		// A malformed ACL is treated as granting nothing: fail closed.
		return &acl.ACL{}, nil
	}
	return a, nil
}

// noteACLCheck charges one reference-monitor evaluation and observes
// it (counter plus acl_check phase event on path).
func (b *Box) noteACLCheck(p *kernel.Proc, path string) {
	p.Charge(b.model.ACLCheck)
	b.statACLChecks.Add(1)
	b.metrics.aclChecks.Inc()
	b.emitPhase(p, obs.PhaseACLCheck, "", path, 0)
}

// check authorizes the calling process for want on path; how says which
// object the path names (policy.How). Every trapped call that names a
// path comes through here or through checkMkdir.
func (b *Box) check(p *kernel.Proc, path string, want acl.Rights, how policy.How) error {
	if b.opts.DisablePolicy {
		return nil
	}
	b.noteACLCheck(p, path)
	return refusal(path, policy.Check(&b.state(p).src, b.ident, path, want, how))
}

// checkMkdir authorizes mkdir and reports which ACL the new directory
// should receive (policy.Mkdir); nil where no ACL governs the parent.
func (b *Box) checkMkdir(p *kernel.Proc, path string) (childACL *acl.ACL, err error) {
	if b.opts.DisablePolicy {
		return nil, nil
	}
	b.noteACLCheck(p, path)
	childACL, _, err = policy.Mkdir(&b.state(p).src, b.ident, path)
	return childACL, refusal(path, err)
}

// refusal names the box and the path in policy's bare refusal; a
// driver's own error passes through as it came.
func refusal(path string, err error) error {
	if err == vfs.ErrPermission {
		return &vfs.PathError{Op: "box", Path: path, Err: err}
	}
	return err
}

// chargePoke bills small-result data movement (stat buffers, dirents,
// strings) poked into the child.
func (b *Box) chargePoke(p *kernel.Proc, n int) {
	p.Charge(trap.PeekPokeCost(b.model, n))
	b.emitPhase(p, obs.PhasePoke, "", "", n)
}

// statBytes approximates the size of a struct stat the supervisor pokes
// back into the child.
const statBytes = 88

// direntBytes approximates one directory entry's size.
const direntBytes = 24
