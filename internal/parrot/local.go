package parrot

import (
	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// LocalDriver serves the supervisor's own file system. Operations are
// the supervisor's own system calls: they run under the supervising
// user's account (the host kernel checks Unix permissions against that
// account, not the visitor's) and charge native syscall costs to the
// stopped child, since the child waits while the supervisor works.
type LocalDriver struct {
	fs      *vfs.FS
	account string // the supervising user's Unix account
	model   vclock.CostModel
}

// NewLocalDriver builds a driver over fs acting as account.
func NewLocalDriver(fs *vfs.FS, account string, model vclock.CostModel) *LocalDriver {
	return &LocalDriver{fs: fs, account: account, model: model}
}

// Account reports the supervising account the driver acts as.
func (d *LocalDriver) Account() string { return d.account }

func (d *LocalDriver) pathCost(path string) vclock.Micros {
	return d.model.DirEntry * vclock.Micros(vfs.PathComponents(path))
}

// aclPathCost is pathCost(vfs.Join(dir, acl.FileName)), counted
// without building the path.
func (d *LocalDriver) aclPathCost(dir string) vclock.Micros {
	return d.model.DirEntry * vclock.Micros(vfs.PathComponents(dir)+1)
}

type localFile struct {
	d *LocalDriver
	h *vfs.Handle
}

func (f *localFile) ReadAt(p []byte, off int64) (int, error)  { return f.h.ReadAt(p, off) }
func (f *localFile) WriteAt(p []byte, off int64) (int, error) { return f.h.WriteAt(p, off) }
func (f *localFile) Truncate(size int64) error                { return f.h.Truncate(size) }
func (f *localFile) Stat() (vfs.Stat, error)                  { return f.h.Stat(), nil }
func (f *localFile) Close() error                             { return nil }

// Open implements Driver.
func (d *LocalDriver) Open(p *kernel.Proc, path string, flags int, mode uint32) (File, error) {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(path))
	if err := kernel.OpenAllowed(d.fs, path, flags, d.account); err != nil {
		return nil, err
	}
	h, err := d.fs.OpenFile(path, flags, mode, d.account)
	if err != nil {
		return nil, err
	}
	return &localFile{d: d, h: h}, nil
}

// Stat implements Driver.
func (d *LocalDriver) Stat(p *kernel.Proc, path string) (vfs.Stat, error) {
	p.Charge(d.model.SyscallFixed + d.model.Stat + d.pathCost(path))
	return d.fs.Stat(path)
}

// Lstat implements Driver.
func (d *LocalDriver) Lstat(p *kernel.Proc, path string) (vfs.Stat, error) {
	p.Charge(d.model.SyscallFixed + d.model.Stat + d.pathCost(path))
	return d.fs.Lstat(path)
}

// Readlink implements Driver.
func (d *LocalDriver) Readlink(p *kernel.Proc, path string) (string, error) {
	p.Charge(d.model.SyscallFixed + d.model.Stat + d.pathCost(path))
	return d.fs.Readlink(path)
}

// ReadDir implements Driver.
func (d *LocalDriver) ReadDir(p *kernel.Proc, path string) ([]vfs.DirEntry, error) {
	ents, err := d.fs.ReadDir(path)
	p.Charge(d.model.SyscallFixed + d.model.ReadFixed +
		d.model.DirEntry*vclock.Micros(len(ents)) + d.pathCost(path))
	return ents, err
}

// Mkdir implements Driver. A non-nil childACL is installed with the
// directory (vfs.FS.MkdirWithFile) and charged as the whole-file write
// of it that WriteFileSmall would cost.
func (d *LocalDriver) Mkdir(p *kernel.Proc, path string, mode uint32, childACL *acl.ACL) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(path))
	pst, err := d.fs.Stat(vfs.Dir(path))
	if err != nil {
		return err
	}
	if !kernel.UnixAllows(pst, d.account, 2) {
		return &vfs.PathError{Op: "mkdir", Path: path, Err: vfs.ErrPermission}
	}
	if childACL == nil {
		return d.fs.Mkdir(path, mode, d.account)
	}
	text := childACL.AppendText(nil)
	if err := d.fs.MkdirWithFile(path, mode, d.account, acl.FileName, text); err != nil {
		return err
	}
	p.Charge(d.model.SyscallFixed + d.model.Open + d.model.WriteFixed +
		d.model.CopyPerByte*vclock.Micros(len(text)) + d.aclPathCost(path))
	return nil
}

// Rmdir implements Driver with vfs.FS.RmdirWithFile, charged as the
// listing, the ACL file's unlink (when it goes) and the rmdir a
// supervisor makes for it. Unlinking the ACL takes the supervising
// account's write permission on the directory, as Unlink does; without
// it the ACL counts as an entry.
func (d *LocalDriver) Rmdir(p *kernel.Proc, path string) error {
	name := acl.FileName
	if st, err := d.fs.Stat(path); err == nil && !kernel.UnixAllows(st, d.account, 2) {
		name = ""
	}
	n, err := d.fs.RmdirWithFile(path, name)
	p.Charge(d.model.SyscallFixed + d.model.ReadFixed + d.model.DirEntry*vclock.Micros(n) + d.pathCost(path))
	if err == nil && n == 1 {
		p.Charge(d.model.SyscallFixed + d.model.Open + d.aclPathCost(path))
	}
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(path))
	return err
}

// Unlink implements Driver.
func (d *LocalDriver) Unlink(p *kernel.Proc, path string) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(path))
	pst, err := d.fs.Stat(vfs.Dir(path))
	if err != nil {
		return err
	}
	if !kernel.UnixAllows(pst, d.account, 2) {
		return &vfs.PathError{Op: "unlink", Path: path, Err: vfs.ErrPermission}
	}
	return d.fs.Unlink(path)
}

// Link implements Driver.
func (d *LocalDriver) Link(p *kernel.Proc, oldPath, newPath string) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(oldPath) + d.pathCost(newPath))
	return d.fs.Link(oldPath, newPath)
}

// Symlink implements Driver.
func (d *LocalDriver) Symlink(p *kernel.Proc, target, linkPath string) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(linkPath))
	return d.fs.Symlink(target, linkPath, d.account)
}

// Rename implements Driver.
func (d *LocalDriver) Rename(p *kernel.Proc, oldPath, newPath string) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(oldPath) + d.pathCost(newPath))
	return d.fs.Rename(oldPath, newPath)
}

// Chmod implements Driver.
func (d *LocalDriver) Chmod(p *kernel.Proc, path string, mode uint32) error {
	p.Charge(d.model.SyscallFixed + d.model.Stat + d.pathCost(path))
	st, err := d.fs.Stat(path)
	if err != nil {
		return err
	}
	if d.account != kernel.RootAccount && st.Owner != d.account {
		return &vfs.PathError{Op: "chmod", Path: path, Err: vfs.ErrPermission}
	}
	return d.fs.Chmod(path, mode)
}

// Truncate implements Driver.
func (d *LocalDriver) Truncate(p *kernel.Proc, path string, size int64) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.pathCost(path))
	return d.fs.Truncate(path, size)
}

// ReadACL implements Driver from the ACL file's memoised parse, which
// every reader of the file system shares (acl.MemoVersion), so a box
// parses each version of an ACL file at most once. The charge is still
// a whole-file read of dir's ACL file: the same terms and byte count a
// read of the file itself would cost, a miss included, so the virtual
// clock cannot tell the memo is there.
func (d *LocalDriver) ReadACL(p *kernel.Proc, dir string) (*acl.Version, error) {
	v, err := d.fs.MemoIn(dir, acl.FileName, acl.MemoVersion)
	ver, _ := v.(*acl.Version) // nil on a miss, which reads 0 bytes
	n := 0
	if ver != nil {
		n = len(ver.Raw)
	}
	p.Charge(d.model.SyscallFixed + d.model.Open + d.model.ReadFixed +
		d.model.CopyPerByte*vclock.Micros(n) + d.aclPathCost(dir))
	if err != nil {
		return nil, &vfs.PathError{Op: "read", Path: vfs.Join(dir, acl.FileName), Err: err}
	}
	return ver, nil
}

// WriteFileSmall implements Driver.
func (d *LocalDriver) WriteFileSmall(p *kernel.Proc, path string, data []byte, mode uint32) error {
	p.Charge(d.model.SyscallFixed + d.model.Open + d.model.WriteFixed +
		d.model.CopyPerByte*vclock.Micros(len(data)) + d.pathCost(path))
	return d.fs.WriteFile(path, data, mode, d.account)
}

var _ Driver = (*LocalDriver)(nil)
