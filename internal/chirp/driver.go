package chirp

import (
	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/parrot"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Driver adapts a Chirp client to the parrot.Driver interface, making a
// remote server appear under /chirp/host:port/... inside an identity
// box, so ordinary applications access remote storage through normal
// open/read/write calls. Every operation charges the stopped child one
// network round trip plus per-byte wire cost.
type Driver struct {
	cl    *Client
	model vclock.CostModel
}

// NewDriver wraps an authenticated client.
func NewDriver(cl *Client, model vclock.CostModel) *Driver {
	return &Driver{cl: cl, model: model}
}

// Client exposes the underlying connection (for tests and tools).
func (d *Driver) Client() *Client { return d.cl }

func (d *Driver) chargeRTT(p *kernel.Proc, bytes int) {
	p.Charge(d.model.NetworkRTT + d.model.NetworkPerByte*vclock.Micros(bytes))
}

type chirpFile struct {
	d    *Driver
	fd   int
	path string
}

func (f *chirpFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.d.cl.Pread(f.fd, p, off)
	return n, err
}

func (f *chirpFile) WriteAt(p []byte, off int64) (int, error) {
	return f.d.cl.Pwrite(f.fd, p, off)
}

func (f *chirpFile) Truncate(size int64) error {
	// The wire protocol truncates by path, as production Chirp does.
	return f.d.cl.Truncate(f.path, size)
}

func (f *chirpFile) Stat() (vfs.Stat, error) { return f.d.cl.FstatFD(f.fd) }

func (f *chirpFile) Close() error { return f.d.cl.CloseFD(f.fd) }

// Open implements parrot.Driver.
func (d *Driver) Open(p *kernel.Proc, path string, flags int, mode uint32) (parrot.File, error) {
	d.chargeRTT(p, len(path))
	fd, err := d.cl.Open(path, flags, mode)
	if err != nil {
		return nil, err
	}
	return &chirpFile{d: d, fd: fd, path: path}, nil
}

// Stat implements parrot.Driver.
func (d *Driver) Stat(p *kernel.Proc, path string) (vfs.Stat, error) {
	d.chargeRTT(p, len(path))
	return d.cl.Stat(path)
}

// Lstat implements parrot.Driver.
func (d *Driver) Lstat(p *kernel.Proc, path string) (vfs.Stat, error) {
	d.chargeRTT(p, len(path))
	return d.cl.Lstat(path)
}

// Readlink implements parrot.Driver.
func (d *Driver) Readlink(p *kernel.Proc, path string) (string, error) {
	d.chargeRTT(p, len(path))
	return d.cl.Readlink(path)
}

// ReadDir implements parrot.Driver.
func (d *Driver) ReadDir(p *kernel.Proc, path string) ([]vfs.DirEntry, error) {
	ents, err := d.cl.ReadDir(path)
	d.chargeRTT(p, len(path)+24*len(ents))
	return ents, err
}

// Mkdir implements parrot.Driver. The server applies its own mkdir
// rule and installs the child ACL itself, so childACL is not sent.
func (d *Driver) Mkdir(p *kernel.Proc, path string, mode uint32, childACL *acl.ACL) error {
	d.chargeRTT(p, len(path))
	return d.cl.Mkdir(path, mode)
}

// Rmdir implements parrot.Driver with one rmdir RPC: the server
// removes a lone ACL file with the directory.
func (d *Driver) Rmdir(p *kernel.Proc, path string) error {
	d.chargeRTT(p, len(path))
	return d.cl.Rmdir(path)
}

// Unlink implements parrot.Driver.
func (d *Driver) Unlink(p *kernel.Proc, path string) error {
	d.chargeRTT(p, len(path))
	return d.cl.Unlink(path)
}

// Link implements parrot.Driver.
func (d *Driver) Link(p *kernel.Proc, oldPath, newPath string) error {
	d.chargeRTT(p, len(oldPath)+len(newPath))
	return d.cl.Link(oldPath, newPath)
}

// Symlink implements parrot.Driver.
func (d *Driver) Symlink(p *kernel.Proc, target, linkPath string) error {
	d.chargeRTT(p, len(target)+len(linkPath))
	return d.cl.Symlink(target, linkPath)
}

// Rename implements parrot.Driver.
func (d *Driver) Rename(p *kernel.Proc, oldPath, newPath string) error {
	d.chargeRTT(p, len(oldPath)+len(newPath))
	return d.cl.Rename(oldPath, newPath)
}

// Chmod implements parrot.Driver. Chirp's virtual user space has no
// Unix modes to change; accepted as a no-op, as production Chirp does.
func (d *Driver) Chmod(p *kernel.Proc, path string, mode uint32) error {
	d.chargeRTT(p, len(path))
	return nil
}

// Truncate implements parrot.Driver.
func (d *Driver) Truncate(p *kernel.Proc, path string, size int64) error {
	d.chargeRTT(p, len(path))
	return d.cl.Truncate(path, size)
}

// ReadACL implements parrot.Driver with the getacl RPC (which needs only
// the List right), parsed afresh on every call: the server memoises its
// own parse, but nothing on this side can tell when the remote file
// changed.
func (d *Driver) ReadACL(p *kernel.Proc, dir string) (*acl.Version, error) {
	text, err := d.cl.GetACL(dir)
	d.chargeRTT(p, len(vfs.Join(dir, acl.FileName))+len(text))
	if err != nil {
		return nil, err
	}
	return acl.ParseVersion([]byte(text)), nil
}

// WriteFileSmall implements parrot.Driver. Writes of ACL files map onto
// the setacl RPC, which the server gates on the Admin right.
func (d *Driver) WriteFileSmall(p *kernel.Proc, path string, data []byte, mode uint32) error {
	d.chargeRTT(p, len(path)+len(data))
	if vfs.Base(path) == acl.FileName {
		return d.cl.SetACL(vfs.Dir(path), string(data))
	}
	return d.cl.PutFile(path, data, mode)
}

var _ parrot.Driver = (*Driver)(nil)
