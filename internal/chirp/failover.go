package chirp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/parrot"
	"identitybox/internal/vfs"
)

// FailoverDriver serves one catalog name from a replica set: catalog
// entries sharing a name are taken as replicas of the same export.
// Reads prefer the primary but fail over, in order, to replicas when
// the primary's circuit breaker is open or a call fails at the
// transport level (remote error replies are final — a replica would
// just repeat them). Writes go to whichever member currently holds the
// write lease: the primary index moves when a server answers
// ENOTPRIMARY naming its successor, or when a write finds the primary's
// breaker open and a healthy member reports the primary role. Writes
// still never fan out — a mutation lands on exactly one member or
// degrades with the typed ErrDegraded.
//
// Routing is lazy: every decision is taken on the calling goroutine,
// and the driver starts none. A tripped member rejoins reads through
// its own breaker's cooloff, which readmits it as a half-open probe.
type FailoverDriver struct {
	drivers []*Driver    // catalog-preferred order; index 0 is the initial primary
	note    func(string) // optional failover-event sink (core audit)

	// primaryIdx is the member currently believed to hold the write
	// lease. Reads start their preference scan here too, so a promoted
	// follower also becomes the freshest read target.
	primaryIdx atomic.Int32
}

// NewFailoverDriver builds a failover driver over a replica set in
// catalog-preferred order (index 0 the presumed primary). note, when
// non-nil, receives one line per failover decision (MountAll wires it
// to the box's audit trail).
func NewFailoverDriver(drivers []*Driver, note func(string)) *FailoverDriver {
	return &FailoverDriver{drivers: drivers, note: note}
}

// Primary exposes the current primary's driver (tests, tools).
func (f *FailoverDriver) Primary() *Driver { return f.drivers[f.primaryIdx.Load()] }

// setPrimaryAddr points the write path at the member advertising addr
// (an ENOTPRIMARY redirect), reporting whether a member matched.
func (f *FailoverDriver) setPrimaryAddr(addr string) bool {
	for i, d := range f.drivers {
		if d.Client().Addr() == addr {
			if f.primaryIdx.Swap(int32(i)) != int32(i) {
				f.notef("chirp failover: primary is now %s (redirect)", addr)
			}
			return true
		}
	}
	return false
}

func (f *FailoverDriver) notef(format string, args ...any) {
	if f.note != nil {
		f.note(fmt.Sprintf(format, args...))
	}
}

// readVia runs read against the first usable replica, starting the
// preference scan at the current primary. A member is usable when its
// breaker's Allow admits the call — closed, or open past its cooloff,
// which readmits it as the half-open probe — and transport failures
// advance to the next member. When every breaker refuses, the read
// fails with ErrBreakerOpen without touching the wire.
func readVia[T any](f *FailoverDriver, what string, read func(d *Driver) (T, error)) (T, error) {
	var zero T
	lastErr := ErrBreakerOpen
	start := int(f.primaryIdx.Load())
	for n := range len(f.drivers) {
		i := (start + n) % len(f.drivers)
		d := f.drivers[i]
		if !d.Client().Breaker().Allow() {
			continue
		}
		v, err := read(d)
		if !isTransient(err) {
			if i != start {
				f.notef("chirp failover: %s served by replica %s", what, d.Client().Addr())
			}
			return v, err
		}
		f.notef("chirp failover: %s failed on %s: %v", what, d.Client().Addr(), err)
		lastErr = err
	}
	return zero, lastErr
}

// writeDriver runs op against the lease holder, degrading with
// ErrDegraded when it is unavailable. A member that answers
// ENOTPRIMARY names its successor; the write retries exactly once
// against it (safe — the refused attempt executed nothing). Writes
// never fan out: a mutation lands on one member or not at all.
func (f *FailoverDriver) writeDriver(op func(d *Driver) error) error {
	primary := f.Primary()
	if !primary.Client().Breaker().Allow() {
		// Before declaring degradation, let another member claim the
		// write: after a failover the old primary's breaker is open but
		// the promoted follower is healthy.
		if redirected := f.probePrimary(); redirected != nil {
			primary = redirected
		} else {
			f.notef("chirp failover: write degraded, primary %s breaker open", primary.Client().Addr())
			return fmt.Errorf("%w (primary %s)", ErrDegraded, primary.Client().Addr())
		}
	}
	err := op(primary)
	if cls, re := classOf(err); cls == classRedirect {
		if re.Primary != "" && f.setPrimaryAddr(re.Primary) {
			next := f.Primary()
			if rerr := op(next); !isTransient(rerr) && !errors.Is(rerr, ErrNotPrimary) {
				return rerr
			} else if rerr != nil {
				err = rerr
			}
		}
		f.notef("chirp failover: write degraded, no reachable primary: %v", err)
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	if isTransient(err) {
		f.notef("chirp failover: write degraded, primary %s: %v", primary.Client().Addr(), err)
		return fmt.Errorf("%w (primary %s): %v", ErrDegraded, primary.Client().Addr(), err)
	}
	return err
}

// probePrimary scans for a member with a closed breaker whose server
// explicitly reports the primary role, re-pointing the write path at
// it. Members of a role-less replica set never qualify — without a
// lease protocol, writing to a replica would fork the set's state, so
// those keep the classic writes-never-fail-over behavior.
func (f *FailoverDriver) probePrimary() *Driver {
	for i, d := range f.drivers {
		if d.Client().Breaker().State() == BreakerOpen {
			continue
		}
		st, err := d.Client().Stats()
		if err != nil || st.Role != "primary" {
			continue
		}
		if f.primaryIdx.Swap(int32(i)) != int32(i) {
			f.notef("chirp failover: primary is now %s (probe)", d.Client().Addr())
		}
		return d
	}
	return nil
}

// Open implements parrot.Driver. An open that is no write
// (vfs.Access.Writes) may fail over; one that may write through its
// descriptor, create or truncate is a write. Access mode 3 is no write,
// and whichever member gets it refuses it.
func (f *FailoverDriver) Open(p *kernel.Proc, path string, flags int, mode uint32) (parrot.File, error) {
	if acc, _ := vfs.OpenAccess(flags); !acc.Writes() {
		return readVia(f, "open "+path, func(d *Driver) (parrot.File, error) { return d.Open(p, path, flags, mode) })
	}
	var file parrot.File
	err := f.writeDriver(func(d *Driver) error {
		var err error
		file, err = d.Open(p, path, flags, mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return file, nil
}

// Stat implements parrot.Driver.
func (f *FailoverDriver) Stat(p *kernel.Proc, path string) (vfs.Stat, error) {
	return readVia(f, "stat "+path, func(d *Driver) (vfs.Stat, error) { return d.Stat(p, path) })
}

// Lstat implements parrot.Driver.
func (f *FailoverDriver) Lstat(p *kernel.Proc, path string) (vfs.Stat, error) {
	return readVia(f, "lstat "+path, func(d *Driver) (vfs.Stat, error) { return d.Lstat(p, path) })
}

// Readlink implements parrot.Driver.
func (f *FailoverDriver) Readlink(p *kernel.Proc, path string) (string, error) {
	return readVia(f, "readlink "+path, func(d *Driver) (string, error) { return d.Readlink(p, path) })
}

// ReadDir implements parrot.Driver.
func (f *FailoverDriver) ReadDir(p *kernel.Proc, path string) ([]vfs.DirEntry, error) {
	return readVia(f, "readdir "+path, func(d *Driver) ([]vfs.DirEntry, error) { return d.ReadDir(p, path) })
}

// ReadACL implements parrot.Driver.
func (f *FailoverDriver) ReadACL(p *kernel.Proc, dir string) (*acl.Version, error) {
	return readVia(f, "read "+vfs.Join(dir, acl.FileName), func(d *Driver) (*acl.Version, error) { return d.ReadACL(p, dir) })
}

// Mkdir implements parrot.Driver (the server installs the child ACL,
// as in Driver).
func (f *FailoverDriver) Mkdir(p *kernel.Proc, path string, mode uint32, childACL *acl.ACL) error {
	return f.writeDriver(func(d *Driver) error { return d.Mkdir(p, path, mode, childACL) })
}

// Rmdir implements parrot.Driver.
func (f *FailoverDriver) Rmdir(p *kernel.Proc, path string) error {
	return f.writeDriver(func(d *Driver) error { return d.Rmdir(p, path) })
}

// Unlink implements parrot.Driver.
func (f *FailoverDriver) Unlink(p *kernel.Proc, path string) error {
	return f.writeDriver(func(d *Driver) error { return d.Unlink(p, path) })
}

// Link implements parrot.Driver.
func (f *FailoverDriver) Link(p *kernel.Proc, oldPath, newPath string) error {
	return f.writeDriver(func(d *Driver) error { return d.Link(p, oldPath, newPath) })
}

// Symlink implements parrot.Driver.
func (f *FailoverDriver) Symlink(p *kernel.Proc, target, linkPath string) error {
	return f.writeDriver(func(d *Driver) error { return d.Symlink(p, target, linkPath) })
}

// Rename implements parrot.Driver.
func (f *FailoverDriver) Rename(p *kernel.Proc, oldPath, newPath string) error {
	return f.writeDriver(func(d *Driver) error { return d.Rename(p, oldPath, newPath) })
}

// Chmod implements parrot.Driver (a no-op on Chirp, as in Driver).
func (f *FailoverDriver) Chmod(p *kernel.Proc, path string, mode uint32) error {
	return f.Primary().Chmod(p, path, mode)
}

// Truncate implements parrot.Driver.
func (f *FailoverDriver) Truncate(p *kernel.Proc, path string, size int64) error {
	return f.writeDriver(func(d *Driver) error { return d.Truncate(p, path, size) })
}

// WriteFileSmall implements parrot.Driver.
func (f *FailoverDriver) WriteFileSmall(p *kernel.Proc, path string, data []byte, mode uint32) error {
	return f.writeDriver(func(d *Driver) error { return d.WriteFileSmall(p, path, data, mode) })
}

var _ parrot.Driver = (*FailoverDriver)(nil)
