package core

import (
	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/parrot"
	"identitybox/internal/policy"
	"identitybox/internal/trap"
	"identitybox/internal/vfs"
)

// This file implements kernel.Tracer for the Box: the supervisor side of
// the Figure-4 protocol. Every trapped call is either implemented by
// delegation to a driver and nullified, rewritten to move bulk data
// through the I/O channel, or (for process-local calls like getpid)
// allowed through natively.

// SyscallEntry implements kernel.Tracer. The wrapper records the
// observation state for this call — entry clock reading, Figure 5(a)
// class, verdict — around the dispatch in syscallEntry. By the time it
// runs the kernel has already charged the entry half of the protocol
// (two context switches plus trap decode), so SyscallExit adds those
// back when it reconstructs the call's full cost.
func (b *Box) SyscallEntry(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	st := b.state(p)
	st.entryAt = p.Clock().Now()
	st.entryCls = classify(f)
	b.emitPhase(p, obs.PhaseTrapEntry, f.Sys.String(), f.Path, len(f.Buf))
	act := b.syscallEntry(p, f, st)
	st.entryAct = act
	return act
}

// syscallEntry is the supervisor's entry-stop dispatch.
func (b *Box) syscallEntry(p *kernel.Proc, f *kernel.Frame, st *procState) kernel.EntryAction {
	p.Charge(b.model.SupervisorFixed)

	switch f.Sys {
	case kernel.SysGetpid, kernel.SysGetppid, kernel.SysGetcwd,
		kernel.SysWait, kernel.SysExit:
		return kernel.ActionNative

	case kernel.SysGetUserName:
		f.Str = b.ident.String()
		b.chargePoke(p, len(f.Str))
		f.SetResult(0)
		return kernel.ActionNullify

	case kernel.SysChdir:
		return b.entryChdir(p, f)

	case kernel.SysStat, kernel.SysLstat:
		return b.entryStat(p, f)

	case kernel.SysFstat:
		fd, ok := st.fds[f.FD]
		if !ok {
			f.SetError(kernel.ErrBadFD)
			return kernel.ActionNullify
		}
		if fd.pipe != nil {
			f.Stat = vfs.Stat{Type: vfs.TypeRegular, Mode: 0o600, Nlink: 1, Size: int64(fd.pipe.Buffered())}
			b.chargePoke(p, statBytes)
			f.SetResult(0)
			return kernel.ActionNullify
		}
		stt, err := fd.file.Stat()
		if err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		f.Stat = stt
		b.chargePoke(p, statBytes)
		f.SetResult(0)
		return kernel.ActionNullify

	case kernel.SysAccess:
		return b.entryAccess(p, f)

	case kernel.SysOpen:
		return b.entryOpen(p, f, st)

	case kernel.SysClose:
		fd, ok := st.fds[f.FD]
		if !ok {
			f.SetError(kernel.ErrBadFD)
			return kernel.ActionNullify
		}
		delete(st.fds, f.FD)
		b.closeBoxFD(fd)
		f.SetResult(0)
		return kernel.ActionNullify

	case kernel.SysPipe:
		// Pipes are process-tree-local: the supervisor creates the
		// shared buffer itself; both ends carry the box identity via
		// the owning processes.
		r, w := kernel.NewPipe(0)
		rfd := st.nextFD
		wfd := st.nextFD + 1
		st.nextFD += 2
		st.fds[rfd] = &boxFD{pipe: r, path: "pipe:[r]", flags: kernel.ORdonly, refs: 1}
		st.fds[wfd] = &boxFD{pipe: w, path: "pipe:[w]", flags: kernel.OWronly, refs: 1}
		f.SetResult(int64(rfd))
		f.FD = wfd
		return kernel.ActionNullify

	case kernel.SysRead, kernel.SysPread:
		return b.entryRead(p, f, st)

	case kernel.SysWrite, kernel.SysPwrite:
		return b.entryWrite(p, f, st)

	case kernel.SysLseek:
		return b.entryLseek(p, f, st)

	case kernel.SysDup:
		fd, ok := st.fds[f.FD]
		if !ok {
			f.SetError(kernel.ErrBadFD)
			return kernel.ActionNullify
		}
		// Shared open file description, as dup(2) specifies.
		nfd := st.nextFD
		st.nextFD++
		fd.refs++
		if fd.pipe != nil {
			fd.pipe.Ref()
		}
		st.fds[nfd] = fd
		f.SetResult(int64(nfd))
		return kernel.ActionNullify

	case kernel.SysMkdir:
		return b.entryMkdir(p, f)

	case kernel.SysRmdir:
		return b.entryPathOp(p, f, acl.Write, policy.NoFollow, func(d driverOp) error {
			// A directory holding only its ACL file counts as empty:
			// the ACL is removed with the directory, as Chirp does.
			if ents, lerr := d.d.ReadDir(p, d.rel); lerr == nil &&
				len(ents) == 1 && ents[0].Name == acl.FileName {
				if uerr := d.d.Unlink(p, vfs.Join(d.rel, acl.FileName)); uerr != nil {
					return uerr
				}
			}
			return d.d.Rmdir(p, d.rel)
		})

	case kernel.SysUnlink:
		return b.entryUnlink(p, f)

	case kernel.SysLink:
		return b.entryLink(p, f)

	case kernel.SysSymlink:
		return b.entryPathOp(p, f, acl.Write, policy.NoFollow, func(d driverOp) error {
			return d.d.Symlink(p, f.Path2, d.rel)
		})

	case kernel.SysReadlink:
		return b.entryReadlink(p, f)

	case kernel.SysRename:
		return b.entryRename(p, f)

	case kernel.SysChmod:
		return b.entryPathOp(p, f, acl.Write, policy.Follow, func(d driverOp) error {
			return d.d.Chmod(p, d.rel, f.Mode)
		})

	case kernel.SysTruncate:
		return b.entryPathOp(p, f, acl.Write, policy.Follow, func(d driverOp) error {
			return d.d.Truncate(p, d.rel, f.Off)
		})

	case kernel.SysGetdents:
		return b.entryGetdents(p, f)

	case kernel.SysGetACL:
		return b.entryGetACL(p, f)

	case kernel.SysSetACL:
		return b.entrySetACL(p, f)

	case kernel.SysSpawn:
		// The visitor needs both the read and execute rights on the
		// program (and the kernel will re-check the supervisor's own
		// Unix x bit natively).
		if err := b.check(p, f.Path, acl.Read, policy.Follow); err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		if err := b.check(p, f.Path, acl.Execute, policy.Follow); err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		return kernel.ActionNative

	case kernel.SysKill:
		return b.entryKill(p, f)

	default:
		f.SetError(kernel.ErrNoSys)
		return kernel.ActionNullify
	}
}

// SyscallExit implements kernel.Tracer: it completes pending bulk
// writes, records the call in the audit log, and observes the call's
// full cost into the class histogram. The clock delta since entry
// misses the kernel's boundary charges (two switches plus decode
// before SyscallEntry, two switches after SyscallExit), so those are
// added back: the histogram reports what the application experienced.
func (b *Box) SyscallExit(p *kernel.Proc, f *kernel.Frame) {
	st := b.state(p)
	if pw := st.pending; pw != nil {
		st.pending = nil
		if f.Err == nil && f.Ret > 0 {
			data := b.channel.CollectWrite(p, b.model, pw.region[:f.Ret])
			b.emitPhase(p, obs.PhaseChannelCollect, f.Sys.String(), pw.fd.path, len(data))
			n, err := pw.fd.file.WriteAt(data, pw.off)
			if err != nil {
				f.SetError(err)
			} else {
				f.SetResult(int64(n))
				if pw.sequential {
					pw.fd.off = pw.off + int64(n)
				}
			}
		}
	}
	b.recordAudit(p, f)
	delta := p.Clock().Now() - st.entryAt
	full := delta + 4*b.model.ContextSwitch + b.model.TrapDecode
	b.metrics.latency[st.entryCls].Observe(float64(full))
	b.emitPhase(p, completionPhase(st.entryAct), f.Sys.String(), f.Path, int(f.Ret))
}

// driverOp bundles a resolved driver call target.
type driverOp struct {
	d   kernelDriver
	rel string
}

// kernelDriver is the subset alias to keep signatures short.
type kernelDriver = interface {
	Rmdir(p *kernel.Proc, path string) error
	Symlink(p *kernel.Proc, target, linkPath string) error
	Chmod(p *kernel.Proc, path string, mode uint32) error
	Truncate(p *kernel.Proc, path string, size int64) error
	ReadDir(p *kernel.Proc, path string) ([]vfs.DirEntry, error)
	Unlink(p *kernel.Proc, path string) error
}

// entryPathOp factors the common pattern: rewrite, authorize, resolve
// the driver, run the operation, nullify.
func (b *Box) entryPathOp(p *kernel.Proc, f *kernel.Frame, want acl.Rights, how policy.How, op func(driverOp) error) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, want, how); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := op(driverOp{d: d, rel: rel}); err != nil {
		f.SetError(err)
	} else {
		f.SetResult(0)
	}
	return kernel.ActionNullify
}

func (b *Box) entryChdir(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.List, policy.Dir); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	st, err := d.Stat(p, rel)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if !st.IsDir() {
		f.SetError(&vfs.PathError{Op: "chdir", Path: f.Path, Err: vfs.ErrNotDir})
		return kernel.ActionNullify
	}
	p.SetCwd(path)
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryStat(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.List, policy.Follow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	var stt vfs.Stat
	if f.Sys == kernel.SysStat {
		stt, err = d.Stat(p, rel)
	} else {
		stt, err = d.Lstat(p, rel)
	}
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.Stat = stt
	b.chargePoke(p, statBytes)
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryAccess(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	// One check per class asked for, read then write then execute; a
	// bare existence probe (F_OK) takes List.
	var err error
	if f.Flags&(kernel.AccessR|kernel.AccessW|kernel.AccessX) == 0 {
		err = b.check(p, path, acl.List, policy.Follow)
	}
	if err == nil && f.Flags&kernel.AccessR != 0 {
		err = b.check(p, path, acl.Read, policy.Follow)
	}
	if err == nil && f.Flags&kernel.AccessW != 0 {
		err = b.check(p, path, acl.Write, policy.Follow)
	}
	if err == nil && f.Flags&kernel.AccessX != 0 {
		err = b.check(p, path, acl.Execute, policy.Follow)
	}
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	// Verify existence through the driver.
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if _, err := d.Stat(p, rel); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryOpen(p *kernel.Proc, f *kernel.Frame, st *procState) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	// Read, then write, then the directory write a create implies — each
	// its own evaluation, charged as such, even when O_CREAT repeats the
	// write an O_WRONLY open already passed.
	var err error
	acc := f.Flags & 3
	if acc == kernel.ORdonly || acc == kernel.ORdwr {
		err = b.check(p, path, acl.Read, policy.Follow)
	}
	if err == nil && (acc == kernel.OWronly || acc == kernel.ORdwr) {
		err = b.check(p, path, acl.Write, policy.Follow)
	}
	if err == nil && f.Flags&kernel.OCreat != 0 {
		err = b.check(p, path, acl.Write, policy.Follow)
	}
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if b.opts.MaxOpenFiles > 0 && len(st.fds) >= b.opts.MaxOpenFiles {
		f.SetError(&vfs.PathError{Op: "open", Path: f.Path, Err: ErrTooManyFiles})
		return kernel.ActionNullify
	}
	file, err := d.Open(p, rel, f.Flags, f.Mode)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	fd := st.nextFD
	st.nextFD++
	bfd := &boxFD{file: file, path: path, flags: f.Flags, refs: 1}
	if f.Flags&kernel.OAppend != 0 {
		if s, serr := file.Stat(); serr == nil {
			bfd.off = s.Size
		}
	}
	st.fds[fd] = bfd
	f.SetResult(int64(fd))
	return kernel.ActionNullify
}

func (b *Box) entryRead(p *kernel.Proc, f *kernel.Frame, st *procState) kernel.EntryAction {
	fd, ok := st.fds[f.FD]
	if !ok {
		f.SetError(kernel.ErrBadFD)
		return kernel.ActionNullify
	}
	if fd.flags&3 == kernel.OWronly {
		f.SetError(kernel.ErrBadFD)
		return kernel.ActionNullify
	}
	off := fd.off
	if f.Sys == kernel.SysPread {
		off = f.Off
	}
	if cap(st.scratch) < len(f.Buf) {
		st.scratch = make([]byte, len(f.Buf))
	}
	buf := st.scratch[:len(f.Buf)]
	var n int
	var err error
	if fd.pipe != nil {
		if f.Sys == kernel.SysPread {
			f.SetError(vfs.ErrInvalid) // ESPIPE
			return kernel.ActionNullify
		}
		n, err = fd.pipe.Read(p, buf)
	} else {
		n, err = fd.file.ReadAt(buf, off)
	}
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if f.Sys == kernel.SysRead {
		fd.off += int64(n)
	}
	if n == 0 {
		f.SetResult(0)
		return kernel.ActionNullify
	}
	if n <= trap.BulkThreshold || b.opts.ForcePeekPoke {
		// Small transfer (or channel ablated): poke the data directly
		// into the child, word by word.
		trap.PokeBytes(p, b.model, f.Buf, buf[:n])
		b.emitPhase(p, obs.PhasePoke, f.Sys.String(), fd.path, n)
		f.SetResult(int64(n))
		return kernel.ActionNullify
	}
	// Bulk transfer: stage in the I/O channel; the kernel performs the
	// final copy into the application buffer.
	f.ChanData = b.channel.StageRead(p, b.model, buf[:n])
	b.emitPhase(p, obs.PhaseChannelStage, f.Sys.String(), fd.path, n)
	return kernel.ActionChannelRead
}

func (b *Box) entryWrite(p *kernel.Proc, f *kernel.Frame, st *procState) kernel.EntryAction {
	fd, ok := st.fds[f.FD]
	if !ok {
		f.SetError(kernel.ErrBadFD)
		return kernel.ActionNullify
	}
	if fd.flags&3 == kernel.ORdonly {
		f.SetError(kernel.ErrBadFD)
		return kernel.ActionNullify
	}
	if fd.pipe != nil {
		if f.Sys == kernel.SysPwrite {
			f.SetError(vfs.ErrInvalid) // ESPIPE
			return kernel.ActionNullify
		}
		// Pipe writes always move by peek: the target is the shared
		// buffer, not a driver file the channel path could complete
		// against at syscall exit.
		if cap(st.scratch) < len(f.Buf) {
			st.scratch = make([]byte, len(f.Buf))
		}
		buf := st.scratch[:len(f.Buf)]
		trap.PeekBytes(p, b.model, buf, f.Buf)
		b.emitPhase(p, obs.PhasePeek, f.Sys.String(), fd.path, len(buf))
		n, err := fd.pipe.Write(p, buf)
		if err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		f.SetResult(int64(n))
		return kernel.ActionNullify
	}
	off := fd.off
	if fd.flags&kernel.OAppend != 0 {
		if s, err := fd.file.Stat(); err == nil {
			off = s.Size
		}
	}
	if f.Sys == kernel.SysPwrite {
		off = f.Off
	}
	if len(f.Buf) <= trap.BulkThreshold || b.opts.ForcePeekPoke {
		// Small transfer (or channel ablated): peek the child's buffer
		// and write directly.
		if cap(st.scratch) < len(f.Buf) {
			st.scratch = make([]byte, len(f.Buf))
		}
		buf := st.scratch[:len(f.Buf)]
		trap.PeekBytes(p, b.model, buf, f.Buf)
		b.emitPhase(p, obs.PhasePeek, f.Sys.String(), fd.path, len(buf))
		n, err := fd.file.WriteAt(buf, off)
		if err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		if f.Sys == kernel.SysWrite {
			fd.off = off + int64(n)
		}
		f.SetResult(int64(n))
		return kernel.ActionNullify
	}
	// Bulk transfer: the call is rewritten to a pwrite on the channel;
	// the kernel copies the application data out, and the supervisor
	// completes the driver write at syscall exit.
	region := b.channel.ReserveWrite(len(f.Buf))
	f.ChanData = region
	st.pending = &pendingWrite{
		fd:         fd,
		off:        off,
		region:     region,
		sequential: f.Sys == kernel.SysWrite,
	}
	return kernel.ActionChannelWrite
}

func (b *Box) entryLseek(p *kernel.Proc, f *kernel.Frame, st *procState) kernel.EntryAction {
	fd, ok := st.fds[f.FD]
	if !ok {
		f.SetError(kernel.ErrBadFD)
		return kernel.ActionNullify
	}
	if fd.pipe != nil {
		f.SetError(vfs.ErrInvalid) // ESPIPE
		return kernel.ActionNullify
	}
	var base int64
	switch f.Flags {
	case kernel.SeekSet:
		base = 0
	case kernel.SeekCur:
		base = fd.off
	case kernel.SeekEnd:
		s, err := fd.file.Stat()
		if err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
		base = s.Size
	default:
		f.SetError(vfs.ErrInvalid)
		return kernel.ActionNullify
	}
	no := base + f.Off
	if no < 0 {
		f.SetError(vfs.ErrInvalid)
		return kernel.ActionNullify
	}
	fd.off = no
	f.SetResult(no)
	return kernel.ActionNullify
}

func (b *Box) entryMkdir(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	childACL, err := b.checkMkdir(p, path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := d.Mkdir(p, rel, f.Mode); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if m, ok := d.(parrot.ACLManager); ok && m.ManagesACLs() {
		// The remote service installed the child ACL itself.
		f.SetResult(0)
		return kernel.ActionNullify
	}
	if childACL != nil {
		aclPath := vfs.Join(rel, acl.FileName)
		if err := d.WriteFileSmall(p, aclPath, []byte(childACL.String()), 0o644); err != nil {
			f.SetError(err)
			return kernel.ActionNullify
		}
	}
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryUnlink(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.Write, policy.NoFollow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := d.Unlink(p, rel); err != nil {
		f.SetError(err)
	} else {
		f.SetResult(0)
	}
	return kernel.ActionNullify
}

func (b *Box) entryLink(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	oldPath := b.rewritePath(f.Path)
	newPath := b.rewritePath(f.Path2)
	// No ACL can be checked through a hard link after creation, so the
	// box refuses links to files the visitor cannot read now — and to
	// ACL files the visitor may not edit (policy.LinkOld).
	if err := b.check(p, oldPath, acl.Read, policy.LinkOld); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := b.check(p, newPath, acl.Write, policy.NoFollow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d1, rel1, err := b.driverFor(oldPath)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d2, rel2, err := b.driverFor(newPath)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if d1 != d2 {
		f.SetError(vfs.ErrCrossDevice)
		return kernel.ActionNullify
	}
	if err := d1.Link(p, rel1, rel2); err != nil {
		f.SetError(err)
	} else {
		f.SetResult(0)
	}
	return kernel.ActionNullify
}

func (b *Box) entryReadlink(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.List, policy.NoFollow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	t, err := d.Readlink(p, rel)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.Str = t
	b.chargePoke(p, len(t))
	f.SetResult(int64(len(t)))
	return kernel.ActionNullify
}

func (b *Box) entryRename(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	oldPath := b.rewritePath(f.Path)
	newPath := b.rewritePath(f.Path2)
	if err := b.check(p, oldPath, acl.Write, policy.NoFollow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := b.check(p, newPath, acl.Write, policy.NoFollow); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d1, rel1, err := b.driverFor(oldPath)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d2, rel2, err := b.driverFor(newPath)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if d1 != d2 {
		f.SetError(vfs.ErrCrossDevice)
		return kernel.ActionNullify
	}
	if err := d1.Rename(p, rel1, rel2); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryGetdents(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.List, policy.Dir); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	ents, err := d.ReadDir(p, rel)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.Entries = ents
	b.chargePoke(p, direntBytes*len(ents))
	f.SetResult(int64(len(ents)))
	return kernel.ActionNullify
}

func (b *Box) entryGetACL(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.List, policy.Dir); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	data, err := d.ReadFileSmall(p, vfs.Join(rel, acl.FileName))
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.Str = string(data)
	b.chargePoke(p, len(data))
	f.SetResult(int64(len(data)))
	return kernel.ActionNullify
}

func (b *Box) entrySetACL(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	path := b.rewritePath(f.Path)
	if err := b.check(p, path, acl.Admin, policy.Dir); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if _, err := acl.Parse(f.Str); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	d, rel, err := b.driverFor(path)
	if err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	if err := d.WriteFileSmall(p, vfs.Join(rel, acl.FileName), []byte(f.Str), 0o644); err != nil {
		f.SetError(err)
		return kernel.ActionNullify
	}
	f.SetResult(0)
	return kernel.ActionNullify
}

func (b *Box) entryKill(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	target := b.k.FindProc(f.PID)
	if target == nil {
		f.SetError(kernel.ErrSearch)
		return kernel.ActionNullify
	}
	// A process in an identity box may only signal processes carrying
	// the same identity.
	if target.Identity() != b.ident {
		f.SetError(kernel.ErrPermission)
		return kernel.ActionNullify
	}
	b.k.DeliverSignal(target, f.Sig)
	f.SetResult(0)
	return kernel.ActionNullify
}

var _ kernel.Tracer = (*Box)(nil)
var _ kernel.ProcessWatcher = (*Box)(nil)
