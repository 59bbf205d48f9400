// Package kernel implements the simulated operating-system kernel that
// stands in for Linux beneath Parrot: a process table, per-process file
// descriptors, a complete syscall ABI over the in-memory VFS, Unix
// permission checks, signals, and a ptrace-like tracing hook.
//
// Tracing reproduces the control flow of Figure 4 in the paper: a traced
// process stops at syscall entry, its supervisor examines (and may
// rewrite or nullify) the call, the kernel executes the possibly-
// rewritten call, the process stops again at syscall exit, and finally
// resumes — six context switches in all, each charged to the process's
// virtual clock. Untraced processes pay only the native cost, giving the
// "unmodified" baseline of Figure 5.
package kernel

import (
	"fmt"
	"strings"
	"sync"

	"identitybox/internal/identity"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// RootAccount is the privileged local account; it bypasses Unix checks.
const RootAccount = "root"

// ProgHeader prefixes executable file contents; the remainder of the
// first line names a registered Program. Staging a remote executable
// means writing a file with this header — the identity box never
// interprets the "binary", it only mediates its system calls, so a
// registry program exercises the same enforcement paths a real binary
// would (see DESIGN.md, substitutions).
const ProgHeader = "#!prog "

// ProcessWatcher may be implemented by a Tracer to observe process
// creation and exit, the way Parrot follows forks of its children.
type ProcessWatcher interface {
	ProcStart(parent, child *Proc)
	ProcExit(p *Proc, code int)
}

// Kernel is a simulated OS instance: one file system, one process table,
// one program registry. Safe for concurrent use by multiple processes.
//
// Locking: the process table and the program registry are independent,
// so each has its own lock — concurrent Start/exit traffic never
// contends with program resolution, and the registry lock is a
// read-mostly RWMutex (registration happens at setup; every spawn only
// reads). Neither lock is ever held while calling into the VFS.
type Kernel struct {
	fs    *vfs.FS
	model vclock.CostModel

	procMu  sync.Mutex // guards procs and nextPID
	procs   map[int]*Proc
	nextPID int

	progMu   sync.RWMutex // guards programs (read-mostly)
	programs map[string]Program
}

// New creates a kernel over the given file system using the cost model.
func New(fs *vfs.FS, model vclock.CostModel) *Kernel {
	return &Kernel{
		fs:       fs,
		model:    model,
		procs:    make(map[int]*Proc),
		nextPID:  1,
		programs: make(map[string]Program),
	}
}

// FS returns the kernel's file system, for test and bootstrap setup that
// bypasses process permissions (like mkfs or a root shell would).
func (k *Kernel) FS() *vfs.FS { return k.fs }

// Model returns the kernel's cost model.
func (k *Kernel) Model() vclock.CostModel { return k.model }

// RegisterProgram installs a program under a name referenced by
// executable files ("#!prog name").
func (k *Kernel) RegisterProgram(name string, prog Program) {
	k.progMu.Lock()
	defer k.progMu.Unlock()
	k.programs[name] = prog
}

// InstallExecutable writes an executable file at path whose contents
// dispatch to the named registered program, creating parent directories
// as needed.
func (k *Kernel) InstallExecutable(path, progName, owner string) error {
	if dir := vfs.Dir(path); dir != "/" {
		if err := k.fs.MkdirAll(dir, 0o755, owner); err != nil {
			return err
		}
	}
	return k.fs.WriteFile(path, []byte(ProgHeader+progName+"\n"), 0o755, owner)
}

// ExecutableBytes returns the file contents that dispatch to a
// registered program, for callers staging executables remotely.
func ExecutableBytes(progName string) []byte {
	return []byte(ProgHeader + progName + "\n")
}

// ProcSpec configures a new top-level process.
type ProcSpec struct {
	Account  string             // local Unix account; defaults to "user"
	Cwd      string             // working directory; defaults to "/"
	Tracer   Tracer             // optional supervisor
	Clock    *vclock.Clock      // job clock; fresh if nil
	Identity identity.Principal // optional high-level identity
}

// ExitStatus summarizes a finished process tree.
type ExitStatus struct {
	Code     int
	Killed   bool
	Runtime  vclock.Micros // virtual CPU time accumulated by the job
	Syscalls int64         // syscalls issued by the top-level process
}

func (k *Kernel) newProc(spec ProcSpec) *Proc {
	if spec.Account == "" {
		spec.Account = "user"
	}
	if spec.Cwd == "" {
		spec.Cwd = "/"
	}
	clock := spec.Clock
	if clock == nil {
		clock = &vclock.Clock{}
	}
	k.procMu.Lock()
	pid := k.nextPID
	k.nextPID++
	p := &Proc{
		k:        k,
		pid:      pid,
		account:  spec.Account,
		ident:    spec.Identity,
		cwd:      spec.Cwd,
		fds:      make(map[int]*fdesc),
		nextFD:   3, // 0,1,2 notionally stdio
		tracer:   spec.Tracer,
		clock:    clock,
		statuses: make(map[int]int),
	}
	k.procs[pid] = p
	k.procMu.Unlock()
	return p
}

func (k *Kernel) removeProc(p *Proc) {
	k.procMu.Lock()
	delete(k.procs, p.pid)
	k.procMu.Unlock()
}

// findProc looks up a live process by pid.
func (k *Kernel) findProc(pid int) *Proc {
	k.procMu.Lock()
	defer k.procMu.Unlock()
	return k.procs[pid]
}

// FindProc looks up a live process by pid; supervisors use it to apply
// identity checks before delivering signals.
func (k *Kernel) FindProc(pid int) *Proc { return k.findProc(pid) }

// Run executes prog as a new top-level process and returns its status.
// The process tree runs synchronously on the caller's goroutine.
func (k *Kernel) Run(spec ProcSpec, prog Program, args ...string) ExitStatus {
	p := k.newProc(spec)
	if w, ok := asWatcher(p.tracer); ok {
		w.ProcStart(nil, p)
	}
	start := p.clock.Now()
	code := k.runProgram(p, prog, args)
	if w, ok := asWatcher(p.tracer); ok {
		w.ProcExit(p, code)
	}
	k.reapProc(p)
	return ExitStatus{
		Code:     code,
		Killed:   p.killed.Load(),
		Runtime:  p.clock.Now() - start,
		Syscalls: p.syscalls,
	}
}

func asWatcher(t Tracer) (ProcessWatcher, bool) {
	if t == nil {
		return nil, false
	}
	w, ok := t.(ProcessWatcher)
	return w, ok
}

// runProgram executes a program body, translating Exit panics and kill
// delivery into exit codes.
func (k *Kernel) runProgram(p *Proc, prog Program, args []string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(procExit); ok {
				code = pe.code
				return
			}
			panic(r)
		}
		if p.killed.Load() {
			code = 128 + int(p.killSig.Load())
		}
	}()
	return prog(p, args)
}

// DeliverSignal forcibly delivers a fatal signal to a process; the
// identity-box supervisor calls this after its own identity check. A
// process parked in a blocking syscall (pipe I/O) is woken.
func (k *Kernel) DeliverSignal(target *Proc, sig int) {
	target.killSig.Store(int32(sig))
	target.killed.Store(true)
	target.wake()
}

// Async is a handle on a process started with Start.
type Async struct {
	PID  int
	done chan ExitStatus
}

// Wait blocks until the process tree finishes.
func (a *Async) Wait() ExitStatus { return <-a.done }

// Start runs prog as a new top-level process on its own goroutine,
// returning immediately. Concurrent processes may communicate through
// pipes and signals; blocking syscalls park the goroutine without
// consuming virtual CPU time.
func (k *Kernel) Start(spec ProcSpec, prog Program, args ...string) *Async {
	p := k.newProc(spec)
	a := &Async{PID: p.pid, done: make(chan ExitStatus, 1)}
	go func() {
		if w, ok := asWatcher(p.tracer); ok {
			w.ProcStart(nil, p)
		}
		start := p.clock.Now()
		code := k.runProgram(p, prog, args)
		if w, ok := asWatcher(p.tracer); ok {
			w.ProcExit(p, code)
		}
		k.reapProc(p)
		a.done <- ExitStatus{
			Code:     code,
			Killed:   p.killed.Load(),
			Runtime:  p.clock.Now() - start,
			Syscalls: p.syscalls,
		}
	}()
	return a
}

// reapProc releases a finished process: its descriptors are closed
// (dropping pipe references so peers see EOF/EPIPE) and it leaves the
// process table.
func (k *Kernel) reapProc(p *Proc) {
	for fd := range p.fds {
		k.closeFD(p, fd)
	}
	k.removeProc(p)
}

// closeFD drops one descriptor. Pipe-end reference counts track
// descriptors one-for-one (creation, dup and inheritance all Ref), so
// every descriptor close is one Unref; the end hangs up when the last
// descriptor goes.
func (k *Kernel) closeFD(p *Proc, fd int) error {
	d, ok := p.fds[fd]
	if !ok {
		return ErrBadFD
	}
	delete(p.fds, fd)
	d.refs--
	if d.pipe != nil {
		d.pipe.Unref()
	}
	return nil
}

// --- syscall dispatch ---------------------------------------------------

// doSyscall carries one frame through the kernel, including the Figure-4
// tracing protocol when the process is traced.
func (k *Kernel) doSyscall(p *Proc, f *Frame) {
	p.syscalls++
	if p.killed.Load() && f.Sys != SysExit {
		f.SetError(ErrKilled)
		return
	}
	m := k.model
	if p.tracer == nil {
		k.execute(p, f)
		return
	}

	// (1) application -> kernel: syscall entry stop.
	// (2) kernel -> supervisor: notify and decode.
	p.Charge(2*m.ContextSwitch + m.TrapDecode)
	act := p.tracer.SyscallEntry(p, f)

	switch act {
	case ActionNullify:
		// (3,4) the original call is rewritten to getpid and resumed;
		// the supervisor has already staged the result in the frame.
		f.Nullified = true
		p.Charge(2 * m.ContextSwitch)
		p.Charge(m.SyscallFixed + m.GetPID)
	case ActionChannelRead:
		// The call was rewritten to a pread on the I/O channel: the
		// kernel natively copies staged channel data into the
		// application's buffer.
		p.Charge(2 * m.ContextSwitch)
		n := copy(f.Buf, f.ChanData)
		f.SetResult(int64(n))
		p.Charge(m.SyscallFixed + m.ReadFixed + m.CopyPerByte*vclock.Micros(n))
	case ActionChannelWrite:
		// The call was rewritten to a pwrite on the I/O channel: the
		// kernel natively copies the application's buffer out to the
		// channel; the supervisor completes the write at exit.
		p.Charge(2 * m.ContextSwitch)
		n := copy(f.ChanData, f.Buf)
		f.SetResult(int64(n))
		p.Charge(m.SyscallFixed + m.WriteFixed + m.CopyPerByte*vclock.Micros(n))
	default: // ActionNative
		// (3,4) resumed unchanged; kernel executes the original call.
		p.Charge(2 * m.ContextSwitch)
		k.execute(p, f)
	}

	// (5) kernel -> supervisor: syscall exit stop.
	// (6) supervisor -> application: final resume.
	p.tracer.SyscallExit(p, f)
	p.Charge(2 * m.ContextSwitch)
}

// pathCost charges per-component directory lookup.
func (k *Kernel) pathCost(path string) vclock.Micros {
	return k.model.DirEntry * vclock.Micros(vfs.PathComponents(path))
}

// UnixAllows reports whether the owner or other permission bits of st
// grant account every bit of want (4 read, 2 write, 1 execute). Root
// passes every check. Parrot's local driver applies the same rule for
// its supervising account.
func UnixAllows(st vfs.Stat, account string, want uint32) bool {
	if account == RootAccount {
		return true
	}
	var bits uint32
	if st.Owner == account {
		bits = (st.Mode >> 6) & 7
	} else {
		bits = st.Mode & 7
	}
	return bits&want == want
}

// execute implements a frame natively against the VFS and the process's
// descriptor table, charging native costs.
func (k *Kernel) execute(p *Proc, f *Frame) {
	m := k.model
	switch f.Sys {
	case SysGetpid:
		p.Charge(m.SyscallFixed + m.GetPID)
		f.SetResult(int64(p.pid))

	case SysGetppid:
		p.Charge(m.SyscallFixed + m.GetPID)
		f.SetResult(int64(p.ppid))

	case SysGetUserName:
		p.Charge(m.SyscallFixed + m.GetPID)
		f.Str = p.account
		f.SetResult(0)

	case SysStat, SysLstat:
		p.Charge(m.SyscallFixed + m.Stat + k.pathCost(f.Path))
		var st vfs.Stat
		var err error
		if f.Sys == SysStat {
			st, err = k.fs.Stat(f.Path)
		} else {
			st, err = k.fs.Lstat(f.Path)
		}
		if err != nil {
			f.SetError(err)
			return
		}
		f.Stat = st
		f.SetResult(0)

	case SysFstat:
		p.Charge(m.SyscallFixed + m.Stat/2)
		d, ok := p.fds[f.FD]
		if !ok {
			f.SetError(ErrBadFD)
			return
		}
		if d.pipe != nil {
			f.Stat = pipeStat(d.pipe)
		} else {
			f.Stat = d.h.Stat()
		}
		f.SetResult(0)

	case SysAccess:
		p.Charge(m.SyscallFixed + m.Stat + k.pathCost(f.Path))
		st, err := k.fs.Stat(f.Path)
		if err != nil {
			f.SetError(err)
			return
		}
		if f.Flags != AccessExists && !UnixAllows(st, p.account, uint32(f.Flags&7)) {
			f.SetError(ErrPermission)
			return
		}
		f.SetResult(0)

	case SysOpen:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		k.execOpen(p, f)

	case SysClose:
		p.Charge(m.SyscallFixed + m.Close)
		if err := k.closeFD(p, f.FD); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysRead, SysPread, SysWrite, SysPwrite:
		k.execIO(p, f)

	case SysLseek:
		p.Charge(m.SyscallFixed)
		d, ok := p.fds[f.FD]
		if !ok {
			f.SetError(ErrBadFD)
			return
		}
		if d.pipe != nil {
			f.SetError(vfs.ErrInvalid) // ESPIPE
			return
		}
		var base int64
		switch f.Flags {
		case SeekSet:
			base = 0
		case SeekCur:
			base = d.off
		case SeekEnd:
			base = d.h.Size()
		default:
			f.SetError(vfs.ErrInvalid)
			return
		}
		no := base + f.Off
		if no < 0 {
			f.SetError(vfs.ErrInvalid)
			return
		}
		d.off = no
		f.SetResult(no)

	case SysDup:
		p.Charge(m.SyscallFixed)
		d, ok := p.fds[f.FD]
		if !ok {
			f.SetError(ErrBadFD)
			return
		}
		// Both descriptors share one open file description, so the
		// offset moves in lockstep, as dup(2) specifies.
		nfd := p.nextFD
		p.nextFD++
		d.refs++
		if d.pipe != nil {
			d.pipe.Ref()
		}
		p.fds[nfd] = d
		f.SetResult(int64(nfd))

	case SysPipe:
		p.Charge(m.SyscallFixed + m.Open)
		r, w := NewPipe(PipeCapacity)
		rfd := p.nextFD
		wfd := p.nextFD + 1
		p.nextFD += 2
		p.fds[rfd] = &fdesc{pipe: r, path: "pipe:[r]", acc: vfs.MayRead, refs: 1}
		p.fds[wfd] = &fdesc{pipe: w, path: "pipe:[w]", acc: vfs.MayWrite, refs: 1}
		f.SetResult(int64(rfd))
		f.FD = wfd

	case SysMkdir:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		if err := k.fs.Mkdir(f.Path, f.Mode, p.account); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysRmdir:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		if err := k.fs.Rmdir(f.Path); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysUnlink:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		if err := k.fs.Unlink(f.Path); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysLink:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path) + k.pathCost(f.Path2))
		if err := k.fs.Link(f.Path, f.Path2); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysSymlink:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		if err := k.fs.Symlink(f.Path2, f.Path, p.account); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysReadlink:
		p.Charge(m.SyscallFixed + m.Stat + k.pathCost(f.Path))
		t, err := k.fs.Readlink(f.Path)
		if err != nil {
			f.SetError(err)
			return
		}
		f.Str = t
		f.SetResult(int64(len(t)))

	case SysRename:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path) + k.pathCost(f.Path2))
		if err := k.fs.Rename(f.Path, f.Path2); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysChmod:
		p.Charge(m.SyscallFixed + m.Stat + k.pathCost(f.Path))
		st, err := k.fs.Stat(f.Path)
		if err != nil {
			f.SetError(err)
			return
		}
		if p.account != RootAccount && st.Owner != p.account {
			f.SetError(ErrPermission)
			return
		}
		if err := k.fs.Chmod(f.Path, f.Mode); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysTruncate:
		p.Charge(m.SyscallFixed + m.Open + k.pathCost(f.Path))
		if err := k.fs.Truncate(f.Path, f.Off); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	case SysGetdents:
		ents, err := k.fs.ReadDir(f.Path)
		p.Charge(m.SyscallFixed + m.ReadFixed + m.DirEntry*vclock.Micros(len(ents)) + k.pathCost(f.Path))
		if err != nil {
			f.SetError(err)
			return
		}
		f.Entries = ents
		f.SetResult(int64(len(ents)))

	case SysGetcwd:
		p.Charge(m.SyscallFixed)
		f.Str = p.cwd
		f.SetResult(0)

	case SysChdir:
		p.Charge(m.SyscallFixed + m.Stat + k.pathCost(f.Path))
		st, err := k.fs.Stat(f.Path)
		if err != nil {
			f.SetError(err)
			return
		}
		if !st.IsDir() {
			f.SetError(vfs.ErrNotDir)
			return
		}
		p.cwd = vfs.Clean(f.Path)
		f.SetResult(0)

	case SysSpawn:
		k.execSpawn(p, f)

	case SysWait:
		p.Charge(m.SyscallFixed + m.ProcessWait)
		k.execWait(p, f)

	case SysExit:
		p.Charge(m.SyscallFixed)

	case SysKill:
		p.Charge(m.SyscallFixed)
		target := k.findProc(f.PID)
		if target == nil {
			f.SetError(ErrSearch)
			return
		}
		if p.account != RootAccount && p.account != target.account {
			f.SetError(ErrPermission)
			return
		}
		k.DeliverSignal(target, f.Sig)
		f.SetResult(0)

	case SysGetACL:
		aclPath := vfs.Join(f.Path, ACLFileName)
		p.Charge(m.SyscallFixed + m.Open + m.ReadFixed + k.pathCost(aclPath))
		data, err := k.fs.ReadFile(aclPath)
		if err != nil {
			f.SetError(err)
			return
		}
		f.Str = string(data)
		f.SetResult(int64(len(data)))

	case SysSetACL:
		aclPath := vfs.Join(f.Path, ACLFileName)
		p.Charge(m.SyscallFixed + m.Open + m.WriteFixed + k.pathCost(aclPath))
		st, err := k.fs.Stat(f.Path)
		if err != nil {
			f.SetError(err)
			return
		}
		if p.account != RootAccount && st.Owner != p.account {
			f.SetError(ErrPermission)
			return
		}
		if err := k.fs.WriteFile(aclPath, []byte(f.Str), 0o644, p.account); err != nil {
			f.SetError(err)
			return
		}
		f.SetResult(0)

	default:
		p.Charge(m.SyscallFixed)
		f.SetError(ErrNoSys)
	}
}

// ACLFileName mirrors acl.FileName without importing the package (the
// kernel is below the policy layer; it only knows where the file lives).
const ACLFileName = ".__acl"

// execIO runs a read or write, plain or positioned, on a descriptor.
// One check comes first, for a file and a pipe end alike: the descriptor
// reads only with vfs.MayRead and writes only with vfs.MayWrite, or the
// call is EBADF. A refused plain call on a pipe end is charged as a
// transfer of no bytes, any other refusal the fixed syscall charge.
func (k *Kernel) execIO(p *Proc, f *Frame) {
	m := k.model
	write := f.Sys == SysWrite || f.Sys == SysPwrite
	positioned := f.Sys == SysPread || f.Sys == SysPwrite
	want := vfs.MayRead
	if write {
		want = vfs.MayWrite
	}
	d, ok := p.fds[f.FD]
	switch {
	case !ok || d.acc&want == 0:
		if ok && d.pipe != nil && !positioned {
			p.Charge(pipeIOCost(m, 0))
		} else {
			p.Charge(m.SyscallFixed)
		}
		f.SetError(ErrBadFD)
		return
	case d.pipe != nil && positioned:
		p.Charge(m.SyscallFixed)
		f.SetError(vfs.ErrInvalid) // ESPIPE
		return
	}
	off := d.off
	switch {
	case positioned:
		off = f.Off
	case write && d.flags&OAppend != 0:
		off = d.h.Size()
	}
	var n int
	var err error
	switch {
	case d.pipe != nil && write:
		n, err = d.pipe.Write(p, f.Buf)
		p.Charge(pipeIOCost(m, n))
	case d.pipe != nil:
		n, err = d.pipe.Read(p, f.Buf)
		p.Charge(pipeIOCost(m, n))
	case write:
		n, err = d.h.WriteAt(f.Buf, off)
		p.Charge(m.SyscallFixed + m.WriteFixed + m.CopyPerByte*vclock.Micros(n))
	default:
		n, err = d.h.ReadAt(f.Buf, off)
		p.Charge(m.SyscallFixed + m.ReadFixed + m.CopyPerByte*vclock.Micros(n))
	}
	if err != nil {
		f.SetError(err)
		return
	}
	if d.pipe == nil && !positioned {
		d.off = off + int64(n)
	}
	f.SetResult(int64(n))
}

func (k *Kernel) execOpen(p *Proc, f *Frame) {
	acc, err := OpenAllowed(k.fs, f.Path, f.Flags, p.account)
	if err != nil {
		f.SetError(err)
		return
	}
	h, err := k.fs.OpenFile(f.Path, f.Flags, f.Mode, p.account)
	if err != nil {
		f.SetError(err)
		return
	}
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &fdesc{h: h, path: f.Path, flags: f.Flags, acc: acc, refs: 1}
	f.SetResult(int64(fd))
}

// OpenAllowed reads the access an open's flags ask for (vfs.OpenAccess,
// which refuses access mode 3) and applies Unix permission bits to it:
// creating a missing file takes write permission on its directory,
// opening an existing one read for MayRead and write for a write
// (vfs.Access.Writes). An open that vfs.FS.OpenFile
// refuses whatever the bits say (O_CREAT|O_EXCL of an existing name, a
// writable open of a directory) passes here, so its own error comes first.
func OpenAllowed(fs *vfs.FS, path string, flags int, account string) (vfs.Access, error) {
	acc, err := vfs.OpenAccess(flags)
	if err != nil {
		return 0, &vfs.PathError{Op: "open", Path: path, Err: err}
	}
	var want uint32 // Unix bits: 4 to read, 2 to write
	if acc&vfs.MayRead != 0 {
		want = 4
	}
	if acc.Writes() {
		want |= 2
	}
	st, err := fs.Stat(path)
	switch {
	case err != nil && flags&OCreat != 0:
		if st, err = fs.Stat(vfs.Dir(path)); err != nil {
			return 0, err
		}
		want = 2
	case err != nil, flags&(OCreat|OExcl) == OCreat|OExcl, st.IsDir() && acc&vfs.MayWrite != 0:
		return acc, nil
	}
	if !UnixAllows(st, account, want) {
		return 0, ErrPermission
	}
	return acc, nil
}

func (k *Kernel) execSpawn(p *Proc, f *Frame) {
	m := k.model
	p.Charge(m.SyscallFixed + m.ProcessSpawn + k.pathCost(f.Path))
	prog, err := k.resolveProgram(p, f.Path)
	if err != nil {
		f.SetError(err)
		return
	}
	child := k.newProc(ProcSpec{
		Account:  p.account,
		Cwd:      p.cwd,
		Tracer:   p.tracer,
		Clock:    p.clock,
		Identity: p.ident,
	})
	child.ppid = p.pid
	// The child inherits the parent's open descriptors (fork
	// semantics), sharing the open file descriptions — this is what
	// lets a pipe connect them.
	for fd, d := range p.fds {
		d.refs++
		if d.pipe != nil {
			d.pipe.Ref()
		}
		child.fds[fd] = d
	}
	if child.nextFD <= p.nextFD {
		child.nextFD = p.nextFD
	}
	if w, ok := asWatcher(p.tracer); ok {
		w.ProcStart(p, child)
	}
	code := k.runProgram(child, prog, f.Args)
	if w, ok := asWatcher(p.tracer); ok {
		w.ProcExit(child, code)
	}
	k.reapProc(child)
	p.statuses[child.pid] = code
	p.finished = append(p.finished, child.pid)
	f.SetResult(int64(child.pid))
}

// resolveProgram loads the executable file at path and resolves it to a
// registered program, enforcing the native execute permission.
func (k *Kernel) resolveProgram(p *Proc, path string) (Program, error) {
	st, err := k.fs.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return nil, vfs.ErrIsDir
	}
	if !UnixAllows(st, p.account, 1) {
		return nil, ErrPermission
	}
	data, err := k.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	line := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.HasPrefix(line, ProgHeader) {
		return nil, fmt.Errorf("spawn %s: %w", path, ErrNoSys)
	}
	name := strings.TrimSpace(strings.TrimPrefix(line, ProgHeader))
	k.progMu.RLock()
	prog, ok := k.programs[name]
	k.progMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("spawn %s: program %q not registered: %w", path, name, ErrNotExist)
	}
	return prog, nil
}

func (k *Kernel) execWait(p *Proc, f *Frame) {
	if len(p.finished) == 0 {
		f.SetError(ErrNoChild)
		return
	}
	want := f.PID
	idx := -1
	if want < 0 {
		idx = 0
	} else {
		for i, pid := range p.finished {
			if pid == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			f.SetError(ErrNoChild)
			return
		}
	}
	pid := p.finished[idx]
	p.finished = append(p.finished[:idx], p.finished[idx+1:]...)
	f.Flags = p.statuses[pid]
	delete(p.statuses, pid)
	f.SetResult(int64(pid))
}
