package kernel

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"identitybox/internal/identity"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Program is the body of a simulated process: ordinary Go code that
// performs its external effects exclusively through the Proc's syscall
// wrappers, the way a real binary's effects all pass through the kernel.
// The returned int is the exit code.
type Program func(p *Proc, args []string) int

// Proc is one simulated process. All syscall wrappers charge virtual
// time to the process's clock; a traced process additionally stops at
// syscall entry and exit for its supervisor.
type Proc struct {
	k       *Kernel
	pid     int
	ppid    int
	account string // local Unix account the process runs under
	ident   identity.Principal
	cwd     string
	fds     map[int]*fdesc
	nextFD  int
	tracer  Tracer
	clock   *vclock.Clock
	killed  atomic.Bool
	killSig atomic.Int32

	// blockedOn is the condition the process is parked on during a
	// blocking syscall, so a fatal signal can wake it.
	blockMu   sync.Mutex
	blockedOn *sync.Cond

	// statuses holds exit statuses of children not yet waited for,
	// keyed by pid, plus the order they finished in.
	statuses map[int]int
	finished []int

	syscalls int64 // count of syscalls issued, for traces and tests

	// frame is the one syscall frame every wrapper resets through
	// syscall, so a trapped call does not move a fresh Frame to the
	// heap. It is sound because a process issues its syscalls from one
	// goroutine, one at a time (a spawned child runs with its own Proc
	// and frame), and no tracer or kernel path keeps the *Frame past
	// doSyscall: results are copied out before the wrapper returns.
	frame Frame
}

type fdesc struct {
	h     *vfs.Handle
	pipe  *PipeEnd // non-nil for pipe descriptors
	path  string
	off   int64
	flags int
	acc   vfs.Access // what the open granted; pipe ends get their direction
	refs  int        // descriptors (across dup and inheritance) sharing this
}

// PID reports the process id.
func (p *Proc) PID() int { return p.pid }

// Account reports the local Unix account the process runs under.
func (p *Proc) Account() string { return p.account }

// Identity reports the high-level identity attached by a supervisor, if
// any. Inside an identity box this is the visiting principal.
func (p *Proc) Identity() identity.Principal { return p.ident }

// SetIdentity attaches a high-level identity; called by the identity-box
// supervisor when it adopts the process.
func (p *Proc) SetIdentity(id identity.Principal) { p.ident = id }

// Clock returns the process's virtual CPU clock.
func (p *Proc) Clock() *vclock.Clock { return p.clock }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Cwd reports the current working directory.
func (p *Proc) Cwd() string { return p.cwd }

// SetCwd changes the working directory without a syscall; supervisors
// use it when they implement chdir on behalf of a traced child (e.g.
// into a remote mount the kernel cannot resolve natively).
func (p *Proc) SetCwd(dir string) { p.cwd = vfs.Clean(dir) }

// Charge adds virtual time to the process's clock. Supervisors use it to
// bill their own work (ACL checks, peeks and pokes, channel copies) to
// the stopped child.
func (p *Proc) Charge(d vclock.Micros) { p.clock.Advance(d) }

// Compute models application CPU work between system calls: it advances
// virtual time without entering the kernel.
func (p *Proc) Compute(d vclock.Micros) { p.clock.Advance(d) }

// SyscallCount reports how many system calls the process has issued.
func (p *Proc) SyscallCount() int64 { return p.syscalls }

// Killed reports whether a fatal signal has been delivered.
func (p *Proc) Killed() bool { return p.killed.Load() }

// setBlockedOn records (or clears) the condition this process is parked
// on, so DeliverSignal can wake it.
func (p *Proc) setBlockedOn(c *sync.Cond) {
	p.blockMu.Lock()
	p.blockedOn = c
	p.blockMu.Unlock()
}

// wake broadcasts whatever condition the process is blocked on.
func (p *Proc) wake() {
	p.blockMu.Lock()
	c := p.blockedOn
	p.blockMu.Unlock()
	if c != nil {
		c.Broadcast()
	}
}

// abs joins a possibly relative path against the cwd and cleans it, so
// every Frame carries an absolute path (the supervisor depends on this,
// just as Parrot tracks each child's cwd).
func (p *Proc) abs(path string) string {
	if strings.HasPrefix(path, "/") {
		return vfs.Clean(path)
	}
	return vfs.Join(p.cwd, path)
}

// --- syscall wrappers -------------------------------------------------

// syscall resets the process's frame to f, carries it through the
// kernel and returns it for the wrapper to copy its results out of.
func (p *Proc) syscall(f Frame) *Frame {
	p.frame = f
	p.k.doSyscall(p, &p.frame)
	return &p.frame
}

// Getpid returns the process id.
func (p *Proc) Getpid() int {
	return int(p.syscall(Frame{Sys: SysGetpid}).Ret)
}

// Getppid returns the parent process id.
func (p *Proc) Getppid() int {
	return int(p.syscall(Frame{Sys: SysGetppid}).Ret)
}

// GetUserName returns the identity attached to the process: inside an
// identity box, the visiting principal; outside, the local account.
// This is the one new system call identity boxing introduces.
func (p *Proc) GetUserName() string {
	return p.syscall(Frame{Sys: SysGetUserName}).Str
}

// Open opens path with Unix-style flags, returning a file descriptor.
func (p *Proc) Open(path string, flags int, mode uint32) (int, error) {
	f := p.syscall(Frame{Sys: SysOpen, Path: p.abs(path), Flags: flags, Mode: mode})
	return int(f.Ret), f.Err
}

// Close releases a file descriptor.
func (p *Proc) Close(fd int) error {
	return p.syscall(Frame{Sys: SysClose, FD: fd}).Err
}

// Read reads up to len(buf) bytes at the descriptor's offset.
func (p *Proc) Read(fd int, buf []byte) (int, error) {
	f := p.syscall(Frame{Sys: SysRead, FD: fd, Buf: buf})
	return int(f.Ret), f.Err
}

// Write writes len(buf) bytes at the descriptor's offset.
func (p *Proc) Write(fd int, buf []byte) (int, error) {
	f := p.syscall(Frame{Sys: SysWrite, FD: fd, Buf: buf})
	return int(f.Ret), f.Err
}

// Pread reads at an explicit offset without moving the descriptor.
func (p *Proc) Pread(fd int, buf []byte, off int64) (int, error) {
	f := p.syscall(Frame{Sys: SysPread, FD: fd, Buf: buf, Off: off})
	return int(f.Ret), f.Err
}

// Pwrite writes at an explicit offset without moving the descriptor.
func (p *Proc) Pwrite(fd int, buf []byte, off int64) (int, error) {
	f := p.syscall(Frame{Sys: SysPwrite, FD: fd, Buf: buf, Off: off})
	return int(f.Ret), f.Err
}

// Lseek repositions the descriptor's offset.
func (p *Proc) Lseek(fd int, off int64, whence int) (int64, error) {
	f := p.syscall(Frame{Sys: SysLseek, FD: fd, Off: off, Flags: whence})
	return f.Ret, f.Err
}

// Dup duplicates a file descriptor.
func (p *Proc) Dup(fd int) (int, error) {
	f := p.syscall(Frame{Sys: SysDup, FD: fd})
	return int(f.Ret), f.Err
}

// Pipe creates a unidirectional channel and returns (readFD, writeFD).
// Children spawned afterwards inherit both ends, enabling IPC within
// the process tree.
func (p *Proc) Pipe() (readFD, writeFD int, err error) {
	f := p.syscall(Frame{Sys: SysPipe})
	return int(f.Ret), f.FD, f.Err
}

// Stat reports metadata for path, following symlinks.
func (p *Proc) Stat(path string) (vfs.Stat, error) {
	f := p.syscall(Frame{Sys: SysStat, Path: p.abs(path)})
	return f.Stat, f.Err
}

// Lstat reports metadata without following a final symlink.
func (p *Proc) Lstat(path string) (vfs.Stat, error) {
	f := p.syscall(Frame{Sys: SysLstat, Path: p.abs(path)})
	return f.Stat, f.Err
}

// Fstat reports metadata for an open descriptor.
func (p *Proc) Fstat(fd int) (vfs.Stat, error) {
	f := p.syscall(Frame{Sys: SysFstat, FD: fd})
	return f.Stat, f.Err
}

// Access checks whether the process may access path with the given mode.
func (p *Proc) Access(path string, mode int) error {
	return p.syscall(Frame{Sys: SysAccess, Path: p.abs(path), Flags: mode}).Err
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(path string, mode uint32) error {
	return p.syscall(Frame{Sys: SysMkdir, Path: p.abs(path), Mode: mode}).Err
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) error {
	return p.syscall(Frame{Sys: SysRmdir, Path: p.abs(path)}).Err
}

// Unlink removes a file or symlink.
func (p *Proc) Unlink(path string) error {
	return p.syscall(Frame{Sys: SysUnlink, Path: p.abs(path)}).Err
}

// Link creates a hard link newPath to oldPath.
func (p *Proc) Link(oldPath, newPath string) error {
	return p.syscall(Frame{Sys: SysLink, Path: p.abs(oldPath), Path2: p.abs(newPath)}).Err
}

// Symlink creates a symbolic link at linkPath pointing at target.
// The target is stored verbatim (it may be relative).
func (p *Proc) Symlink(target, linkPath string) error {
	return p.syscall(Frame{Sys: SysSymlink, Path: p.abs(linkPath), Path2: target}).Err
}

// Readlink reports a symlink's target.
func (p *Proc) Readlink(path string) (string, error) {
	f := p.syscall(Frame{Sys: SysReadlink, Path: p.abs(path)})
	return f.Str, f.Err
}

// Rename moves oldPath to newPath.
func (p *Proc) Rename(oldPath, newPath string) error {
	return p.syscall(Frame{Sys: SysRename, Path: p.abs(oldPath), Path2: p.abs(newPath)}).Err
}

// Chmod changes permission bits.
func (p *Proc) Chmod(path string, mode uint32) error {
	return p.syscall(Frame{Sys: SysChmod, Path: p.abs(path), Mode: mode}).Err
}

// Truncate sets a file's length.
func (p *Proc) Truncate(path string, size int64) error {
	return p.syscall(Frame{Sys: SysTruncate, Path: p.abs(path), Off: size}).Err
}

// ReadDir lists a directory.
func (p *Proc) ReadDir(path string) ([]vfs.DirEntry, error) {
	f := p.syscall(Frame{Sys: SysGetdents, Path: p.abs(path)})
	return f.Entries, f.Err
}

// Getcwd reports the working directory.
func (p *Proc) Getcwd() string {
	return p.syscall(Frame{Sys: SysGetcwd}).Str
}

// Chdir changes the working directory.
func (p *Proc) Chdir(path string) error {
	return p.syscall(Frame{Sys: SysChdir, Path: p.abs(path)}).Err
}

// Spawn forks and execs the program stored at path, passing args. The
// child runs to completion (a vfork-then-wait model); its status becomes
// collectable with Wait. Returns the child pid.
func (p *Proc) Spawn(path string, args ...string) (int, error) {
	f := p.syscall(Frame{Sys: SysSpawn, Path: p.abs(path), Args: args})
	return int(f.Ret), f.Err
}

// Wait collects the status of a finished child: pid < 0 waits for any.
func (p *Proc) Wait(pid int) (childPID, status int, err error) {
	f := p.syscall(Frame{Sys: SysWait, PID: pid})
	return int(f.Ret), f.Flags, f.Err
}

// Kill sends a signal to another process.
func (p *Proc) Kill(pid, sig int) error {
	return p.syscall(Frame{Sys: SysKill, PID: pid, Sig: sig}).Err
}

// Exit terminates the process with the given code. It does not return.
func (p *Proc) Exit(code int) {
	p.syscall(Frame{Sys: SysExit, Ret: int64(code)})
	panic(procExit{code})
}

// Ptrace is deliberately unimplemented (ENOSYS): processes under the
// supervisor cannot debug each other, matching the paper's Parrot.
func (p *Proc) Ptrace(pid int) error {
	return p.syscall(Frame{Sys: SysPtrace, PID: pid}).Err
}

// Mount is deliberately unimplemented (ENOSYS): administrator-only
// calls are refused, matching the paper's Parrot.
func (p *Proc) Mount(source, target string) error {
	return p.syscall(Frame{Sys: SysMount, Path: p.abs(target), Path2: source}).Err
}

// GetACL reports the ACL text protecting the directory at path.
func (p *Proc) GetACL(path string) (string, error) {
	f := p.syscall(Frame{Sys: SysGetACL, Path: p.abs(path)})
	return f.Str, f.Err
}

// SetACL replaces the ACL text protecting the directory at path.
func (p *Proc) SetACL(path, aclText string) error {
	return p.syscall(Frame{Sys: SysSetACL, Path: p.abs(path), Str: aclText}).Err
}

// --- conveniences built on the wrappers --------------------------------

// WriteFile creates (or truncates) path and writes data through
// ordinary open/write/close syscalls, repeating the write until every
// byte is taken.
func (p *Proc) WriteFile(path string, data []byte, mode uint32) error {
	fd, err := p.Open(path, OWronly|OCreat|OTrunc, mode)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		n, err := p.Write(fd, data)
		if err != nil {
			p.Close(fd)
			return err
		}
		data = data[n:]
	}
	return p.Close(fd)
}

// ReadFile reads the whole file through ordinary syscalls, 8 KiB per
// read. Each read lands straight in the result, whose capacity doubles
// when it is full; a read made with the result full goes through a
// separate 8 KiB buffer, so the last, empty read grows nothing.
func (p *Proc) ReadFile(path string) ([]byte, error) {
	const chunk = 8192
	fd, err := p.Open(path, ORdonly, 0)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, chunk)
	var spare []byte
	for {
		full := cap(out)-len(out) < chunk
		var dst []byte
		if full {
			if spare == nil {
				spare = make([]byte, chunk)
			}
			dst = spare
		} else {
			dst = out[len(out) : len(out)+chunk]
		}
		n, err := p.Read(fd, dst)
		if err != nil {
			p.Close(fd)
			return nil, err
		}
		if n == 0 {
			break
		}
		if full {
			out = append(slices.Grow(out, cap(out)), dst[:n]...)
		} else {
			out = out[:len(out)+n]
		}
	}
	return out, p.Close(fd)
}

// procExit is the panic value used to implement Exit.
type procExit struct{ code int }
