package kernel

import (
	"errors"
	"strconv"

	"identitybox/internal/vfs"
)

// Kernel-level sentinel errors, extending the VFS errno set.
var (
	ErrBadFD      = errors.New("bad file descriptor")
	ErrKilled     = errors.New("killed")
	ErrNoSys      = errors.New("function not implemented")
	ErrNoChild    = errors.New("no child processes")
	ErrSearch     = errors.New("no such process")
	ErrPermission = vfs.ErrPermission
	ErrNotExist   = vfs.ErrNotExist
)

// Frame carries one system call between the application, the kernel and
// (for traced processes) the supervisor. It stands in for the register
// set a real tracer would peek and poke.
type Frame struct {
	Sys Sysno

	// Arguments; which are meaningful depends on Sys.
	Path  string // primary pathname (already joined against cwd)
	Path2 string // secondary pathname (rename, link, symlink target)
	FD    int
	Buf   []byte // user data buffer (the application's memory)
	Off   int64  // offset for pread/pwrite/lseek/truncate
	Flags int    // open flags, lseek whence, access mode, wait options
	Mode  uint32 // permission bits for open/mkdir/chmod
	PID   int    // target for kill/wait
	Sig   int    // signal for kill
	Args  []string

	// Results.
	Ret     int64
	Err     error
	Str     string         // result string (getcwd, readlink, get_user_name, getacl)
	Stat    vfs.Stat       // result of stat family
	Entries []vfs.DirEntry // result of getdents

	// Tracing state.
	Nullified bool   // converted to getpid by the supervisor
	ChanData  []byte // I/O-channel region staged by the supervisor
}

// Describe renders the frame for audit logs and traces, e.g.
// "open("/work/sim.exe", 0x0) = 3". It runs at every trapped call's
// exit, so it appends into a stack buffer and allocates only the
// returned string (plus whatever the result error's Error builds).
func (f *Frame) Describe() string {
	var buf [128]byte
	b := append(buf[:0], f.Sys.String()...)
	b = append(b, '(')
	switch f.Sys {
	case SysStat, SysLstat, SysAccess, SysMkdir, SysRmdir, SysUnlink,
		SysReadlink, SysChmod, SysTruncate, SysGetdents, SysChdir,
		SysGetACL, SysSpawn:
		b = strconv.AppendQuote(b, f.Path)
	case SysOpen:
		b = strconv.AppendQuote(b, f.Path)
		b = append(b, ", "...)
		b = appendHex(b, f.Flags)
	case SysRename, SysLink, SysSymlink:
		b = strconv.AppendQuote(b, f.Path)
		b = append(b, ", "...)
		b = strconv.AppendQuote(b, f.Path2)
	case SysSetACL:
		b = strconv.AppendQuote(b, f.Path)
		b = append(b, ", "...)
		b = strconv.AppendQuote(b, f.Str)
	case SysRead, SysWrite, SysPread, SysPwrite:
		b = strconv.AppendInt(b, int64(f.FD), 10)
		b = append(b, ", ["...)
		b = strconv.AppendInt(b, int64(len(f.Buf)), 10)
		b = append(b, " bytes]"...)
	case SysClose, SysFstat, SysDup:
		b = strconv.AppendInt(b, int64(f.FD), 10)
	case SysLseek:
		b = strconv.AppendInt(b, int64(f.FD), 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, f.Off, 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, int64(f.Flags), 10)
	case SysKill:
		b = strconv.AppendInt(b, int64(f.PID), 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, int64(f.Sig), 10)
	case SysWait:
		b = strconv.AppendInt(b, int64(f.PID), 10)
	}
	b = append(b, ") = "...)
	if f.Err != nil {
		b = append(b, f.Err.Error()...)
	} else {
		b = strconv.AppendInt(b, f.Ret, 10)
	}
	return string(b)
}

// appendHex appends v as fmt's %#x renders an int: "0x" and lower-case
// hex digits, after a minus sign when v is negative.
func appendHex(b []byte, v int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	b = append(b, "0x"...)
	return strconv.AppendUint(b, u, 16)
}

// SetResult stages a return value (and clears any error).
func (f *Frame) SetResult(ret int64) {
	f.Ret = ret
	f.Err = nil
}

// SetError stages an error result with return value -1, the way a
// supervisor pokes "permission denied" into a stopped child.
func (f *Frame) SetError(err error) {
	f.Ret = -1
	f.Err = err
}

// EntryAction is the supervisor's verdict on a trapped syscall entry.
type EntryAction int

const (
	// ActionNative lets the kernel execute the original call unchanged.
	ActionNative EntryAction = iota
	// ActionNullify converts the call to getpid(); the supervisor has
	// already staged the result (or error) in the frame.
	ActionNullify
	// ActionChannelRead means the supervisor staged data in
	// Frame.ChanData; the (rewritten) call natively copies it into the
	// application buffer, reproducing the I/O-channel read path of
	// Figure 4(b).
	ActionChannelRead
	// ActionChannelWrite means the rewritten call natively copies the
	// application buffer out into Frame.ChanData; the supervisor
	// completes the write from the channel at syscall exit.
	ActionChannelWrite
)

// Tracer is the ptrace-style hook a supervisor installs on a process.
// SyscallEntry runs with the child stopped at syscall entry; SyscallExit
// runs with the child stopped at syscall exit, before it resumes.
type Tracer interface {
	SyscallEntry(p *Proc, f *Frame) EntryAction
	SyscallExit(p *Proc, f *Frame)
}
