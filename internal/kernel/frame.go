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
// "open("/work/sim.exe", 0x0) = 3": f.Call().String().
func (f *Frame) Describe() string { return f.Call().String() }

// Call is one system call's arguments and result as values: what an
// audit log keeps of a trapped call. Taking one allocates nothing; the
// text is rendered only when something reads it (String, MarshalText).
type Call struct {
	Sys    Sysno
	Path   string // primary pathname
	Path2  string // secondary pathname (rename, link, symlink target)
	Str    string // setacl's ACL text or a string result; a note's whole text (NoteCall)
	FD     int
	BufLen int // length of the user buffer, not its bytes
	Off    int64
	Flags  int
	PID    int // target of kill/wait
	Sig    int
	Ret    int64
	Err    error
}

// sysNote marks a Call that is a note, not a system call: its text is
// Str, rendered as is.
const sysNote Sysno = -1

// NoteCall makes a Call that renders as text: an out-of-band audit
// event, or a record read back from a rendered log.
func NoteCall(text string) Call { return Call{Sys: sysNote, Str: text} }

// Call returns the frame's call as a value.
func (f *Frame) Call() Call {
	return Call{
		Sys: f.Sys, Path: f.Path, Path2: f.Path2, Str: f.Str,
		FD: f.FD, BufLen: len(f.Buf), Off: f.Off, Flags: f.Flags,
		PID: f.PID, Sig: f.Sig, Ret: f.Ret, Err: f.Err,
	}
}

// String renders the call, e.g. "open("/work/sim.exe", 0x0) = 3". It
// appends into a stack buffer and allocates only the returned string
// (plus whatever the result error's Error builds).
func (c Call) String() string {
	if c.Sys == sysNote {
		return c.Str
	}
	var buf [128]byte
	return string(c.appendText(buf[:0]))
}

// MarshalText implements encoding.TextMarshaler: the String form, so a
// JSON audit line carries the call as one string.
func (c Call) MarshalText() ([]byte, error) { return c.appendText(nil), nil }

// UnmarshalText implements encoding.TextUnmarshaler: the text comes
// back as a note that renders exactly as it was written.
func (c *Call) UnmarshalText(text []byte) error {
	*c = NoteCall(string(text))
	return nil
}

// appendText appends the String form to b.
func (c Call) appendText(b []byte) []byte {
	if c.Sys == sysNote {
		return append(b, c.Str...)
	}
	b = append(b, c.Sys.String()...)
	b = append(b, '(')
	switch c.Sys {
	case SysStat, SysLstat, SysAccess, SysMkdir, SysRmdir, SysUnlink,
		SysReadlink, SysChmod, SysTruncate, SysGetdents, SysChdir,
		SysGetACL, SysSpawn:
		b = strconv.AppendQuote(b, c.Path)
	case SysOpen:
		b = strconv.AppendQuote(b, c.Path)
		b = append(b, ", "...)
		b = appendHex(b, c.Flags)
	case SysRename, SysLink, SysSymlink:
		b = strconv.AppendQuote(b, c.Path)
		b = append(b, ", "...)
		b = strconv.AppendQuote(b, c.Path2)
	case SysSetACL:
		b = strconv.AppendQuote(b, c.Path)
		b = append(b, ", "...)
		b = strconv.AppendQuote(b, c.Str)
	case SysRead, SysWrite, SysPread, SysPwrite:
		b = strconv.AppendInt(b, int64(c.FD), 10)
		b = append(b, ", ["...)
		b = strconv.AppendInt(b, int64(c.BufLen), 10)
		b = append(b, " bytes]"...)
	case SysClose, SysFstat, SysDup:
		b = strconv.AppendInt(b, int64(c.FD), 10)
	case SysLseek:
		b = strconv.AppendInt(b, int64(c.FD), 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, c.Off, 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, int64(c.Flags), 10)
	case SysKill:
		b = strconv.AppendInt(b, int64(c.PID), 10)
		b = append(b, ", "...)
		b = strconv.AppendInt(b, int64(c.Sig), 10)
	case SysWait:
		b = strconv.AppendInt(b, int64(c.PID), 10)
	}
	b = append(b, ") = "...)
	if c.Err != nil {
		return append(b, c.Err.Error()...)
	}
	return strconv.AppendInt(b, c.Ret, 10)
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
