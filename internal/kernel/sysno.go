package kernel

import "identitybox/internal/vfs"

// Sysno identifies a system call in the simulated kernel's ABI. The set
// mirrors the calls Parrot must interpose on: file access, metadata,
// directory manipulation, process management, signals — plus the one new
// call identity boxing adds, get_user_name.
type Sysno int

const (
	SysGetpid Sysno = iota
	SysGetppid
	SysStat
	SysLstat
	SysFstat
	SysAccess
	SysOpen
	SysClose
	SysRead
	SysWrite
	SysPread
	SysPwrite
	SysLseek
	SysDup
	SysMkdir
	SysRmdir
	SysUnlink
	SysLink
	SysSymlink
	SysReadlink
	SysRename
	SysChmod
	SysTruncate
	SysGetdents
	SysGetcwd
	SysChdir
	SysSpawn // fork+exec of a registered program
	SysWait
	SysExit
	SysKill
	SysGetUserName // new with identity boxing: report the boxed identity
	SysGetACL      // read the ACL protecting a directory
	SysSetACL      // modify the ACL protecting a directory

	// Deliberately unimplemented interfaces, kept for fidelity to the
	// paper (Section 6): Parrot does not implement ptrace — processes
	// inside the box cannot debug each other — and administrator-only
	// calls like mount are refused. Both return ENOSYS everywhere.
	SysPtrace
	SysMount

	SysPipe // create a pipe: IPC between processes in the same tree

	sysnoCount // number of syscalls; keep last
)

var sysnoNames = [...]string{
	SysGetpid:      "getpid",
	SysGetppid:     "getppid",
	SysStat:        "stat",
	SysLstat:       "lstat",
	SysFstat:       "fstat",
	SysAccess:      "access",
	SysOpen:        "open",
	SysClose:       "close",
	SysRead:        "read",
	SysWrite:       "write",
	SysPread:       "pread",
	SysPwrite:      "pwrite",
	SysLseek:       "lseek",
	SysDup:         "dup",
	SysMkdir:       "mkdir",
	SysRmdir:       "rmdir",
	SysUnlink:      "unlink",
	SysLink:        "link",
	SysSymlink:     "symlink",
	SysReadlink:    "readlink",
	SysRename:      "rename",
	SysChmod:       "chmod",
	SysTruncate:    "truncate",
	SysGetdents:    "getdents",
	SysGetcwd:      "getcwd",
	SysChdir:       "chdir",
	SysSpawn:       "spawn",
	SysWait:        "wait",
	SysExit:        "exit",
	SysKill:        "kill",
	SysGetUserName: "get_user_name",
	SysGetACL:      "getacl",
	SysSetACL:      "setacl",
	SysPtrace:      "ptrace",
	SysMount:       "mount",
	SysPipe:        "pipe",
}

// String names the syscall, e.g. "open".
func (s Sysno) String() string {
	if s >= 0 && int(s) < len(sysnoNames) && sysnoNames[s] != "" {
		return sysnoNames[s]
	}
	return "sys?"
}

// Open flags, following the Unix convention; vfs defines them.
const (
	ORdonly = vfs.ORdonly
	OWronly = vfs.OWronly
	ORdwr   = vfs.ORdwr
	OCreat  = vfs.OCreat
	OTrunc  = vfs.OTrunc
	OAppend = vfs.OAppend
	OExcl   = vfs.OExcl
)

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Access mode bits (as in access(2)).
const (
	AccessExists = 0
	AccessR      = 4
	AccessW      = 2
	AccessX      = 1
)

// Signals. Only the handful the experiments need.
const (
	SigKill = 9
	SigTerm = 15
)
