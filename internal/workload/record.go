package workload

import (
	"fmt"
	"sync"

	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Recorder is a kernel.Tracer that captures a program's system calls
// into a replayable Trace — the simulated-world equivalent of recording
// an application with strace to benchmark it later under an identity
// box. Recording is passive: every call passes through natively, and
// compute time between calls is reconstructed from the virtual clock.
type Recorder struct {
	mu      sync.Mutex
	ops     []TraceOp
	handles map[int]string // live fd -> trace handle name
	nextH   int
	lastNow map[*kernel.Proc]vclock.Micros
	// syscall cost charged since entry; used to exclude kernel time
	// from the reconstructed compute gaps.
	pending vclock.Micros
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		handles: make(map[int]string),
		lastNow: make(map[*kernel.Proc]vclock.Micros),
	}
}

// ProcStart implements kernel.ProcessWatcher: baseline the clock so
// compute before the first syscall is attributed.
func (r *Recorder) ProcStart(parent, child *kernel.Proc) {
	r.mu.Lock()
	r.lastNow[child] = child.Clock().Now()
	r.mu.Unlock()
}

// ProcExit implements kernel.ProcessWatcher.
func (r *Recorder) ProcExit(p *kernel.Proc, code int) {
	r.mu.Lock()
	delete(r.lastNow, p)
	r.mu.Unlock()
}

// Trace returns the recording so far.
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Trace{Ops: make([]TraceOp, len(r.ops))}
	copy(t.Ops, r.ops)
	return t
}

// SyscallEntry implements kernel.Tracer: note the gap since the last
// call as compute, then record the call.
func (r *Recorder) SyscallEntry(p *kernel.Proc, f *kernel.Frame) kernel.EntryAction {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := p.Clock().Now()
	if last, ok := r.lastNow[p]; ok && now > last {
		gap := float64(now - last)
		if gap > 0.01 {
			r.ops = append(r.ops, TraceOp{Verb: "compute", Micros: gap})
		}
	}
	return kernel.ActionNative
}

// SyscallExit implements kernel.Tracer: record the completed call with
// its results (the fd a successful open returned, the bytes a read
// moved).
func (r *Recorder) SyscallExit(p *kernel.Proc, f *kernel.Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() { r.lastNow[p] = p.Clock().Now() }()
	if f.Err != nil {
		return // replay only what succeeded
	}
	switch f.Sys {
	case kernel.SysOpen:
		r.nextH++
		name := fmt.Sprintf("h%d", r.nextH)
		r.handles[int(f.Ret)] = name
		mode := "ro"
		acc, _ := vfs.OpenAccess(f.Flags) // the open succeeded, so its mode is valid
		switch {
		case f.Flags&kernel.OCreat != 0 && f.Flags&kernel.OAppend != 0:
			mode = "app"
		case f.Flags&kernel.OCreat != 0:
			mode = "creat"
		case acc&vfs.MayRead == 0:
			mode = "wo"
		case acc&vfs.MayWrite != 0:
			mode = "rw"
		}
		r.ops = append(r.ops, TraceOp{Verb: "open", Handle: name, Path: f.Path, Flags: openFlagNames[mode]})
	case kernel.SysClose:
		if name, ok := r.handles[f.FD]; ok {
			r.ops = append(r.ops, TraceOp{Verb: "close", Handle: name})
			delete(r.handles, f.FD)
		}
	case kernel.SysRead:
		if name, ok := r.handles[f.FD]; ok {
			r.ops = append(r.ops, TraceOp{Verb: "read", Handle: name, Size: int(f.Ret)})
		}
	case kernel.SysWrite:
		if name, ok := r.handles[f.FD]; ok {
			r.ops = append(r.ops, TraceOp{Verb: "write", Handle: name, Size: int(f.Ret)})
		}
	case kernel.SysPread:
		if name, ok := r.handles[f.FD]; ok {
			r.ops = append(r.ops, TraceOp{Verb: "pread", Handle: name, Size: int(f.Ret), Off: f.Off})
		}
	case kernel.SysPwrite:
		if name, ok := r.handles[f.FD]; ok {
			r.ops = append(r.ops, TraceOp{Verb: "pwrite", Handle: name, Size: int(f.Ret), Off: f.Off})
		}
	case kernel.SysStat:
		r.ops = append(r.ops, TraceOp{Verb: "stat", Path: f.Path})
	case kernel.SysLstat:
		r.ops = append(r.ops, TraceOp{Verb: "lstat", Path: f.Path})
	case kernel.SysGetdents:
		r.ops = append(r.ops, TraceOp{Verb: "readdir", Path: f.Path})
	case kernel.SysMkdir:
		r.ops = append(r.ops, TraceOp{Verb: "mkdir", Path: f.Path})
	case kernel.SysRmdir:
		r.ops = append(r.ops, TraceOp{Verb: "rmdir", Path: f.Path})
	case kernel.SysUnlink:
		r.ops = append(r.ops, TraceOp{Verb: "unlink", Path: f.Path})
	case kernel.SysChdir:
		r.ops = append(r.ops, TraceOp{Verb: "chdir", Path: f.Path})
	case kernel.SysRename:
		r.ops = append(r.ops, TraceOp{Verb: "rename", Path: f.Path, Handle: f.Path2})
	case kernel.SysSymlink:
		r.ops = append(r.ops, TraceOp{Verb: "symlink", Path: f.Path2, Handle: f.Path})
	case kernel.SysLink:
		r.ops = append(r.ops, TraceOp{Verb: "link", Path: f.Path, Handle: f.Path2})
	case kernel.SysGetpid:
		r.ops = append(r.ops, TraceOp{Verb: "getpid"})
	case kernel.SysGetUserName:
		r.ops = append(r.ops, TraceOp{Verb: "whoami"})
		// SysSpawn is deliberately not recorded: children inherit the
		// tracer, so their own calls are captured inline; replaying
		// both a spawn and the child's calls would double-count.
	}
}

// Record runs prog natively under a recorder on the given kernel and
// returns the captured trace.
func Record(k *kernel.Kernel, account, cwd string, prog kernel.Program, args ...string) (*Trace, kernel.ExitStatus) {
	rec := NewRecorder()
	st := k.Run(kernel.ProcSpec{Account: account, Cwd: cwd, Tracer: rec}, prog, args...)
	return rec.Trace(), st
}
