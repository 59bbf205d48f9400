// Package core implements the identity box, the paper's primary
// contribution: a secure execution space in which every process and
// resource is associated with a high-level external identity — a
// free-form string such as "globus:/O=UnivNowhere/CN=Fred" — that need
// not have any relationship to the local account database.
//
// A Box is a supervisor built on the ptrace-like tracing hook of the
// simulated kernel. It attaches an identity to every process it adopts,
// implements their system calls by delegation to parrot drivers, and
// authorizes every access with per-directory ACLs instead of Unix
// permissions. Directories without an ACL fall back to Unix semantics
// with the visitor treated as the unprivileged user "nobody", so the
// supervising user's own data stays protected. The box also:
//
//   - answers the new get_user_name system call with the identity;
//   - gives the visitor a fresh home directory whose ACL grants the
//     identity full rights;
//   - redirects /etc/passwd to a private copy with the visitor's entry
//     prepended, so tools like whoami produce sensible output;
//   - confines signals to processes carrying the same identity;
//   - supports the reserve (v) right: mkdir under only the reserve
//     right yields a fresh private namespace for the creator;
//   - prevents hard links to files the visitor cannot access, and
//     checks ACLs in a symlink's *target* directory (Garfinkel's
//     "indirect paths" pitfall);
//   - keeps an audit log of every system call for forensic use.
//
// Creating a box requires no privilege and touches no account database:
// any ordinary account can supervise any number of boxes.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/parrot"
	"identitybox/internal/trap"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// Options tune a Box. The zero value gives the paper's configuration.
type Options struct {
	HomeBase  string // parent of visitor home dirs; default /tmp/boxhome
	ShadowDir string // where passwd shadows live; default /tmp/.box

	// DisablePolicy turns off identity/ACL checks, leaving only the
	// interposition mechanism: the "sandbox with no reference monitor"
	// ablation that isolates trapping cost from policy cost.
	DisablePolicy bool

	// ForcePeekPoke disables the I/O channel, moving bulk data word by
	// word through ptrace peeks and pokes: the design-choice ablation
	// for Figure 4(b). Dramatically slower on 8 kB transfers.
	ForcePeekPoke bool

	// AuditLimit bounds the in-memory audit log (default 10000 records;
	// older records are dropped).
	AuditLimit int

	// MaxOpenFiles bounds each boxed process's descriptor table (0
	// means unlimited). The identity is attached to *all* kernel
	// resources, and the supervisor can therefore also ration them:
	// this is the simplest example.
	MaxOpenFiles int

	// Metrics, when set, is the registry the box records into; several
	// boxes may share one registry and their counts aggregate. When
	// nil the box records no metrics (Stats still counts). Recording
	// never charges virtual time.
	Metrics *obs.Registry

	// Trace, when set, receives one event per Figure-4 protocol phase
	// (trap entry, ACL check, peek/poke, channel stage/collect, and the
	// completion verdict). Nil disables tracing at zero cost.
	Trace *obs.Trace

	// Spans, when set, records one wall-clock "box.run" span per
	// Run/RunAt invocation, under a fresh trace ID. Spans never touch
	// the virtual clock: a spanned run is tick-identical to a plain
	// one. Nil disables span recording at zero cost.
	Spans *obs.SpanRing

	// AuditSink, when set, receives every audit record as it is
	// produced (e.g. a JSONLSink, or a FanoutSink combining several).
	// When nil the box keeps an AuditRing bounded by AuditLimit.
	AuditSink AuditSink
}

// passwdPath is the account database the box shadows (rewritePath).
const passwdPath = "/etc/passwd"

func (o *Options) fillDefaults() {
	if o.HomeBase == "" {
		o.HomeBase = "/tmp/boxhome"
	}
	if o.ShadowDir == "" {
		o.ShadowDir = "/tmp/.box"
	}
	if o.AuditLimit == 0 {
		o.AuditLimit = 10000
	}
}

// ErrTooManyFiles is returned when a boxed process exceeds its
// descriptor quota (EMFILE).
var ErrTooManyFiles = errors.New("too many open files")

// AuditRecord is one entry of the box's forensic log. Call holds the
// trapped call's fields as values; its text, e.g.
// `open("/work/sim.exe", 0x0) = 3`, is rendered only when read
// (Call.String, and a JSONLSink line carries it as one string).
type AuditRecord struct {
	PID      int
	Identity identity.Principal
	Call     kernel.Call
	Denied   bool
}

// Stats counts policy activity inside a box.
type Stats struct {
	Syscalls  int64 // syscalls trapped
	ACLChecks int64 // ACL evaluations performed
	Denials   int64 // accesses denied
}

// Box is an identity-box supervisor. One Box contains any number of
// processes, all carrying the same visiting identity, concurrent ones
// included. A server hosting several visitors gives each their own Box.
type Box struct {
	k     *kernel.Kernel
	ident identity.Principal
	// account is the supervising user's local account; every boxed
	// process runs under it on the host.
	account string
	model   vclock.CostModel
	mounts  *parrot.MountTable
	local   *parrot.LocalDriver
	opts    Options

	home         string // visitor's fresh home directory
	shadowPasswd string // private passwd copy path

	// Concurrent boxed processes (and concurrent boxes sharing one
	// kernel) contend only where they actually share state: procMu
	// guards the process table, ACL decisions read the file system
	// afresh every time, and stats are lock-free atomics.
	procMu sync.Mutex // guards procs
	procs  map[*kernel.Proc]*procState

	// sink receives audit records as they are produced; an AuditRing by
	// default. The sink serializes internally, so no box-level lock.
	sink AuditSink

	// metrics and trace are the observability hooks: lock-free counts
	// and phase events that read the virtual clock but never charge it.
	// Each is nil, and skipped, unless its Options field was set.
	metrics *boxMetrics
	trace   *obs.Trace

	statSyscalls  atomic.Int64
	statACLChecks atomic.Int64
	statDenials   atomic.Int64
}

type procState struct {
	src     boxSource // the process's view for policy checks
	fds     map[int]*boxFD
	nextFD  int
	pending pendingWrite // a bulk write between entry and exit; fd nil when none
	scratch []byte
	// channel is the process's own region of the I/O channel: allocated
	// at its first bulk transfer, so processes running at once in one
	// box never stage their bytes in the same memory.
	channel trap.Channel

	// Per-call observation state, valid between SyscallEntry and
	// SyscallExit of one trapped call.
	entryAt  vclock.Micros      // clock at entry-stop arrival
	entryCls sysClass           // Figure 5(a) class of the call
	entryAct kernel.EntryAction // verdict, for the completion event
}

type boxFD struct {
	file  parrot.File
	pipe  *kernel.PipeEnd // non-nil for pipe descriptors
	path  string
	off   int64
	flags int
	refs  int // descriptors (dup, inheritance) sharing this description
}

// pendingWrite carries a bulk write between syscall entry and exit: the
// kernel copies application data into the channel region at entry; the
// supervisor completes the driver write at exit.
type pendingWrite struct {
	fd         *boxFD
	off        int64
	region     []byte
	sequential bool // advance the descriptor offset on completion
}

// New creates an identity box supervised by the given local account,
// attaching ident to everything run inside. The visitor receives a
// fresh home directory and a private passwd copy. New requires no
// privilege: it is an ordinary-user operation.
func New(k *kernel.Kernel, account string, ident identity.Principal, opts Options) (*Box, error) {
	if !ident.Valid() {
		return nil, fmt.Errorf("core: invalid identity %q", ident)
	}
	opts.fillDefaults()
	b := &Box{
		k:       k,
		ident:   ident,
		account: account,
		model:   k.Model(),
		mounts:  &parrot.MountTable{},
		opts:    opts,
		procs:   make(map[*kernel.Proc]*procState),
		trace:   opts.Trace,
		sink:    opts.AuditSink,
	}
	if opts.Metrics != nil {
		b.metrics = newBoxMetrics(opts.Metrics)
	}
	if b.sink == nil {
		b.sink = NewAuditRing(opts.AuditLimit)
	}
	b.local = parrot.NewLocalDriver(k.FS(), account, b.model)
	b.mounts.Add("/", b.local)
	if err := b.setupHome(); err != nil {
		return nil, err
	}
	if err := b.setupPasswdShadow(); err != nil {
		return nil, err
	}
	return b, nil
}

// setupHome creates the visitor's fresh home directory with an ACL
// granting the identity full rights.
func (b *Box) setupHome() error {
	fs := b.k.FS()
	home := vfs.Join(b.opts.HomeBase, b.ident.Sanitized())
	if err := fs.MkdirAll(b.opts.HomeBase, 0o755, b.account); err != nil {
		return fmt.Errorf("core: creating home %s: %w", home, err)
	}
	homeACL := acl.ForOwner(b.ident).AppendText(nil)
	err := fs.MkdirWithFile(home, 0o755, b.account, acl.FileName, homeACL)
	if errors.Is(err, vfs.ErrExist) { // a returning visitor's home
		err = writeIfChanged(fs, vfs.Join(home, acl.FileName), homeACL, b.account)
	}
	if err != nil {
		return fmt.Errorf("core: creating home %s: %w", home, err)
	}
	b.home = home
	return nil
}

// setupPasswdShadow builds the private passwd copy with the visitor's
// entry at the top. Neither the real database nor the copy plays any
// role in access control; the copy only makes whoami-style tools
// produce sensible output.
func (b *Box) setupPasswdShadow() error {
	fs := b.k.FS()
	if err := fs.MkdirAll(b.opts.ShadowDir, 0o755, b.account); err != nil {
		return err
	}
	orig, err := fs.ReadFile(passwdPath)
	if err != nil {
		orig = nil // no passwd file on this host; shadow starts fresh
	}
	entry := fmt.Sprintf("%s:x:65534:65534:%s:%s:/bin/sh\n", b.ident.Sanitized(), b.ident, b.home)
	shadow := vfs.Join(b.opts.ShadowDir, "passwd-"+b.ident.Sanitized())
	if err := writeIfChanged(fs, shadow, append([]byte(entry), orig...), b.account); err != nil {
		return err
	}
	b.shadowPasswd = shadow
	return nil
}

// writeIfChanged writes the box's scaffolding file at path unless it
// already holds exactly data. A box made again for the same visitor
// then journals nothing, and a concurrent boxed check never meets the
// file truncated; a file that differs (a visitor-edited home ACL) is
// still rewritten.
func writeIfChanged(fs *vfs.FS, path string, data []byte, owner string) error {
	if cur, err := fs.ReadFile(path); err == nil && bytes.Equal(cur, data) {
		return nil
	}
	return fs.WriteFile(path, data, 0o644, owner)
}

// Identity reports the principal attached to everything in the box.
func (b *Box) Identity() identity.Principal { return b.ident }

// Account reports the supervising local account.
func (b *Box) Account() string { return b.account }

// Home reports the visitor's fresh home directory.
func (b *Box) Home() string { return b.home }

// Mount attaches an additional driver (e.g. a remote Chirp mount under
// /chirp/host:port) to the box's namespace.
func (b *Box) Mount(prefix string, d parrot.Driver) { b.mounts.Add(prefix, d) }

// Run executes a program inside the box, starting in the visitor's home
// directory, and returns its exit status. This is the library analogue
// of "parrot identity_box <name> <command>".
func (b *Box) Run(prog kernel.Program, args ...string) kernel.ExitStatus {
	return b.RunAt(b.home, prog, args...)
}

// RunAt is Run with an explicit initial working directory.
func (b *Box) RunAt(cwd string, prog kernel.Program, args ...string) kernel.ExitStatus {
	spec := kernel.ProcSpec{
		Account:  b.account,
		Cwd:      cwd,
		Tracer:   b,
		Identity: b.ident,
	}
	spans := b.opts.Spans
	if spans == nil {
		return b.k.Run(spec, prog, args...)
	}
	// Span timing is wall clock only; the boxed program's virtual time
	// is untouched, so a spanned run stays tick-identical.
	start := time.Now()
	st := b.k.Run(spec, prog, args...)
	sp := obs.Span{
		Trace: obs.NewTraceID(),
		ID:    spans.NextSpanID(),
		Name:  "box.run",
		Start: start,
		Dur:   time.Since(start),
	}
	if len(args) > 0 {
		sp.Cmd = args[0]
	}
	spans.Record(sp)
	return st
}

// Stats returns a snapshot of policy counters.
func (b *Box) Stats() Stats {
	return Stats{
		Syscalls:  b.statSyscalls.Load(),
		ACLChecks: b.statACLChecks.Load(),
		Denials:   b.statDenials.Load(),
	}
}

// Note appends an out-of-band event to the forensic log under the
// box's identity — infrastructure events (retry, failover) rather than
// syscalls. Notes cost zero virtual ticks: they record that the fabric
// hiccupped, without charging the boxed program for it.
func (b *Box) Note(event string) {
	b.sink.Record(AuditRecord{Identity: b.ident, Call: kernel.NoteCall(event)})
}

// Audit returns a copy of the forensic log, oldest record first. It
// returns nil when the configured sink retains nothing (e.g. a pure
// JSONLSink).
func (b *Box) Audit() []AuditRecord {
	if snap, ok := b.sink.(AuditSnapshotter); ok {
		return snap.Snapshot()
	}
	return nil
}

func (b *Box) recordAudit(p *kernel.Proc, f *kernel.Frame) {
	b.statSyscalls.Add(1)
	denied := errors.Is(f.Err, vfs.ErrPermission)
	if denied {
		b.statDenials.Add(1)
	}
	if b.metrics != nil {
		b.metrics.syscalls.Inc()
		if denied {
			b.metrics.denials.Inc()
		}
	}
	b.sink.Record(AuditRecord{
		PID:      p.PID(),
		Identity: b.ident,
		Call:     f.Call(),
		Denied:   denied,
	})
}

// state returns (creating if needed) the per-process supervisor state.
func (b *Box) state(p *kernel.Proc) *procState {
	b.procMu.Lock()
	defer b.procMu.Unlock()
	st, ok := b.procs[p]
	if !ok {
		st = &procState{src: boxSource{b, p}, fds: make(map[int]*boxFD), nextFD: 3}
		b.procs[p] = st
	}
	return st
}

// ProcStart implements kernel.ProcessWatcher: the box adopts every
// process created inside it, attaching the identity. Children inherit
// the parent's open descriptors (fork semantics), so pipes connect
// processes within the box.
func (b *Box) ProcStart(parent, child *kernel.Proc) {
	child.SetIdentity(b.ident)
	st := b.state(child)
	if parent == nil {
		return
	}
	b.procMu.Lock()
	pst := b.procs[parent]
	b.procMu.Unlock()
	if pst == nil {
		return
	}
	for fd, d := range pst.fds {
		d.refs++
		if d.pipe != nil {
			d.pipe.Ref()
		}
		st.fds[fd] = d
	}
	if st.nextFD <= pst.nextFD {
		st.nextFD = pst.nextFD
	}
}

// ProcExit implements kernel.ProcessWatcher: drop supervisor state and
// close any descriptors the process leaked.
func (b *Box) ProcExit(p *kernel.Proc, code int) {
	b.procMu.Lock()
	st := b.procs[p]
	delete(b.procs, p)
	b.procMu.Unlock()
	if st != nil {
		for _, fd := range st.fds {
			b.closeBoxFD(fd)
		}
	}
}

// closeBoxFD releases one descriptor reference, closing the underlying
// object when the last reference goes.
func (b *Box) closeBoxFD(fd *boxFD) {
	fd.refs--
	if fd.pipe != nil {
		fd.pipe.Unref()
		return
	}
	if fd.refs <= 0 {
		fd.file.Close()
	}
}
