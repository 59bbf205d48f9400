package chirp

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/policy"
	"identitybox/internal/replica"
	"identitybox/internal/vfs"
)

// This file is what the pipeline executes: the command handlers; the
// permission check they share (internal/policy over the server's source,
// then community grants), a guard each vfs step runs in its own hold;
// and the replication subscription commands.

// handle executes one request and produces its reply. It touches no
// wire state — the request payload arrives pre-read, and pread reply
// bodies are built in the request's scratch, sc — and execute has
// already checked the argument count and payload length against the
// command table, so cases index args freely. Session state goes through
// the fdMu/grantsMu accessors, making concurrent v2 execution safe.
//
// A checked command is one vfs step made through sess.guarded's view: the
// step runs the check inside its own hold of the tree lock, then acts.
// trace is the request's trace ID (zero when untraced); mutating
// commands stamp it onto the journal mutations they emit so a trace
// can be followed into the WAL group-commit pipeline. A zero-trace
// view is the plain FS, so untraced behavior is unchanged.
func (sess *session) handle(cmd string, args []string, payload []byte, sc *payloadScratch, trace uint64) hres {
	s := sess.s
	switch cmd {
	case "whoami":
		return hres{line: sc.ok().quoted(sess.ident.String())}

	case "stats": // server-side counters for this session and globally
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		ok := sc.ok().int(int64(conns)).int(int64(sess.fdCount())).int(int64(sess.grantCount())).
			quoted(s.opts.Name).int(s.requests.Load()).int(s.ErrorCount()).int(s.sessions.Load()).
			int(s.rxBytes.Load()).int(s.txBytes.Load())
		// Replication-aware servers append role, epoch and applied LSN;
		// old clients that expect exactly nine fields never see them
		// because a nil Role keeps the classic shape.
		if rs := s.opts.Role; rs != nil {
			role, epoch := rs.Role()
			ok.quoted(role).uint(epoch).uint(rs.AppliedLSN())
		}
		return hres{line: ok}

	case "waitlsn": // waitlsn <lsn> <timeoutms>: bounded-staleness read barrier
		lsn, err1 := strconv.ParseUint(args[0], 10, 64)
		ms, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil || ms < 0 {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		rs := s.opts.Role
		if rs == nil {
			// A standalone server's state is always authoritative.
			return hres{line: sc.ok().int(0)}
		}
		if err := rs.WaitApplied(lsn, time.Duration(ms)*time.Millisecond); err != nil {
			return sess.fail(sc, fmt.Errorf("%w: %v", ErrDeadline, err)) // the horizon did not arrive in time
		}
		return hres{line: sc.ok().uint(rs.AppliedLSN())}

	case "metrics": // full registry as a counted text-exposition payload
		text := s.metrics.reg.Text()
		return hres{line: sc.ok().int(int64(len(text))), body: []byte(text)}

	case "trace": // trace <id>: server-side spans for one trace, as JSON
		id, err := obs.ParseTraceID(args[0])
		if err != nil || id == 0 {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		// A nil ring (tracing not enabled) yields no spans, same as an
		// unknown ID: an empty JSON array, not an error.
		data, err := json.Marshal(s.opts.Spans.Trace(id))
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		return hres{line: sc.ok().int(int64(len(data))), body: data}

	case "replsub":
		return sess.replSubscribe(sc, args[0])

	case "replack":
		return sess.replAck(sc, args[0])

	case "open": // open <flags> <mode> <path>
		flags, err1 := strconv.Atoi(args[0])
		mode, err2 := strconv.ParseUint(args[1], 8, 32)
		acc, err3 := vfs.OpenAccess(flags) // access mode 3 is EINVAL, unchecked
		if err1 != nil || err2 != nil || err3 != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		var want acl.Rights
		if acc&vfs.MayRead != 0 {
			want = acl.Read
		}
		if acc.Writes() {
			want |= acl.Write
		}
		h, err := sess.guarded(sc, trace, access{args[2], want, policy.Follow}).OpenFile(args[2], flags, uint32(mode), s.opts.Owner)
		if err == nil && h.IsDir() { // the server opens files only, a directory in no mode
			err = vfs.ErrIsDir
		}
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(sess.addFD(&sessionFD{h: h, acc: acc})))}

	case "close":
		fd, err := strconv.Atoi(args[0])
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		if !sess.removeFD(fd) {
			return sess.fail(sc, kernel.ErrBadFD)
		}
		return hres{line: sc.ok()}

	case "pread": // pread <fd> <len> <off>
		fd, err1 := strconv.Atoi(args[0])
		n, err2 := strconv.Atoi(args[1])
		off, err3 := strconv.ParseInt(args[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		if n < 0 || n > MaxPayload {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		d, ok := sess.lookupFD(fd)
		if !ok || d.acc&vfs.MayRead == 0 {
			return sess.fail(sc, kernel.ErrBadFD)
		}
		// The request's scratch: the payload is written to the wire before
		// the request is recycled.
		b := sc.bytes(n)
		rn, err := d.h.ReadAt(b, off)
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(rn)), body: b[:rn]}

	case "pwrite": // pwrite <fd> <off> <len> + payload (len checked against the table)
		fd, err1 := strconv.Atoi(args[0])
		off, err2 := strconv.ParseInt(args[1], 10, 64)
		if err1 != nil || err2 != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		d, ok := sess.lookupFD(fd)
		if !ok || d.acc&vfs.MayWrite == 0 {
			return sess.fail(sc, kernel.ErrBadFD)
		}
		wn, err := d.h.WriteAtTraced(payload, off, trace)
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(wn))}

	case "fstat":
		fd, err := strconv.Atoi(args[0])
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.fail(sc, kernel.ErrBadFD)
		}
		return hres{line: sc.ok().stat(d.h.Stat())}

	case "putfile": // putfile <path> <mode> <len> + payload: open(O_WRONLY|O_CREAT|O_TRUNC)'s check, one MutCreate
		mode, err := strconv.ParseUint(args[1], 8, 32)
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		// An existing file keeps its inode, mode and owner, as an O_TRUNC
		// open leaves them.
		if err := sess.guarded(sc, trace, access{args[0], acl.Write, policy.Follow}).WriteFile(args[0], payload, uint32(mode), s.opts.Owner); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "getfile": // getfile <path>: open(O_RDONLY)'s check, the whole file as the reply body
		// A file no reply can carry is refused before it is copied.
		data, err := sess.guarded(sc, trace, access{args[0], acl.Read, policy.Follow}).ReadFile(args[0], MaxPayload)
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(len(data))), body: data}

	case "stat", "lstat":
		lookup := vfs.Locked.Stat
		if cmd == "lstat" {
			lookup = vfs.Locked.Lstat
		}
		st, err := vfs.Lookup(sess.guarded(sc, trace, access{args[0], acl.List, policy.Follow}), s.src.Locked, lookup, args[0])
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().stat(st)}

	case "getdir":
		ents, err := sess.guarded(sc, trace, access{args[0], acl.List, policy.Dir}).ReadDir(args[0])
		if err != nil {
			return sess.fail(sc, err)
		}
		ok := sc.ok().int(int64(len(ents)))
		for _, e := range ents {
			ok.quoted(e.Name).int(int64(e.Type))
		}
		if len(ok.b) > MaxLine { // no frame can carry the listing
			return sess.fail(sc, &vfs.PathError{Op: "getdir", Path: args[0], Err: vfs.ErrTooBig})
		}
		return hres{line: ok}

	case "mkdir": // mkdir <mode> <path>: policy.Mkdir decides, and derives the child's ACL, in the step
		mode, err := strconv.ParseUint(args[0], 8, 32)
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		v := sess.guarded(sc, trace)
		sc.guard.mkdir = args[1]
		if err := v.MkdirWithFile(args[1], uint32(mode), s.opts.Owner, acl.FileName, nil); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "rmdir":
		// A directory holding only its ACL file counts as empty: the
		// ACL goes with the directory, in one step.
		if _, err := sess.guarded(sc, trace, access{args[0], acl.Write, policy.NoFollow}).RmdirWithFile(args[0], acl.FileName); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "unlink":
		if err := sess.guarded(sc, trace, access{args[0], acl.Write, policy.NoFollow}).Unlink(args[0]); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "rename":
		v := sess.guarded(sc, trace, access{args[0], acl.Write, policy.NoFollow}, access{args[1], acl.Write, policy.NoFollow})
		if err := v.Rename(args[0], args[1]); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "link": // link <old> <new>: refuse links to unreadable files
		v := sess.guarded(sc, trace, access{args[0], acl.Read, policy.LinkOld}, access{args[1], acl.Write, policy.NoFollow})
		if err := v.Link(args[0], args[1]); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "symlink": // symlink <target> <link>
		if err := sess.guarded(sc, trace, access{args[1], acl.Write, policy.NoFollow}).Symlink(args[0], args[1], s.opts.Owner); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "readlink":
		t, err := vfs.Lookup(sess.guarded(sc, trace, access{args[0], acl.List, policy.NoFollow}), s.src.Locked, vfs.Locked.Readlink, args[0])
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().quoted(t)}

	case "truncate": // truncate <path> <size>
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return sess.fail(sc, vfs.ErrInvalid)
		}
		if err := sess.guarded(sc, trace, access{args[0], acl.Write, policy.Follow}).Truncate(args[0], size); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "getacl":
		a, err := vfs.Lookup(sess.guarded(sc, trace, access{args[0], acl.List, policy.Dir}), s, (*Server).aclFor, args[0])
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(len(a.Text))), body: []byte(a.Text)}

	case "setacl": // setacl <path> <len> + payload
		v := sess.guarded(sc, trace, access{args[0], acl.Admin, policy.Dir})
		if _, err := acl.Parse(string(payload)); err != nil {
			// A refusal outranks a malformed ACL.
			if err := v.Check(); err != nil {
				return sess.fail(sc, err)
			}
			return sess.fail(sc, vfs.ErrInvalid)
		}
		if err := v.WriteFile(vfs.Join(args[0], acl.FileName), payload, 0o644, s.opts.Owner); err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok()}

	case "assert": // assert <len> + JSON assertion payload
		community, err := sess.present(payload)
		if err != nil {
			sess.log.printf("%s: assertion refused: %v", sess.ident, err)
			return sess.fail(sc, vfs.ErrPermission)
		}
		return hres{line: sc.ok().quoted(community)}

	case "exec": // exec <cwd> <path> [args...]
		code, runtime, err := sess.exec(sc, args[0], args[1], args[2:])
		if err != nil {
			return sess.fail(sc, err)
		}
		return hres{line: sc.ok().int(int64(code)).str(strconv.FormatFloat(runtime, 'f', -1, 64))}

	default:
		return sess.fail(sc, kernel.ErrNoSys)
	}
}

// replSubscribe handles `replsub <fromLSN>`: it registers the session
// as a replication follower and answers with its catch-up — either the
// WAL tail past fromLSN ("ok tail <epoch> <first> <last> <records>
// <len>" plus the frames) or, when compaction already dropped that
// history, a full snapshot ("ok snap <epoch> <lsn> <len>" plus the
// blob). Once that reply is written every committed group is pushed
// to the session as a replPushTag frame until the session ends or the
// subscriber falls too far behind (a "replgap" push tells it to
// resubscribe). A second registration on the session, concurrent or
// not, is refused under replMu.
func (sess *session) replSubscribe(sc *payloadScratch, arg string) hres {
	pub := sess.s.opts.Repl
	if pub == nil || !sess.conf.repl {
		return sess.fail(sc, kernel.ErrNoSys)
	}
	from, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.fail(sc, vfs.ErrInvalid)
	}
	sess.replMu.Lock()
	defer sess.replMu.Unlock()
	if sess.replSub != nil {
		return sess.fail(sc, vfs.ErrInvalid)
	}
	sub, catchup, err := pub.Subscribe(from)
	if err != nil {
		return sess.fail(sc, err)
	}
	sess.replSub = sub
	sess.log.printf("replication subscriber from lsn %d (%s)", from, sess.ident)
	res := hres{after: func() {
		sess.pushWG.Add(1)
		go sess.replPush(sub)
	}}
	if catchup.Snap != nil {
		res.line = sc.ok().str("snap").uint(catchup.Epoch).uint(catchup.Last).int(int64(len(catchup.Snap)))
		res.body = catchup.Snap
	} else {
		res.line = sc.ok().str("tail").uint(catchup.Epoch).uint(catchup.First).uint(catchup.Last).
			int(int64(catchup.Records)).int(int64(len(catchup.Frames)))
		res.body = catchup.Frames
	}
	return res
}

// replAck handles `replack <lsn>`: the follower's applied horizon,
// which releases the primary's semi-sync barriers at or below it.
func (sess *session) replAck(sc *payloadScratch, arg string) hres {
	lsn, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.fail(sc, vfs.ErrInvalid)
	}
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replMu.Unlock()
	if sub == nil {
		return sess.fail(sc, vfs.ErrInvalid)
	}
	sub.Ack(lsn)
	return hres{line: sc.ok()}
}

// replPush streams the subscription's batches to the session as pushed
// frames. It exits when the channel closes: a publisher-side cut
// (overflow or shutdown) gets a final "replgap" push so the follower
// knows to resubscribe rather than wait forever; a session-side close
// just ends (the transport is going away with it).
func (sess *session) replPush(sub *replica.Subscription) {
	defer sess.pushWG.Done()
	var line lineBuf // the pusher's own: it runs beside the workers
	for b := range sub.C {
		line.start("replpush").uint(b.Epoch).uint(b.First).uint(b.Last).
			int(int64(b.Records)).int(int64(len(b.Frames)))
		if err := sess.reply(replPushTag, hres{line: &line, body: b.Frames}); err != nil {
			sub.Close()
			return
		}
	}
	sess.reply(replPushTag, hres{line: line.start("replgap")})
}

// present verifies a CAS assertion and installs its grants.
func (sess *session) present(data []byte) (community string, err error) {
	s := sess.s
	if s.opts.CASTrust == nil {
		return "", errors.New("server trusts no community authorization service")
	}
	a, err := auth.DecodeAssertion(data)
	if err != nil {
		return "", err
	}
	if a.Subject != sess.ident {
		return "", fmt.Errorf("assertion subject %q is not this session's identity", a.Subject)
	}
	if err := s.opts.CASTrust.Verify(a); err != nil {
		return "", err
	}
	sess.grantsMu.Lock()
	for _, g := range a.Grants {
		// Rights that do not parse could never match: the grant is dropped.
		if r, err := acl.ParseRights(g.Rights); err == nil {
			sess.grants = append(sess.grants, grant{vfs.Clean(g.PathPrefix), r})
		}
	}
	sess.grantsMu.Unlock()
	sess.log.printf("%s: presented CAS assertion from %s (%s), %d grants", sess.ident, a.CAS, a.Community, len(a.Grants))
	return a.Community, nil
}

// grant is one verified CAS grant, parsed when it was presented.
type grant struct {
	prefix string // cleaned path prefix
	rights acl.Rights
}

// grantsAllow reports whether a verified CAS grant covers final — a
// path policy has already resolved — with the wanted rights. Prefix
// matching respects component boundaries.
func (sess *session) grantsAllow(final string, want acl.Rights) bool {
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	for _, g := range sess.grants {
		p := g.prefix
		if (p == "/" || final == p || (len(final) > len(p) && final[:len(p)] == p && final[len(p)] == '/')) &&
			g.rights.Has(want) {
			return true
		}
	}
	return false
}

// access is one path a request's step checks: path, wanting want,
// named as how says. A zero want checks nothing.
type access struct {
	path string
	want acl.Rights
	how  policy.How
}

// guard is a request's permission check, run by the vfs step it
// authorises inside that step's hold of the tree lock (vfs.Guard), so
// nothing lands between the decision and the act. It lives in the
// request's scratch: arming it allocates nothing.
type guard struct {
	sess   *session
	checks [2]access
	mkdir  string // mkdir's path: policy.Mkdir decides it...
	child  []byte // ...and derives the ACL the new directory gets
}

// guarded arms sc's guard with checks and returns the view whose vfs
// steps run it. A mkdir sets sc.guard.mkdir after.
func (sess *session) guarded(sc *payloadScratch, trace uint64, checks ...access) vfs.TracedView {
	sc.guard = guard{sess: sess}
	copy(sc.guard.checks[:], checks)
	return sess.s.fs.Traced(trace).Guarded(&sc.guard)
}

// Allow checks each right an access wants on its own, in the order of
// their bits, not as one OR-ed mask (a community grant may cover one
// and the local ACL another): the local ACLs first (policy.Check over
// the server's source, which reads the locked view), then community
// grants, held to the same object and the same right policy demanded.
func (g *guard) Allow() error {
	if g.mkdir != "" {
		return g.allowMkdir()
	}
	sess, src := g.sess, &g.sess.s.src
	for _, c := range g.checks {
		for r := acl.Read; r != 0 && r <= c.want; r <<= 1 {
			if c.want&r != 0 && policy.Check(src, sess.ident, c.path, r, c.how) != nil &&
				!sess.grantsAllow(policy.Subject(src, c.path, r, c.how)) {
				return vfs.ErrPermission
			}
		}
	}
	return nil
}

// File is the ACL a guarded mkdir installs (vfs.FileGuard).
func (g *guard) File() []byte { return g.child }

// allowMkdir implements the reserve-right semantics on the server side.
func (g *guard) allowMkdir() error {
	sess, src := g.sess, &g.sess.s.src
	childACL, parentACL, err := policy.Mkdir(src, sess.ident, g.mkdir)
	if err != nil {
		if parentACL == nil || !sess.grantsAllow(policy.Resolve(src, vfs.Dir(g.mkdir)), acl.Write) {
			return err
		}
		// Community-granted write: inherit like a local w holder, and
		// keep the creator in control of the new directory.
		childACL = parentACL.Clone()
		childACL.Set(sess.ident.String(), acl.All, acl.None)
	}
	g.child = childACL.AppendText(nil)
	return nil
}

// execAuditLimit bounds the audit ring of a session's exec box. The
// server reads nothing back from it, and the ring stays live as long
// as the session does, so it holds the last few calls rather than the
// default 10 000 records.
const execAuditLimit = 16

// execBox returns the session's identity box, making it at the first
// exec. Every later exec, concurrent ones included, runs as one more
// process in it. A failed core.New is not kept: the next exec tries
// again.
func (sess *session) execBox() (*core.Box, error) {
	sess.boxMu.Lock()
	defer sess.boxMu.Unlock()
	if sess.box == nil {
		box, err := core.New(sess.s.k, sess.s.opts.Owner, sess.ident, core.Options{
			HomeBase:   "/.boxhomes",
			ShadowDir:  "/.boxshadow",
			AuditLimit: execAuditLimit,
		})
		if err != nil {
			return nil, err
		}
		sess.box = box
	}
	return sess.box, nil
}

// exec runs the staged program at path inside the session's identity
// box, which carries the session's principal, with the given working
// directory: the heart of Figure 3.
// The server's check runs alone, in its own hold: the box checks again
// as it runs the program, through its mounts.
func (sess *session) exec(sc *payloadScratch, cwd, path string, args []string) (code int, runtimeSeconds float64, err error) {
	if err := sess.guarded(sc, 0, access{path, acl.Read | acl.Execute, policy.Follow}).Check(); err != nil {
		return 0, 0, err
	}
	box, err := sess.execBox()
	if err != nil {
		return 0, 0, err
	}
	st := box.RunAt(cwd, func(p *kernel.Proc, bootArgs []string) int {
		pid, err := p.Spawn(path, bootArgs...)
		if err != nil {
			return 127
		}
		_, status, err := p.Wait(pid)
		if err != nil {
			return 127
		}
		return status
	}, args...)
	return st.Code, st.Runtime.Seconds(), nil
}

// --- the server as internal/policy reads it ------------------------------

// emptyACL grants nothing: no ACL file anywhere up to the root.
var emptyACL = &acl.Version{ACL: &acl.ACL{}}

// parseACLVersion is the server's vfs.FS.MemoIn derive step: acl.MemoVersion,
// counted. An identity box on the server's kernel memoises the same
// files through acl.MemoVersion itself, so each version is parsed once
// by whichever reader meets it first, and the other reuses that parse.
func (s *Server) parseACLVersion(data []byte) any {
	s.metrics.aclParses.Inc()
	return acl.MemoVersion(data)
}

// aclFor finds the effective ACL for dir: its own ACL file, or the
// nearest ancestor's (Chirp's space is fully virtual: ACLs exist from
// the root down, and mkdir always installs one). The parse is memoised
// on the ACL file's inode and validated against its mtime on every
// call, so whoever rewrote the file — setacl, a boxed program, the
// replication apply loop, recovery — is honoured by the next check.
// It reads through the locked view: callers hold the tree lock.
func (s *Server) aclFor(dir string) (*acl.Version, error) {
	s.metrics.aclChecks.Inc()
	dir = vfs.Clean(dir)
	for {
		v, err := s.src.MemoIn(dir, acl.FileName, s.parseACL)
		if err == nil {
			return v.(*acl.Version), nil
		}
		if !errors.Is(err, vfs.ErrNotExist) {
			return nil, &vfs.PathError{Op: "read", Path: vfs.Join(dir, acl.FileName), Err: err}
		}
		if dir == "/" {
			return emptyACL, nil
		}
		dir = vfs.Dir(dir)
	}
}

// source is the server's policy.Source: the exported file system's
// locked view — Lstat, Stat and Readlink under the hold of the step a
// guard runs in — and aclFor. aclFor never reports "no ACL" — a
// directory without a file of its own is governed by its nearest
// ancestor's, an empty ACL at worst — so policy's Unix fallback cannot
// be reached from here.
type source struct {
	vfs.Locked
	s *Server
}

func (src *source) ACL(dir string) (*acl.ACL, error) {
	v, err := src.s.aclFor(dir)
	if err != nil {
		return nil, err
	}
	return v.ACL, nil
}
