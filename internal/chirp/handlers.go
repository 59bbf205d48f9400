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

// This file is what the pipeline executes: the command handlers, the
// permission check they share (internal/policy over the server's source,
// then community grants), and the replication subscription commands.

// handle executes one request and produces its reply. It touches no
// wire state — the request payload arrives pre-read, and pread reply
// bodies are built in the scratch the caller supplies — and execute has
// already checked the argument count and payload length against the
// command table, so cases index args freely. Session state goes through
// the fdMu/grantsMu accessors, making concurrent v2 execution safe.
//
// trace is the request's trace ID (zero when untraced); mutating
// commands stamp it onto the journal mutations they emit so a trace
// can be followed into the WAL group-commit pipeline. A zero-trace
// view is the plain FS, so untraced behavior is unchanged.
func (sess *session) handle(cmd string, args []string, payload []byte, sc *payloadScratch, trace uint64) hres {
	s := sess.s
	tfs := s.fs.Traced(trace)
	switch cmd {
	case "whoami":
		return hres{line: sc.ok().quoted(sess.ident.String())}

	case "stats": // server-side counters for this session and globally
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		ok := sc.ok().int(int64(conns)).int(int64(sess.fdCount())).int(int64(sess.grantCount())).
			quoted(s.opts.Name).int(s.requests.Load()).int(s.errors.Load()).int(s.sessions.Load()).
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
			return sess.failf(sc, vfs.ErrInvalid, "bad waitlsn args")
		}
		rs := s.opts.Role
		if rs == nil {
			// A standalone server's state is always authoritative.
			return hres{line: sc.ok().int(0)}
		}
		if err := rs.WaitApplied(lsn, time.Duration(ms)*time.Millisecond); err != nil {
			return sess.failf(sc, err, "waitlsn")
		}
		return hres{line: sc.ok().uint(rs.AppliedLSN())}

	case "metrics": // full registry as a counted text-exposition payload
		text := s.metrics.reg.Text()
		return hres{line: sc.ok().int(int64(len(text))), body: []byte(text)}

	case "trace": // trace <id>: server-side spans for one trace, as JSON
		id, err := obs.ParseTraceID(args[0])
		if err != nil || id == 0 {
			return sess.failf(sc, vfs.ErrInvalid, "bad trace id")
		}
		// A nil ring (tracing not enabled) yields no spans, same as an
		// unknown ID: an empty JSON array, not an error.
		data, err := json.Marshal(s.opts.Spans.Trace(id))
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "trace encode")
		}
		return hres{line: sc.ok().int(int64(len(data))), body: data}

	case "replsub":
		return sess.replSubscribe(sc, args[0])

	case "replack":
		return sess.replAck(sc, args[0])

	case "open": // open <flags> <mode> <path>
		flags, err1 := strconv.Atoi(args[0])
		mode, err2 := strconv.ParseUint(args[1], 8, 32)
		if err1 != nil || err2 != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad open args")
		}
		fd, err := sess.open(args[2], flags, uint32(mode), trace)
		if err != nil {
			return sess.failf(sc, err, "open")
		}
		return hres{line: sc.ok().int(int64(fd))}

	case "close":
		fd, err := strconv.Atoi(args[0])
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad fd")
		}
		if !sess.removeFD(fd) {
			return sess.failf(sc, kernel.ErrBadFD, "close")
		}
		return hres{line: sc.ok()}

	case "pread": // pread <fd> <len> <off>
		fd, _ := strconv.Atoi(args[0])
		n, _ := strconv.Atoi(args[1])
		off, _ := strconv.ParseInt(args[2], 10, 64)
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "pread")
		}
		if n < 0 || n > MaxPayload {
			return sess.failf(sc, vfs.ErrInvalid, "pread size")
		}
		// Pooled scratch: the payload is written to the wire before the
		// caller's scratch is reused.
		b := sc.bytes(n)
		rn, err := d.h.ReadAt(b, off)
		if err != nil {
			return sess.failf(sc, err, "pread")
		}
		return hres{line: sc.ok().int(int64(rn)), body: b[:rn]}

	case "pwrite": // pwrite <fd> <off> <len> + payload (len checked against the table)
		fd, _ := strconv.Atoi(args[0])
		off, _ := strconv.ParseInt(args[1], 10, 64)
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "pwrite")
		}
		if d.flags&3 == kernel.ORdonly {
			return sess.failf(sc, kernel.ErrBadFD, "fd not writable")
		}
		wn, err := d.h.WriteAtTraced(payload, off, trace)
		if err != nil {
			return sess.failf(sc, err, "pwrite")
		}
		return hres{line: sc.ok().int(int64(wn))}

	case "fstat":
		fd, _ := strconv.Atoi(args[0])
		d, ok := sess.lookupFD(fd)
		if !ok {
			return sess.failf(sc, kernel.ErrBadFD, "fstat")
		}
		return hres{line: sc.ok().stat(d.h.Stat())}

	case "stat", "lstat":
		if err := sess.check(args[0], acl.List, policy.Follow); err != nil {
			return sess.failf(sc, err, "stat")
		}
		var st vfs.Stat
		var err error
		if cmd == "stat" {
			st, err = s.fs.Stat(args[0])
		} else {
			st, err = s.fs.Lstat(args[0])
		}
		if err != nil {
			return sess.failf(sc, err, "stat")
		}
		return hres{line: sc.ok().stat(st)}

	case "getdir":
		if err := sess.check(args[0], acl.List, policy.Dir); err != nil {
			return sess.failf(sc, err, "getdir")
		}
		ents, err := s.fs.ReadDir(args[0])
		if err != nil {
			return sess.failf(sc, err, "getdir")
		}
		ok := sc.ok().int(int64(len(ents)))
		for _, e := range ents {
			ok.quoted(e.Name).int(int64(e.Type))
		}
		return hres{line: ok}

	case "mkdir": // mkdir <mode> <path>
		mode, err := strconv.ParseUint(args[0], 8, 32)
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad mode")
		}
		if err := sess.mkdir(args[1], uint32(mode), trace); err != nil {
			return sess.failf(sc, err, "mkdir")
		}
		return hres{line: sc.ok()}

	case "rmdir":
		if err := sess.check(args[0], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "rmdir")
		}
		// A directory holding only its ACL file counts as empty: the
		// ACL is removed with the directory.
		if ents, lerr := s.fs.ReadDir(args[0]); lerr == nil &&
			len(ents) == 1 && ents[0].Name == acl.FileName {
			if uerr := tfs.Unlink(vfs.Join(args[0], acl.FileName)); uerr != nil {
				return sess.failf(sc, uerr, "rmdir")
			}
		}
		if err := tfs.Rmdir(args[0]); err != nil {
			return sess.failf(sc, err, "rmdir")
		}
		return hres{line: sc.ok()}

	case "unlink":
		if err := sess.check(args[0], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "unlink")
		}
		if err := tfs.Unlink(args[0]); err != nil {
			return sess.failf(sc, err, "unlink")
		}
		return hres{line: sc.ok()}

	case "rename":
		if err := sess.check(args[0], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "rename")
		}
		if err := sess.check(args[1], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "rename")
		}
		if err := tfs.Rename(args[0], args[1]); err != nil {
			return sess.failf(sc, err, "rename")
		}
		return hres{line: sc.ok()}

	case "link": // link <old> <new>: refuse links to unreadable files
		if err := sess.check(args[0], acl.Read, policy.LinkOld); err != nil {
			return sess.failf(sc, err, "link")
		}
		if err := sess.check(args[1], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "link")
		}
		if err := tfs.Link(args[0], args[1]); err != nil {
			return sess.failf(sc, err, "link")
		}
		return hres{line: sc.ok()}

	case "symlink": // symlink <target> <link>
		if err := sess.check(args[1], acl.Write, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "symlink")
		}
		if err := tfs.Symlink(args[0], args[1], s.opts.Owner); err != nil {
			return sess.failf(sc, err, "symlink")
		}
		return hres{line: sc.ok()}

	case "readlink":
		if err := sess.check(args[0], acl.List, policy.NoFollow); err != nil {
			return sess.failf(sc, err, "readlink")
		}
		t, err := s.fs.Readlink(args[0])
		if err != nil {
			return sess.failf(sc, err, "readlink")
		}
		return hres{line: sc.ok().quoted(t)}

	case "truncate": // truncate <path> <size>
		size, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "bad size")
		}
		if err := sess.check(args[0], acl.Write, policy.Follow); err != nil {
			return sess.failf(sc, err, "truncate")
		}
		if err := tfs.Truncate(args[0], size); err != nil {
			return sess.failf(sc, err, "truncate")
		}
		return hres{line: sc.ok()}

	case "getacl":
		if err := sess.check(args[0], acl.List, policy.Dir); err != nil {
			return sess.failf(sc, err, "getacl")
		}
		a, err := s.aclFor(args[0])
		if err != nil {
			return sess.failf(sc, err, "getacl")
		}
		return hres{line: sc.ok().int(int64(len(a.text))), body: []byte(a.text)}

	case "setacl": // setacl <path> <len> + payload
		if err := sess.check(args[0], acl.Admin, policy.Dir); err != nil {
			return sess.failf(sc, err, "setacl")
		}
		if _, err := acl.Parse(string(payload)); err != nil {
			return sess.failf(sc, vfs.ErrInvalid, "malformed ACL")
		}
		aclPath := vfs.Join(args[0], acl.FileName)
		if err := tfs.WriteFile(aclPath, payload, 0o644, s.opts.Owner); err != nil {
			return sess.failf(sc, err, "setacl")
		}
		return hres{line: sc.ok()}

	case "assert": // assert <len> + JSON assertion payload
		community, err := sess.present(payload)
		if err != nil {
			return sess.failf(sc, vfs.ErrPermission, err.Error())
		}
		return hres{line: sc.ok().quoted(community)}

	case "exec": // exec <cwd> <path> [args...]
		code, runtime, err := sess.exec(args[0], args[1], args[2:])
		if err != nil {
			return sess.failf(sc, err, "exec")
		}
		return hres{line: sc.ok().int(int64(code)).str(strconv.FormatFloat(runtime, 'f', -1, 64))}

	default:
		return sess.failf(sc, kernel.ErrNoSys, "unknown command "+cmd)
	}
}

// replSubscribe handles `replsub <fromLSN>`: it registers the session
// as a replication follower and answers with its catch-up — either the
// WAL tail past fromLSN ("ok tail <epoch> <first> <last> <records>
// <len>" plus the frames) or, when compaction already dropped that
// history, a full snapshot ("ok snap <epoch> <lsn> <len>" plus the
// blob). Once that reply is on the wire every committed group is pushed
// to the session as a replPushTag frame until the session ends or the
// subscriber falls too far behind (a "replgap" push tells it to
// resubscribe). Runs on the ordered lane so a session cannot race two
// registrations.
func (sess *session) replSubscribe(sc *payloadScratch, arg string) hres {
	pub := sess.s.opts.Repl
	if pub == nil || sess.v2 == nil || !sess.v2.repl {
		return sess.failf(sc, kernel.ErrNoSys, "replication not negotiated")
	}
	from, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.failf(sc, vfs.ErrInvalid, "bad replsub lsn")
	}
	sess.replMu.Lock()
	defer sess.replMu.Unlock()
	if sess.replSub != nil {
		return sess.failf(sc, vfs.ErrInvalid, "session already subscribed")
	}
	sub, catchup, snap, snapLSN, err := pub.Subscribe(from)
	if err != nil {
		return sess.failf(sc, err, "replsub")
	}
	sess.replSub = sub
	sess.log.printf("replication subscriber from lsn %d (%s)", from, sess.ident)
	res := hres{after: func() {
		sess.pushWG.Add(1)
		go sess.replPush(sub)
	}}
	switch {
	case snap != nil:
		res.line = sc.ok().str("snap").uint(pub.Epoch()).uint(snapLSN).int(int64(len(snap)))
		res.body = snap
	case catchup != nil:
		res.line = sc.ok().str("tail").uint(catchup.Epoch).uint(catchup.First).uint(catchup.Last).
			int(int64(catchup.Records)).int(int64(len(catchup.Frames)))
		res.body = catchup.Frames
	default:
		res.line = sc.ok().str("tail").uint(pub.Epoch()).int(0).int(0).int(0).int(0)
	}
	return res
}

// replAck handles `replack <lsn>`: the follower's applied horizon,
// which releases the primary's semi-sync barriers at or below it.
func (sess *session) replAck(sc *payloadScratch, arg string) hres {
	lsn, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return sess.failf(sc, vfs.ErrInvalid, "bad replack lsn")
	}
	sess.replMu.Lock()
	sub := sess.replSub
	sess.replMu.Unlock()
	if sub == nil {
		return sess.failf(sc, vfs.ErrInvalid, "no replication subscription")
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
	var line lineBuf // the pusher's own: it runs beside the lanes
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

// open authorizes and opens a file for the session.
func (sess *session) open(path string, flags int, mode uint32, trace uint64) (int, error) {
	s := sess.s
	// Read, then write (a create is a write) — one check per class, not
	// one OR-ed mask: a community grant may cover one class and the
	// local ACL the other.
	acc := flags & 3
	if acc == kernel.ORdonly || acc == kernel.ORdwr {
		if err := sess.check(path, acl.Read, policy.Follow); err != nil {
			return 0, err
		}
	}
	if acc == kernel.OWronly || acc == kernel.ORdwr || flags&kernel.OCreat != 0 {
		if err := sess.check(path, acl.Write, policy.Follow); err != nil {
			return 0, err
		}
	}
	st, err := s.fs.Stat(path)
	exists := err == nil
	switch {
	case !exists && flags&kernel.OCreat == 0:
		return 0, err
	case exists && flags&(kernel.OCreat|kernel.OExcl) == kernel.OCreat|kernel.OExcl:
		return 0, vfs.ErrExist
	case exists && st.IsDir():
		return 0, vfs.ErrIsDir
	}
	if !exists {
		if _, err := s.fs.Traced(trace).Create(path, mode, s.opts.Owner); err != nil {
			return 0, err
		}
	}
	h, err := s.fs.OpenHandle(path)
	if err != nil {
		return 0, err
	}
	if flags&kernel.OTrunc != 0 && flags&3 != kernel.ORdonly {
		if err := h.TruncateTraced(0, trace); err != nil {
			return 0, err
		}
	}
	return sess.addFD(&sessionFD{h: h, path: path, flags: flags}), nil
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
	sess.grants = append(sess.grants, a.Grants...)
	sess.grantsMu.Unlock()
	sess.log.printf("%s: presented CAS assertion from %s (%s), %d grants", sess.ident, a.CAS, a.Community, len(a.Grants))
	return a.Community, nil
}

// grantsAllow reports whether a verified CAS grant covers final — a
// path policy has already resolved — with the wanted rights. Prefix
// matching respects component boundaries.
func (sess *session) grantsAllow(final string, want acl.Rights) bool {
	sess.grantsMu.RLock()
	defer sess.grantsMu.RUnlock()
	for _, g := range sess.grants {
		prefix := vfs.Clean(g.PathPrefix)
		if !(prefix == "/" || final == prefix ||
			(len(final) > len(prefix) && final[:len(prefix)] == prefix && final[len(prefix)] == '/')) {
			continue
		}
		r, err := acl.ParseRights(g.Rights)
		if err != nil {
			continue
		}
		if r.Has(want) {
			return true
		}
	}
	return false
}

// check is the per-session permission check: the local ACLs first
// (policy.Check over the server's source), then community grants, held
// to the same object and the same right policy demanded of it.
func (sess *session) check(path string, want acl.Rights, how policy.How) error {
	src := &sess.s.src
	if policy.Check(src, sess.ident, path, want, how) == nil {
		return nil
	}
	if sess.grantsAllow(policy.Subject(src, path, want, how)) {
		return nil
	}
	return vfs.ErrPermission
}

// mkdir implements the reserve-right semantics on the server side.
func (sess *session) mkdir(path string, mode uint32, trace uint64) error {
	s := sess.s
	childACL, parentACL, err := policy.Mkdir(&s.src, sess.ident, path)
	if err != nil {
		if parentACL == nil || !sess.grantsAllow(policy.Resolve(&s.src, vfs.Dir(path)), acl.Write) {
			return err
		}
		// Community-granted write: inherit like a local w holder, and
		// keep the creator in control of the new directory.
		childACL = parentACL.Clone()
		childACL.Set(sess.ident.String(), acl.All, acl.None)
	}
	tfs := s.fs.Traced(trace)
	if err := tfs.Mkdir(path, mode, s.opts.Owner); err != nil {
		return err
	}
	return tfs.WriteFile(vfs.Join(path, acl.FileName), []byte(childACL.String()), 0o644, s.opts.Owner)
}

// exec runs the staged program at path inside an identity box carrying
// the session's principal, with the given working directory: the heart
// of Figure 3.
func (sess *session) exec(cwd, path string, args []string) (code int, runtimeSeconds float64, err error) {
	s := sess.s
	if err := sess.check(path, acl.Read, policy.Follow); err != nil {
		return 0, 0, err
	}
	if err := sess.check(path, acl.Execute, policy.Follow); err != nil {
		return 0, 0, err
	}
	box, err := core.New(s.k, s.opts.Owner, sess.ident, core.Options{
		HomeBase:  "/.boxhomes",
		ShadowDir: "/.boxshadow",
	})
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

// aclVersion is one content version of an ACL file, parsed: what
// vfs.Memo keeps on the file's inode. It is shared by every check that
// finds that version, so it is immutable — callers Clone before editing.
type aclVersion struct {
	acl  *acl.ACL
	text string // acl.String(), the body getacl replies with
}

// emptyACL grants nothing: a malformed ACL file (fail closed) or no ACL
// file anywhere up to the root.
var emptyACL = &aclVersion{acl: &acl.ACL{}}

// parseACLVersion is the vfs.Memo derive step, run once per ACL file
// version.
func (s *Server) parseACLVersion(data []byte) any {
	s.metrics.aclParses.Inc()
	raw := string(data)
	a, err := acl.Parse(raw)
	if err != nil {
		return emptyACL
	}
	text := a.String()
	if text == raw {
		text = raw // a canonical file: keep the one copy the patterns already point into
	}
	return &aclVersion{acl: a, text: text}
}

// aclFor finds the effective ACL for dir: its own ACL file, or the
// nearest ancestor's (Chirp's space is fully virtual: ACLs exist from
// the root down, and mkdir always installs one). The parse is memoised
// on the ACL file's inode and validated against its mtime on every
// call, so whoever rewrote the file — setacl, a boxed program, the
// replication apply loop, recovery — is honoured by the next check.
func (s *Server) aclFor(dir string) (*aclVersion, error) {
	s.metrics.aclChecks.Inc()
	dir = vfs.Clean(dir)
	for {
		v, err := s.fs.MemoIn(dir, acl.FileName, s.parseACL)
		if err == nil {
			return v.(*aclVersion), nil
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

// source is the server's policy.Source: the exported file system's own
// Lstat, Stat and Readlink, and aclFor. aclFor never reports "no ACL" —
// a directory without a file of its own is governed by its nearest
// ancestor's, an empty ACL at worst — so policy's Unix fallback cannot
// be reached from here.
type source struct {
	*vfs.FS
	s *Server
}

func (src *source) ACL(dir string) (*acl.ACL, error) {
	v, err := src.s.aclFor(dir)
	if err != nil {
		return nil, err
	}
	return v.acl, nil
}
