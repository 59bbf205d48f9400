package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/chirp"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// world is the generator's model of the served tree: what was
// populated in set-up and what every acknowledged write since has made
// of it. Reads are checked against it as they complete; after a window
// the crash-reopened store is checked against it (acked_lost).
type world struct {
	seed     uint64
	geo      geometry
	workload string

	privDirs   [][]string   // [conn][k] directory path
	privFiles  [][][]string // [conn][k][j] file path
	sharedDirs []string
	sharedFile [][]string

	slots   []slot       // write slots: subtree*slotsPerTree + j
	rslots  []slot       // mixed_open rename slots in shared dirs: dir*renameSlots + j
	aclVer  []aclState   // durable_write: subtree*callers + caller; mixed_open: shared dir
	jobs    []int        // stage_exec: jobs started, per caller
	tokens  tokenLedger  // acknowledged exec tokens
	userOut atomic.Int64 // payload bytes the clients wrote (PutFile data + ACL text)
}

// slot is one file that write ops overwrite and rename. Its lock orders
// the ops on one key: a closed-loop caller owns its slots outright, the
// open loop's pooled callers take the lock (the application's own
// per-key ordering, which the latency clock keeps running through).
type slot struct {
	mu      sync.Mutex
	dir     int  // subtree (or shared directory) the file currently sits in
	alt     bool // which of its two names it currently has
	version int  // last acknowledged content version
	// unknown: a write to the slot failed, so the server may or may not
	// have applied it; the crash check has nothing to hold it to.
	unknown bool
}

// aclState is one directory's ACL version. A setacl holds the lock for
// writing. On mixed_open every request whose ACL check reads the
// directory holds it for reading (the clock runs through the wait), so
// the driver never sends one while a setacl on the same directory is in
// flight: the server replaces an ACL file in three steps (create,
// truncate, write), a check that lands between them sees an empty ACL
// and refuses, and a workload's operations must not fail.
type aclState struct {
	mu      sync.RWMutex
	version int
	unknown bool // a setacl failed: see slot.unknown
}

type tokenLedger struct {
	mu     sync.Mutex
	tokens []string
}

// wrong reports an answer that disagrees with the model.
func wrong(format string, args ...any) error {
	return fmt.Errorf("wrong answer: "+format, args...)
}

const (
	adminUser   = "benchadmin"
	aclFileName = ".__acl"
)

func benchUser(c int) string { return fmt.Sprintf("bench%d", c) }

func newWorld(seed uint64, workload string, geo geometry) *world {
	w := &world{seed: seed, geo: geo, workload: workload}
	perConn := geo.metaDirs / geo.conns
	w.privDirs = make([][]string, geo.conns)
	w.privFiles = make([][][]string, geo.conns)
	for c := 0; c < geo.conns; c++ {
		w.privDirs[c] = make([]string, perConn)
		w.privFiles[c] = make([][]string, perConn)
		for k := 0; k < perConn; k++ {
			d := fmt.Sprintf("/home/u%d/p%03d", c, k)
			w.privDirs[c][k] = d
			w.privFiles[c][k] = filesIn(d, geo.filesPerDir)
		}
	}
	w.sharedDirs = make([]string, geo.metaDirs)
	w.sharedFile = make([][]string, geo.metaDirs)
	for k := range w.sharedDirs {
		d := fmt.Sprintf("/proj/vo/p%03d", k)
		w.sharedDirs[k] = d
		w.sharedFile[k] = filesIn(d, geo.filesPerDir)
	}
	w.slots = make([]slot, geo.subtrees*geo.slotsPerTree)
	for i := range w.slots {
		w.slots[i].dir = i / geo.slotsPerTree
	}
	w.rslots = make([]slot, geo.metaDirs*geo.renameSlots)
	for i := range w.rslots {
		w.rslots[i].dir = i / geo.renameSlots
	}
	if workload == "mixed_open" {
		w.aclVer = make([]aclState, geo.metaDirs)
	} else {
		w.aclVer = make([]aclState, geo.subtrees*geo.conns*geo.callers)
	}
	w.jobs = make([]int, geo.conns*geo.callers)
	return w
}

func filesIn(dir string, n int) []string {
	out := make([]string, n)
	for j := range out {
		out[j] = fmt.Sprintf("%s/f%02d", dir, j)
	}
	return out
}

func subtreeDir(s int) string { return fmt.Sprintf("/w%02d", s) }

// slotPath names a write slot's file where it currently sits.
func (w *world) slotPath(id int, s *slot) string {
	return fmt.Sprintf("%s/%c%04d", subtreeDir(s.dir), slotLetter(s.alt), id)
}

func (w *world) rslotPath(id int, s *slot) string {
	return fmt.Sprintf("%s/%c%04d", w.sharedDirs[s.dir], slotLetter(s.alt), id)
}

func slotLetter(alt bool) byte {
	if alt {
		return 't'
	}
	return 's'
}

// uses reports which populated sets a workload addresses.
func (w *world) uses(t target) bool {
	switch w.workload {
	case "meta_private":
		return t == tgtPrivate
	case "meta_shared":
		return t == tgtShared
	case "durable_write":
		return t == tgtWrite
	case "stage_exec":
		return t == tgtJob
	default:
		return t != tgtJob
	}
}

// privateACL is a reserve-minted home's ACL after its owner added the
// administrator: two entries.
func privateACL(c int) string {
	return fmt.Sprintf("unix:%s rwlax\nunix:%s rl\n", benchUser(c), adminUser)
}

// sharedACL is a community directory's ACL: wildcard lines for the
// member organisations, one line carrying the ACL's version, and the
// bench principals last, sharedACL entries in all.
func (w *world) sharedACL(version int) string {
	var b strings.Builder
	orgs := w.geo.sharedACL - w.geo.conns - 1
	for i := 0; i < orgs; i++ {
		fmt.Fprintf(&b, "globus:/O=Org%d/* rl\n", i)
	}
	fmt.Fprintf(&b, "unix:v%d l\n", version)
	for c := 0; c < w.geo.conns; c++ {
		fmt.Fprintf(&b, "unix:%s rwlax\n", benchUser(c))
	}
	return b.String()
}

func writeTreeACL(version int) string {
	return fmt.Sprintf("unix:%s rwlax\nunix:bench* rwlax\nunix:v%d l\n", adminUser, version)
}

// --- set-up ---------------------------------------------------------------

// loader writes the populated tree into the primary's journaled file
// system with the effect the server's own handlers have (mkdir: the
// directory and a copy of its parent's ACL; setacl: the text as given),
// but without each call waiting out a commit group and the follower's
// acknowledgement. Through the wire set-up was seconds of fsync waits
// and setup_s a measurement of the sandbox's disk that minute. The
// records are journaled and shipped like any others; the caller passes
// the barrier once at the end.
type loader struct {
	fs    *vfs.FS
	owner string
}

func (l loader) put(path string, data []byte) error {
	return l.fs.WriteFile(path, data, 0o644, l.owner)
}

func (l loader) setACL(dir, text string) error {
	return l.put(vfs.Join(dir, aclFileName), []byte(text))
}

func (l loader) mkdir(path string) error {
	inherited, err := l.fs.ReadFile(vfs.Join(vfs.Dir(path), aclFileName))
	if err != nil {
		return fmt.Errorf("mkdir %s: the parent's ACL: %w", path, err)
	}
	a, err := acl.Parse(string(inherited))
	if err != nil {
		return err
	}
	if err := l.fs.Mkdir(path, 0o755, l.owner); err != nil {
		return err
	}
	return l.setACL(path, a.String())
}

// populate builds the working set the workload addresses. What depends
// on who asks goes through the wire: owners[c] is bench principal c's
// session, and a home is minted by its owner's reserve right. The rest,
// thousands of directories and files, goes in through the loader.
func (w *world) populate(owners []*chirp.Client, ld loader) error {
	if w.uses(tgtPrivate) {
		if err := ld.mkdir("/home"); err != nil {
			return err
		}
		for c := range owners {
			home := fmt.Sprintf("/home/u%d", c)
			// The reserve right mints the home: its ACL names only the
			// creator, who then adds the administrator.
			if err := owners[c].Mkdir(home, 0o755); err != nil {
				return fmt.Errorf("reserve mkdir %s: %w", home, err)
			}
			if err := owners[c].SetACL(home, privateACL(c)); err != nil {
				return err
			}
			for k, dir := range w.privDirs[c] {
				if err := w.fillDir(ld, dir, w.privFiles[c][k], contentPrivate, c*w.geo.metaDirs+k); err != nil {
					return err
				}
			}
		}
	}
	if w.uses(tgtShared) {
		if err := ld.mkdir("/proj"); err != nil {
			return err
		}
		if err := ld.mkdir("/proj/vo"); err != nil {
			return err
		}
		for k, dir := range w.sharedDirs {
			if err := w.fillDir(ld, dir, w.sharedFile[k], contentShared, k); err != nil {
				return err
			}
			for j := 0; w.workload == "mixed_open" && j < w.geo.renameSlots; j++ {
				id := k*w.geo.renameSlots + j
				if err := w.putSlot(ld, w.rslotPath(id, &w.rslots[id]), contentRenameSlot, id); err != nil {
					return err
				}
			}
			if err := ld.setACL(dir, w.sharedACL(0)); err != nil {
				return err
			}
		}
	}
	if w.uses(tgtWrite) {
		callers := w.geo.conns * w.geo.callers
		for s := 0; s < w.geo.subtrees; s++ {
			dir := subtreeDir(s)
			if err := ld.mkdir(dir); err != nil {
				return err
			}
			if err := ld.setACL(dir, writeTreeACL(0)); err != nil {
				return err
			}
			for j := 0; j < w.geo.slotsPerTree; j++ {
				id := s*w.geo.slotsPerTree + j
				if err := w.putSlot(ld, w.slotPath(id, &w.slots[id]), contentSlot, id); err != nil {
					return err
				}
			}
			for c := 0; w.workload == "durable_write" && c < callers; c++ {
				if err := ld.mkdir(fmt.Sprintf("%s/a%02d", dir, c)); err != nil {
					return err
				}
			}
		}
	}
	if w.uses(tgtJob) {
		if err := ld.mkdir("/work"); err != nil {
			return err
		}
		// Visitors hold only the reserve right in /work: each job's
		// directory is minted for the principal that submits it.
		if err := ld.setACL("/work", fmt.Sprintf("unix:%s rwlax\nunix:bench* lv(rwlax)\n", adminUser)); err != nil {
			return err
		}
	}
	return nil
}

// fillDir makes one metadata directory and its files.
func (w *world) fillDir(ld loader, dir string, files []string, stream uint64, key int) error {
	if err := ld.mkdir(dir); err != nil {
		return err
	}
	buf := make([]byte, w.geo.metaFileSize)
	for j, f := range files {
		fileContent(w.seed, stream, key*w.geo.filesPerDir+j, 0, buf)
		if err := ld.put(f, buf); err != nil {
			return err
		}
	}
	return nil
}

func (w *world) putSlot(ld loader, path string, stream uint64, id int) error {
	buf := make([]byte, w.geo.writeSize)
	fileContent(w.seed, stream, id, 0, buf)
	return ld.put(path, buf)
}

// runTasks runs the tasks on a bounded pool and reports the first error.
func runTasks(tasks []func() error, workers int) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(tasks) {
					return
				}
				if err := tasks[n](); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// --- executing one op ---------------------------------------------------

// call names one client-library call the driver times on its own
// (driver.<call>_p50_us / _p99_us).
type call uint8

const (
	callStat call = iota
	callOpen
	callPread
	callReaddir
	callGetACL
	callPutFile4K
	callRename
	callRenameCross
	callMkdir
	callSetACL
	callPutFile256K
	callExec
	callGetFile256K
	numCalls
)

var callNames = [numCalls]string{
	"stat", "open", "pread", "readdir", "getacl", "putfile_4k", "rename", "rename_cross",
	"mkdir", "setacl", "putfile_256k", "exec", "getfile_256k",
}

// caller is one in-flight caller's private state: its connection, its
// scratch buffers and (when per-call timing is on) its call samples.
type caller struct {
	id    int // global caller index: names its temporary files
	conn  int // which principal/connection it uses for non-private ops
	cls   []*chirp.Client
	admin *chirp.Client // the site's session: reaps finished job directories
	buf   []byte        // read buffer
	want  []byte        // expected bytes
	calls *callSamples
	rng   *rng // exec tokens and job payloads
}

// callSamples collects per-call latencies in nanoseconds.
type callSamples struct{ ns [numCalls][]int64 }

func (c *caller) begin() time.Time {
	if c.calls == nil {
		return time.Time{}
	}
	return time.Now()
}

func (c *caller) end(k call, t0 time.Time) {
	if c.calls != nil {
		c.calls.ns[k] = append(c.calls.ns[k], int64(time.Since(t0)))
	}
}

// do executes one op and checks its answer against the model. It
// returns nil only when every call succeeded and every answer matched.
func (w *world) do(c *caller, o op) error {
	switch {
	case o.kind == opJob:
		return w.doJob(c)
	case o.kind.isWrite():
		return w.doWrite(c, o)
	default:
		return w.doRead(c, o)
	}
}

func (w *world) doRead(c *caller, o op) error {
	if w.workload == "mixed_open" && o.tgt == tgtShared {
		st := &w.aclVer[o.a]
		st.mu.RLock()
		defer st.mu.RUnlock()
	}
	var (
		cl        *chirp.Client
		dir, file string
		key       int
		stream    uint64
		aclLines  int
		mine      string
	)
	if o.tgt == tgtPrivate {
		owner := c.conn
		if w.workload == "mixed_open" {
			owner = o.c
		}
		cl = c.cls[owner]
		dir, file = w.privDirs[owner][o.a], w.privFiles[owner][o.a][o.b]
		key = (owner*w.geo.metaDirs+o.a)*w.geo.filesPerDir + o.b
		stream, aclLines, mine = contentPrivate, 2, "unix:"+benchUser(owner)+" "
	} else {
		cl = c.cls[c.conn]
		dir, file = w.sharedDirs[o.a], w.sharedFile[o.a][o.b]
		key = o.a*w.geo.filesPerDir + o.b
		stream, aclLines, mine = contentShared, w.geo.sharedACL, "unix:"+benchUser(c.conn)+" "
	}
	size := int64(w.geo.metaFileSize)
	switch o.kind {
	case opStat, opLstat:
		t0 := c.begin()
		var st vfs.Stat
		var err error
		if o.kind == opStat {
			st, err = cl.Stat(file)
		} else {
			st, err = cl.Lstat(file)
		}
		c.end(callStat, t0)
		if err != nil {
			return err
		}
		if st.Size != size || st.Type != vfs.TypeRegular {
			return wrong("stat %s: size %d type %v", file, st.Size, st.Type)
		}
	case opOpenRead:
		t0 := c.begin()
		fd, err := cl.Open(file, kernel.ORdonly, 0)
		c.end(callOpen, t0)
		if err != nil {
			return err
		}
		t0 = c.begin()
		n, err := cl.Pread(fd, c.buf[:size], 0)
		c.end(callPread, t0)
		cerr := cl.CloseFD(fd)
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		fileContent(w.seed, stream, key, 0, c.want[:size])
		if int64(n) != size || !bytes.Equal(c.buf[:size], c.want[:size]) {
			return wrong("pread %s: %d bytes, content mismatch", file, n)
		}
	case opReaddir:
		t0 := c.begin()
		ents, err := cl.ReadDir(dir)
		c.end(callReaddir, t0)
		if err != nil {
			return err
		}
		files := 0
		for _, e := range ents {
			if len(e.Name) == 3 && e.Name[0] == 'f' {
				files++
			}
		}
		// A shared directory also holds mixed_open's rename slots, which
		// move between directories; the populated files never do.
		if files != w.geo.filesPerDir || (w.workload != "mixed_open" && len(ents) != files+1) {
			return wrong("readdir %s: %d entries, %d files", dir, len(ents), files)
		}
	case opGetACL:
		t0 := c.begin()
		text, err := cl.GetACL(dir)
		c.end(callGetACL, t0)
		if err != nil {
			return err
		}
		if strings.Count(text, "\n") != aclLines || !strings.Contains(text, mine) {
			return wrong("getacl %s: %d lines", dir, strings.Count(text, "\n"))
		}
	}
	return nil
}

// ownedSlot maps a caller's draw to a slot in subtree s that only this
// caller writes (closed loop), so per-key order needs no waiting.
func (w *world) ownedSlot(c *caller, s, b int) int {
	callers := w.geo.conns * w.geo.callers
	if w.workload != "durable_write" || callers > w.geo.slotsPerTree {
		return s*w.geo.slotsPerTree + b
	}
	per := w.geo.slotsPerTree / callers
	return s*w.geo.slotsPerTree + c.id + callers*(b%per)
}

func (w *world) doWrite(c *caller, o op) error {
	cl := c.cls[c.conn]
	switch o.kind {
	case opPutFile:
		id := w.ownedSlot(c, o.a, o.b)
		s := &w.slots[id]
		s.mu.Lock()
		defer s.mu.Unlock()
		data := c.want[:w.geo.writeSize]
		fileContent(w.seed, contentSlot, id, s.version+1, data)
		t0 := c.begin()
		err := cl.PutFile(w.slotPath(id, s), data, 0o644)
		c.end(callPutFile4K, t0)
		if err != nil {
			s.unknown = true
			return err
		}
		s.version++
		w.userOut.Add(int64(len(data)))
	case opCreateUnlink:
		path := fmt.Sprintf("%s/c%02d", subtreeDir(o.a), c.id)
		fd, err := cl.Open(path, kernel.OWronly|kernel.OCreat, 0o644)
		if err != nil {
			return err
		}
		if err := cl.CloseFD(fd); err != nil {
			return err
		}
		return cl.Unlink(path)
	case opMkdirRmdir:
		path := fmt.Sprintf("%s/d%02d", subtreeDir(o.a), c.id)
		t0 := c.begin()
		err := cl.Mkdir(path, 0o755)
		c.end(callMkdir, t0)
		if err != nil {
			return err
		}
		return cl.Rmdir(path)
	case opRename, opRenameCross:
		var (
			id   int
			s    *slot
			path func(int, *slot) string
			dirs int
		)
		if o.tgt == tgtShared {
			id, path, dirs = o.a*w.geo.renameSlots+o.b, w.rslotPath, w.geo.metaDirs
			s = &w.rslots[id]
		} else {
			id, path, dirs = w.ownedSlot(c, o.a, o.b), w.slotPath, w.geo.subtrees
			s = &w.slots[id]
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		moved := slot{dir: s.dir, alt: !s.alt}
		k := callRename
		if o.kind == opRenameCross {
			k = callRenameCross
			moved.dir = o.c
			if moved.dir == s.dir {
				moved.dir = (s.dir + 1) % dirs
			}
		}
		if o.tgt == tgtShared {
			// Both directories' ACLs are checked; ascending order, so two
			// renames and two setacls cannot wait for each other in a ring.
			lo, hi := min(s.dir, moved.dir), max(s.dir, moved.dir)
			w.aclVer[lo].mu.RLock()
			defer w.aclVer[lo].mu.RUnlock()
			if hi != lo {
				w.aclVer[hi].mu.RLock()
				defer w.aclVer[hi].mu.RUnlock()
			}
		}
		t0 := c.begin()
		err := cl.Rename(path(id, s), path(id, &moved))
		c.end(k, t0)
		if err != nil {
			s.unknown = true
			return err
		}
		s.dir, s.alt = moved.dir, moved.alt
	case opSetACL:
		var (
			st   *aclState
			dir  string
			text func(int) string
		)
		if o.tgt == tgtShared {
			st, dir, text = &w.aclVer[o.a], w.sharedDirs[o.a], w.sharedACL
		} else {
			st = &w.aclVer[o.a*w.geo.conns*w.geo.callers+c.id]
			dir, text = fmt.Sprintf("%s/a%02d", subtreeDir(o.a), c.id), writeTreeACL
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		body := text(st.version + 1)
		t0 := c.begin()
		err := cl.SetACL(dir, body)
		c.end(callSetACL, t0)
		if err != nil {
			st.unknown = true
			return err
		}
		st.version++
		w.userOut.Add(int64(len(body)))
	}
	return nil
}

// doJob is the paper's Figure 3 job, whole: reserve a directory, stage
// the program and its input, run it in an identity box, retrieve and
// verify the output, clean up.
func (w *world) doJob(c *caller) error {
	dir, in, err := w.stageAndRun(c)
	if err != nil {
		return err
	}
	cl := c.cls[c.conn]
	t0 := c.begin()
	out, err := cl.GetFile(dir + "/out.dat")
	c.end(callGetFile256K, t0)
	if err != nil {
		return fmt.Errorf("retrieving out.dat: %w", err)
	}
	if len(out) != len(in) {
		return wrong("job %s: out.dat is %d bytes, want %d", dir, len(out), len(in))
	}
	for i, b := range in {
		if out[i] != b^0x5a {
			return wrong("job %s: out.dat differs at byte %d", dir, i)
		}
	}
	return w.cleanJob(c, dir)
}

// stageAndRun does a job up to and including exec, leaving its files in
// place. The crash check ends each caller on one of these so the
// reopened store must hold an executed job's output.
func (w *world) stageAndRun(c *caller) (dir string, in []byte, err error) {
	cl := c.cls[c.conn]
	w.jobs[c.id]++
	dir = fmt.Sprintf("/work/j%02d_%06d", c.id, w.jobs[c.id])
	t0 := c.begin()
	err = cl.Mkdir(dir, 0o755)
	c.end(callMkdir, t0)
	if err != nil {
		return dir, nil, fmt.Errorf("reserve mkdir: %w", err)
	}
	if err := cl.PutFile(dir+"/sim.exe", kernel.ExecutableBytes("sim"), 0o755); err != nil {
		return dir, nil, fmt.Errorf("staging sim.exe: %w", err)
	}
	in = c.want[:w.geo.jobSize]
	c.rng.fill(in)
	t0 = c.begin()
	err = cl.PutFile(dir+"/input.dat", in, 0o644)
	c.end(callPutFile256K, t0)
	if err != nil {
		return dir, nil, fmt.Errorf("staging input.dat: %w", err)
	}
	w.userOut.Add(int64(len(in)))
	token := fmt.Sprintf("%016x%016x", c.rng.u64(), c.rng.u64())
	t0 = c.begin()
	res, err := cl.ExecToken(token, dir, dir+"/sim.exe")
	c.end(callExec, t0)
	if err != nil {
		return dir, nil, fmt.Errorf("exec: %w", err)
	}
	if res.Code != 0 {
		return dir, nil, wrong("job %s: exit %d", dir, res.Code)
	}
	w.tokens.mu.Lock()
	w.tokens.tokens = append(w.tokens.tokens, token)
	w.tokens.mu.Unlock()
	return dir, in, nil
}

// cleanJob removes a finished job. The visitor unlinks its own files; the
// emptied directory is reaped by the administrator, because removing a
// directory takes the write right in its parent and a visitor holds only
// the reserve right in /work.
func (w *world) cleanJob(c *caller, dir string) error {
	for _, f := range []string{"/sim.exe", "/input.dat", "/out.dat"} {
		if err := c.cls[c.conn].Unlink(dir + f); err != nil {
			return fmt.Errorf("cleaning %s: %w", f, err)
		}
	}
	if err := c.admin.Rmdir(dir); err != nil {
		return fmt.Errorf("reaping the job directory: %w", err)
	}
	return nil
}
