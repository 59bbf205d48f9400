package durable_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// startDurableServer opens (or recovers) the state directory and serves
// its file system over Chirp, with the store journaling every mutation
// and tokened reply. It returns the server, the store, and the count of
// sim executions on this incarnation's kernel.
func startDurableServer(t *testing.T, dir string) (*chirp.Server, *durable.Store, *atomic.Int64) {
	return startDurableServerOpts(t, dir, durable.Options{Owner: "owner"})
}

func startDurableServerOpts(t *testing.T, dir string, opts durable.Options) (*chirp.Server, *durable.Store, *atomic.Int64) {
	t.Helper()
	store, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(store.FS(), vclock.Default())
	var execs atomic.Int64
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		execs.Add(1)
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		if err := p.WriteFile("out.dat", bytes.ToUpper(in), 0o644); err != nil {
			return 2
		}
		return 0
	})
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.All)
	srv, err := chirp.NewServer(k, chirp.ServerOptions{
		Owner:         "owner",
		RootACL:       rootACL,
		Verifiers:     map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		DedupeJournal: store,
		DedupeSeed:    store.DedupeEntries(),
		Durability:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })
	return srv, store, &execs
}

func adminDial(t *testing.T, srv *chirp.Server) *chirp.Client {
	t.Helper()
	cl, err := chirp.Dial(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// runFigure3 drives the Figure-3 workflow under base (normally "/work"):
// reserve the directory, edit its ACL (widen for a visitor, then narrow
// again), stage the simulation, execute it with a request token, and
// fetch the output. It returns the exec token.
func runFigure3(t *testing.T, cl *chirp.Client, base string) string {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.Mkdir(base, 0o755))
	wide := &acl.ACL{}
	wide.Set("unix:admin", acl.All, acl.All)
	wide.Set("unix:visitor", acl.Read|acl.List, acl.None)
	must(cl.SetACL(base, wide.String()))
	must(cl.PutFile(base+"/sim.exe", kernel.ExecutableBytes("sim"), 0o755))
	must(cl.PutFile(base+"/input.dat", []byte("signal data"), 0o644))
	narrow := &acl.ACL{}
	narrow.Set("unix:admin", acl.All, acl.All)
	must(cl.SetACL(base, narrow.String()))
	token := chirp.NewRequestToken()
	res, err := cl.ExecToken(token, base, base+"/sim.exe")
	must(err)
	if res.Code != 0 {
		t.Fatalf("sim exit code %d", res.Code)
	}
	out, err := cl.GetFile(base + "/out.dat")
	must(err)
	if string(out) != "SIGNAL DATA" {
		t.Fatalf("out.dat = %q", out)
	}
	return token
}

// dumpTree renders a file system into a canonical textual image (same
// scheme as the in-package tests, via the exported API only).
func dumpTree(t *testing.T, fs *vfs.FS) string {
	t.Helper()
	var lines []string
	var walk func(path string)
	walk = func(path string) {
		st, err := fs.Lstat(path)
		if err != nil {
			t.Fatalf("lstat %s: %v", path, err)
		}
		line := fmt.Sprintf("%s type=%d mode=%o owner=%s group=%s", path, st.Type, st.Mode, st.Owner, st.Group)
		switch {
		case st.IsDir():
			ents, err := fs.ReadDir(path)
			if err != nil {
				t.Fatalf("readdir %s: %v", path, err)
			}
			lines = append(lines, line)
			for _, e := range ents {
				walk(vfs.Join(path, e.Name))
			}
			return
		case st.Type == vfs.TypeSymlink:
			target, _ := fs.Readlink(path)
			line += " -> " + target
		default:
			data, err := fs.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			line += fmt.Sprintf(" content=%q", data)
		}
		lines = append(lines, line)
	}
	walk("/")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// applyMutation replays one journaled mutation through the public VFS
// API — an independent reimplementation of the store's replay, so the
// matrix does not trust the code under test to define its own oracle.
func applyMutation(t *testing.T, fs *vfs.FS, m vfs.Mutation) {
	t.Helper()
	var err error
	switch m.Op {
	case vfs.MutMkdir:
		err = fs.Mkdir(m.Path, m.Mode, m.Owner)
	case vfs.MutCreate:
		_, err = fs.Create(m.Path, m.Mode, m.Owner)
	case vfs.MutWrite:
		_, err = fs.WriteAt(m.Path, m.Data, m.Off)
	case vfs.MutTruncate:
		err = fs.Truncate(m.Path, m.Size)
	case vfs.MutUnlink:
		err = fs.Unlink(m.Path)
	case vfs.MutRmdir:
		err = fs.Rmdir(m.Path)
	case vfs.MutSymlink:
		err = fs.Symlink(m.Path2, m.Path, m.Owner)
	case vfs.MutLink:
		err = fs.Link(m.Path, m.Path2)
	case vfs.MutRename:
		err = fs.Rename(m.Path, m.Path2)
	case vfs.MutChmod:
		err = fs.Chmod(m.Path, m.Mode)
	case vfs.MutChown:
		err = fs.Chown(m.Path, m.Owner, m.Group)
	default:
		t.Fatalf("unknown op %d", m.Op)
	}
	if err != nil {
		t.Fatalf("reference replay of %v %s: %v", m.Op, m.Path, err)
	}
}

// collectACLs parses every ACL file in the tree, failing the test on
// any that does not parse (a partial ACL write must never survive
// recovery). It returns path -> canonical ACL text.
func collectACLs(t *testing.T, fs *vfs.FS) map[string]string {
	t.Helper()
	out := make(map[string]string)
	var walk func(path string)
	walk = func(path string) {
		ents, err := fs.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			child := vfs.Join(path, e.Name)
			if e.Type == vfs.TypeDir {
				walk(child)
				continue
			}
			if e.Name != acl.FileName {
				continue
			}
			data, err := fs.ReadFile(child)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := acl.Parse(string(data))
			if err != nil {
				t.Fatalf("ACL at %s does not parse after recovery: %v\n%q", child, err, data)
			}
			out[child] = parsed.String()
		}
	}
	walk("/")
	return out
}

// TestKillAtEveryWALOffset is the crash matrix: run the Figure-3
// workflow (plus ACL edits) against a durable server, then for every
// byte offset of the resulting WAL simulate a crash that preserved
// exactly that prefix, recover, and require the surviving state to be
// byte-identical to some prefix of the mutation history — in
// particular, every surviving ACL parses and matches a historical ACL
// state, so a partial record can never widen one.
func TestKillAtEveryWALOffset(t *testing.T) {
	liveDir := t.TempDir()
	srv, store, _ := startDurableServer(t, liveDir)
	cl := adminDial(t, srv)
	runFigure3(t, cl, "/work")
	cl.Close()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	wal, err := durable.LogBytes(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := durable.DecodeAll(wal)
	if torn || len(recs) == 0 {
		t.Fatalf("workload log unusable: %d records, torn=%v", len(recs), torn)
	}
	t.Logf("workload produced %d WAL records, %d bytes", len(recs), len(wal))

	// Record end offsets, re-walking the frames independently.
	var ends []int
	off := 0
	for off < len(wal) {
		_, n, err := durable.DecodeRecord(wal[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}

	// Reference history: state dumps and ACL images after each record,
	// built through the public VFS API.
	ref := vfs.New("owner")
	dumps := []string{dumpTree(t, ref)}
	aclHistory := map[string]bool{} // every historical canonical ACL text
	for _, rec := range recs {
		if rec.IsMutation() {
			applyMutation(t, ref, rec.Mut)
		}
		dumps = append(dumps, dumpTree(t, ref))
		for _, text := range collectACLs(t, ref) {
			aclHistory[text] = true
		}
	}

	// The matrix: every byte offset is a crash point.
	cutDir := t.TempDir()
	for cut := 0; cut <= len(wal); cut++ {
		stateDir := filepath.Join(cutDir, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stateDir, "wal.c01.s00.000000.seg"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := durable.Open(stateDir, durable.Options{Owner: "owner"})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := 0
		for i, e := range ends {
			if e <= cut {
				k = i + 1
			}
		}
		if got := dumpTree(t, s.FS()); got != dumps[k] {
			t.Fatalf("cut %d: recovered state is not history prefix %d:\ngot:\n%s\nwant:\n%s", cut, k, got, dumps[k])
		}
		ri := s.Recovery()
		if ri.Unapplied != 0 {
			t.Fatalf("cut %d: %d records failed to replay: %s", cut, ri.Unapplied, ri)
		}
		wantTorn := cut != 0 && (k == 0 || ends[k-1] != cut)
		if ri.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v (%s)", cut, ri.Torn, wantTorn, ri)
		}
		// No ACL may survive in a state history never produced.
		for path, text := range collectACLs(t, s.FS()) {
			if !aclHistory[text] {
				t.Fatalf("cut %d: ACL at %s is not a historical state:\n%s", cut, path, text)
			}
		}
		s.Close()
		os.RemoveAll(stateDir)
	}
}

// TestRecoveredServerServesAndDedupes recovers from the full log of a
// killed server and proves (1) the Figure-3 outputs survived, (2) a
// retried exec token replays instead of re-executing, and (3) the
// recovered server completes a fresh workflow run.
func TestRecoveredServerServesAndDedupes(t *testing.T) {
	dir := t.TempDir()
	srv, store, execs := startDurableServer(t, dir)
	cl := adminDial(t, srv)
	token := runFigure3(t, cl, "/work")
	if execs.Load() != 1 {
		t.Fatalf("sim ran %d times, want 1", execs.Load())
	}
	// Kill without any orderly shutdown: the WAL (fsync-per-record) is
	// all that survives.
	cl.Close()
	srv.Close()
	store.Close()

	srv2, _, execs2 := startDurableServer(t, dir)
	cl2 := adminDial(t, srv2)
	// (1) The pre-crash output is still there.
	out, err := cl2.GetFile("/work/out.dat")
	if err != nil || string(out) != "SIGNAL DATA" {
		t.Fatalf("out.dat after recovery = %q, %v", out, err)
	}
	// (2) Retrying the same token must not re-execute.
	res, err := cl2.ExecToken(token, "/work", "/work/sim.exe")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != 0 {
		t.Fatalf("replayed exec code = %d", res.Code)
	}
	if execs2.Load() != 0 {
		t.Fatalf("retried token re-executed %d times on the recovered server", execs2.Load())
	}
	// (3) A fresh workflow completes against the recovered server.
	runFigure3(t, cl2, "/rerun")
	if execs2.Load() != 1 {
		t.Fatalf("fresh workflow ran sim %d times, want 1", execs2.Load())
	}
}

// TestKillAtEverySegmentBoundary extends the crash matrix to the
// segmented log: the same workload runs with a rotation threshold small
// enough to spread its history over many segments, and a crash is
// simulated at every byte of every segment — full earlier segments on
// disk, the segment holding the crash point truncated there, later
// segments never created (exactly what a kill around a rotation
// leaves, including the boundaries themselves). Recovery must replay
// the surviving chain onto a history prefix, and no surviving ACL may
// widen.
func TestKillAtEverySegmentBoundary(t *testing.T) {
	liveDir := t.TempDir()
	srv, store, _ := startDurableServerOpts(t, liveDir, durable.Options{Owner: "owner", SegmentBytes: 192})
	cl := adminDial(t, srv)
	runFigure3(t, cl, "/work")
	cl.Close()
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	segPaths, err := filepath.Glob(filepath.Join(liveDir, "wal.c01.s00.*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segPaths) // fixed-width sequence numbers sort lexically
	if len(segPaths) < 3 {
		t.Fatalf("workload produced %d segments at a 192-byte limit; want a real chain", len(segPaths))
	}
	var chain [][]byte
	var wal []byte
	for _, p := range segPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, data)
		wal = append(wal, data...)
	}
	recs, _, torn := durable.DecodeAll(wal)
	if torn || len(recs) == 0 {
		t.Fatalf("workload log unusable: %d records, torn=%v", len(recs), torn)
	}
	t.Logf("workload produced %d records over %d segments, %d bytes", len(recs), len(chain), len(wal))

	// Record end offsets over the concatenated chain (rotation never
	// splits a record, so segment boundaries align with record ends).
	var ends []int
	off := 0
	for off < len(wal) {
		_, n, err := durable.DecodeRecord(wal[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		ends = append(ends, off)
	}

	ref := vfs.New("owner")
	dumps := []string{dumpTree(t, ref)}
	aclHistory := map[string]bool{}
	for _, rec := range recs {
		if rec.IsMutation() {
			applyMutation(t, ref, rec.Mut)
		}
		dumps = append(dumps, dumpTree(t, ref))
		for _, text := range collectACLs(t, ref) {
			aclHistory[text] = true
		}
	}

	cutDir := t.TempDir()
	for cut := 0; cut <= len(wal); cut++ {
		stateDir := filepath.Join(cutDir, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Materialize the crash image: whole segments below the cut, the
		// cut segment truncated, everything after it nonexistent.
		rem := cut
		for i, seg := range chain {
			if rem <= 0 {
				break
			}
			n := len(seg)
			if rem < n {
				n = rem
			}
			if err := os.WriteFile(filepath.Join(stateDir, filepath.Base(segPaths[i])), seg[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			rem -= n
		}
		s, err := durable.Open(stateDir, durable.Options{Owner: "owner"})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := 0
		for i, e := range ends {
			if e <= cut {
				k = i + 1
			}
		}
		if got := dumpTree(t, s.FS()); got != dumps[k] {
			t.Fatalf("cut %d: recovered state is not history prefix %d:\ngot:\n%s\nwant:\n%s", cut, k, got, dumps[k])
		}
		ri := s.Recovery()
		if ri.Unapplied != 0 {
			t.Fatalf("cut %d: %d records failed to replay: %s", cut, ri.Unapplied, ri)
		}
		wantTorn := cut != 0 && (k == 0 || ends[k-1] != cut)
		if ri.Torn != wantTorn {
			t.Fatalf("cut %d: torn=%v, want %v (%s)", cut, ri.Torn, wantTorn, ri)
		}
		for path, text := range collectACLs(t, s.FS()) {
			if !aclHistory[text] {
				t.Fatalf("cut %d: ACL at %s is not a historical state:\n%s", cut, path, text)
			}
		}
		s.Close()
		os.RemoveAll(stateDir)
	}
}
