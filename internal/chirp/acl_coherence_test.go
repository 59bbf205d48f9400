package chirp

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// The server memoises each parsed ACL on the ACL file's inode and
// validates the memo against the inode's mtime at every check
// (vfs.FS.MemoIn). These tests pin the consequence: whoever rewrites,
// moves, links or removes an ACL file — a handler, or a writer no
// handler sees — is honoured by the very next check, at either window.

const (
	aclAdminOnly = "unix:admin rwlax\n"
	aclWithBob   = "unix:admin rwlax\nunix:bob rl\n"
)

// unixClient dials as unix:<user>, asking for credit window win (0: the default).
func unixClient(t *testing.T, srv *Server, user string, win int) *Client {
	return dialAs(t, srv, &auth.UnixClient{User: user}, ClientOptions{Window: win})
}

// coherenceFixture starts a server with /d/f owned by unix:admin (the
// root ACL gives unix:bob nothing) and returns admin's and bob's
// sessions.
func coherenceFixture(t *testing.T, win int) (srv *Server, k *kernel.Kernel, admin, bob *Client) {
	t.Helper()
	srv, k, _ = testServer(t)
	admin = unixClient(t, srv, "admin", win)
	bob = unixClient(t, srv, "bob", win)
	if err := admin.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := admin.SetACL("/d", aclAdminOnly); err != nil {
		t.Fatal(err)
	}
	if err := admin.PutFile("/d/f", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	return srv, k, admin, bob
}

// readChecks runs the three read-side checks — stat and open (the ACL
// of the file's directory) and getacl (the directory's own ACL, plus
// the memoised text) — against dir/f as cl, and fails
// unless every one is allowed, or every one refused with EPERM.
func readChecks(t *testing.T, cl *Client, dir string, allowed bool, wantACL string) {
	t.Helper()
	_, statErr := cl.Stat(dir + "/f")
	fd, openErr := cl.Open(dir+"/f", kernel.ORdonly, 0)
	if openErr == nil {
		cl.CloseFD(fd)
	}
	text, aclErr := cl.GetACL(dir)
	for _, c := range []struct {
		op  string
		err error
	}{{"stat", statErr}, {"open", openErr}, {"getacl", aclErr}} {
		if allowed && c.err != nil {
			t.Fatalf("%s under %s: %v, want allowed", c.op, dir, c.err)
		}
		if !allowed && !errors.Is(c.err, vfs.ErrPermission) {
			t.Fatalf("%s under %s: %v, want EPERM", c.op, dir, c.err)
		}
	}
	if allowed && text != wantACL {
		t.Fatalf("getacl %s = %q, want %q", dir, text, wantACL)
	}
}

// A grant and a revoke made on session A are honoured by session B's
// next request; checks that find an unchanged ACL file do not parse it.
func TestACLCoherenceSetACLAcrossSessions(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, admin, bob := coherenceFixture(t, win)
		readChecks(t, bob, "/d", false, "")
		if err := admin.SetACL("/d", aclWithBob); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/d", true, aclWithBob)

		checks := srv.Metrics().Counter(MetricACLChecks)
		parses := srv.Metrics().Counter(MetricACLParses)
		c0, p0 := checks.Value(), parses.Value()
		for i := 0; i < 20; i++ {
			readChecks(t, bob, "/d", true, aclWithBob)
		}
		if got := parses.Value() - p0; got != 0 {
			t.Fatalf("%s rose by %d over checks of an unchanged ACL, want 0", MetricACLParses, got)
		}
		if got := checks.Value() - c0; got < 60 {
			t.Fatalf("%s rose by %d over 60 checked requests", MetricACLChecks, got)
		}

		if err := admin.SetACL("/d", aclAdminOnly); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/d", false, "")
		if got := parses.Value() - p0; got == 0 {
			t.Fatalf("%s did not move after the ACL file changed", MetricACLParses)
		}
	})
}

// Writers no handler sees: the benchmark loader's fs.WriteFile straight
// into the tree, and a boxed program's setacl through the kernel.
func TestACLCoherenceWritersBehindTheServer(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		_, k, admin, bob := coherenceFixture(t, win)
		readChecks(t, bob, "/d", false, "") // memoise the admin-only version

		if err := k.FS().WriteFile("/d/"+acl.FileName, []byte(aclWithBob), 0o644, "chirpowner"); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/d", true, aclWithBob)

		k.RegisterProgram("revoke", func(p *kernel.Proc, args []string) int {
			if err := p.SetACL(".", aclAdminOnly); err != nil {
				return 1
			}
			return 0
		})
		if err := admin.PutFile("/d/revoke.exe", kernel.ExecutableBytes("revoke"), 0o755); err != nil {
			t.Fatal(err)
		}
		if res, err := admin.Exec("/d", "/d/revoke.exe"); err != nil || res.Code != 0 {
			t.Fatalf("boxed setacl: code %d, %v", res.Code, err)
		}
		readChecks(t, bob, "/d", false, "")
	})
}

// Namespace changes around a memoised ACL: the memo lives on the inode,
// so a path that now names a different inode (or none) never sees it.
func TestACLCoherenceNamespaceChanges(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		_, k, admin, bob := coherenceFixture(t, win)
		fs := k.FS()
		if err := admin.SetACL("/d", aclWithBob); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/d", true, aclWithBob)

		// Directory rename: the new path carries the ACL, the old path
		// falls back to its ancestor (the root grants bob nothing).
		if err := admin.Rename("/d", "/e"); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/e", true, aclWithBob)
		readChecks(t, bob, "/d", false, "")

		// rmdir + mkdir of the same name: the fresh directory inherits
		// the root's ACL, not the one its predecessor was checked under.
		if err := admin.Unlink("/e/f"); err != nil {
			t.Fatal(err)
		}
		if err := admin.Rmdir("/e"); err != nil {
			t.Fatal(err)
		}
		if err := admin.Mkdir("/e", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.PutFile("/e/f", []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/e", false, "")

		// A symlink to the directory and a second directory whose ACL
		// file is a hard link to the first's: one inode, one ACL.
		if err := admin.SetACL("/e", aclWithBob); err != nil {
			t.Fatal(err)
		}
		if err := admin.Symlink("/e", "/s"); err != nil {
			t.Fatal(err)
		}
		if err := admin.Mkdir("/h", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.PutFile("/h/f", []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fs.Unlink("/h/" + acl.FileName); err != nil {
			t.Fatal(err)
		}
		if err := fs.Link("/e/"+acl.FileName, "/h/"+acl.FileName); err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"/e", "/s", "/h"} {
			readChecks(t, bob, dir, true, aclWithBob)
		}
		if err := admin.SetACL("/e", aclAdminOnly); err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{"/e", "/s", "/h"} {
			readChecks(t, bob, dir, false, "")
		}

		// Unlinking the ACL file hands the directory to its ancestor.
		if err := admin.SetACL("/e", aclWithBob); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/e", true, aclWithBob)
		if err := admin.Unlink("/e/" + acl.FileName); err != nil {
			t.Fatal(err)
		}
		readChecks(t, bob, "/e", false, "")
		rootACL, err := admin.GetACL("/")
		if err != nil {
			t.Fatal(err)
		}
		readChecks(t, admin, "/e", true, rootACL)
	})
}

// A malformed ACL fails closed — even for its administrator — until it
// is repaired.
func TestACLCoherenceMalformedThenRepaired(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		_, k, admin, bob := coherenceFixture(t, win)
		readChecks(t, admin, "/d", true, aclAdminOnly)
		if err := k.FS().WriteFile("/d/"+acl.FileName, []byte("unix:bob rl trailing-garbage\n"), 0o644, "chirpowner"); err != nil {
			t.Fatal(err)
		}
		readChecks(t, admin, "/d", false, "")
		readChecks(t, bob, "/d", false, "")
		if err := k.FS().WriteFile("/d/"+acl.FileName, []byte(aclWithBob), 0o644, "chirpowner"); err != nil {
			t.Fatal(err)
		}
		readChecks(t, admin, "/d", true, aclWithBob)
		readChecks(t, bob, "/d", true, aclWithBob)
	})
}

// A follower's tree is written by the replication apply loop, not by
// any handler of its own server; its read checks follow the ACL it just
// applied.
func TestACLCoherenceOnFollower(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		primary := startReplMember(t, "vol", "", "")
		follower := startReplMember(t, "vol", "", primary.addr)
		pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

		admin := unixClient(t, primary.srv, "admin", win)
		bob := unixClient(t, follower.srv, "bob", win)
		caughtUp := func() {
			t.Helper()
			st, err := admin.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bob.WaitLSN(st.AppliedLSN, 2*time.Second); err != nil {
				t.Fatalf("waitlsn: %v", err)
			}
		}
		if err := admin.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.PutFile("/d/f", []byte("payload"), 0o644); err != nil {
			t.Fatal(err)
		}
		caughtUp()
		readChecks(t, bob, "/d", false, "")
		for _, step := range []struct {
			text    string
			allowed bool
		}{{aclWithBob, true}, {aclAdminOnly, false}, {aclWithBob, true}} {
			if err := admin.SetACL("/d", step.text); err != nil {
				t.Fatal(err)
			}
			caughtUp()
			readChecks(t, bob, "/d", step.allowed, step.text)
		}
	})
}

// Alternating setacl A/B against concurrent getacl and stat: setacl
// replaces the ACL file in one step (vfs.WriteFile, one MutCreate), so
// a reader sees A or B and nothing else — never an empty ACL, and so
// never a refusal, since both grant bob rl. Once the last setacl is
// acknowledged every reader sees exactly that one.
func TestACLCoherenceHammer(t *testing.T) {
	const (
		textA = "unix:admin rwlax\nunix:bob rl\n"
		textB = "unix:admin rwlax\nunix:bob rlx\nunix:carol r\n"
	)
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, admin, _ := coherenceFixture(t, win)
		if err := admin.SetACL("/d", textA); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			bob := unixClient(t, srv, "bob", win)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if text, err := bob.GetACL("/d"); err != nil || (text != textA && text != textB) {
						t.Errorf("getacl during hammer = %q, %v", text, err)
						return
					}
					if _, err := bob.Stat("/d/f"); err != nil {
						t.Errorf("stat during hammer: %v", err)
						return
					}
				}
			}()
		}
		last := textA
		for i := 0; i < 200; i++ {
			last = textA
			if i%2 == 1 {
				last = textB
			}
			if err := admin.SetACL("/d", last); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		for _, user := range []string{"bob", "admin"} {
			readChecks(t, unixClient(t, srv, user, win), "/d", true, last)
		}
	})
}

// A directory and its ACL are one unit: rmdir of a directory holding
// only its ACL removes both in one step or refuses and changes nothing,
// so a racing put can make the rmdir fail but never leave the directory
// without its own ACL, governed by its parent's. Both tests race the
// two many times and check every outcome.

// checkRmdirRace judges one round: dir either went (and the put lost)
// or survived with its own ACL, wantACL, untouched, and then only
// because the put won and the rmdir was refused.
func checkRmdirRace(t *testing.T, fs *vfs.FS, dir, wantACL string, rmErr error) {
	t.Helper()
	got, aclErr := fs.ReadFile(vfs.Join(dir, acl.FileName))
	switch {
	case rmErr == nil && fs.Exists(dir):
		t.Fatalf("rmdir %s succeeded but the directory is still there", dir)
	case rmErr == nil:
	case !errors.Is(rmErr, vfs.ErrNotEmpty):
		t.Fatalf("rmdir %s = %v, want success or ENOTEMPTY", dir, rmErr)
	case aclErr != nil || string(got) != wantACL:
		t.Fatalf("a refused rmdir left %s with ACL %q (%v), want its own %q", dir, got, aclErr, wantACL)
	}
}

// jitter spins for a random short while, spreading where a racer lands.
func jitter(r *rand.Rand) {
	for i, n := 0, r.Intn(4000); i < n; i++ {
		runtime.Gosched()
	}
}

// The server's rmdir against a put over a second session, jittered in
// half the rounds so it lands at different points of the rmdir.
func TestRmdirRacingPutKeepsTheACL(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		fs := k.FS()
		admin := unixClient(t, srv, "admin", win)
		putter := unixClient(t, srv, "admin", win)
		if err := admin.Mkdir("/r", 0o755); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(2 - win))) // seed 1 for "v1", 2 for "v2"
		for i := 0; i < 300; i++ {
			dir := fmt.Sprintf("/r/d%d", i)
			if err := admin.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			wantACL, err := fs.ReadFile(vfs.Join(dir, acl.FileName))
			if err != nil {
				t.Fatal(err)
			}
			delay := r.Intn(2) == 0
			var rmErr error
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); rmErr = admin.Rmdir(dir) }()
			go func() {
				defer wg.Done()
				if delay {
					jitter(r)
				}
				putter.PutFile(dir+"/f", []byte("x"), 0o644) // may lose the race
			}()
			wg.Wait()
			checkRmdirRace(t, fs, dir, string(wantACL), rmErr)
		}
	})
}

// The same race through an identity box on a local mount of a
// journaled file system (as under a durable server), its rmdir against
// a writer behind the box (another box, or the server, sharing the
// file system). The writer aims: it writes the moment it sees the
// directory without its ACL, which a one-step rmdir never shows.
func TestBoxRmdirRacingWriteKeepsTheACL(t *testing.T) {
	fs := vfs.New("dthain")
	fs.SetJournal(&mutationLog{})
	k := kernel.New(fs, vclock.Default())
	if err := fs.MkdirAll("/tmp", 0o777, "dthain"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/r", 0o755, "dthain"); err != nil {
		t.Fatal(err)
	}
	const rACL = "unix:alice rwlax\n"
	if err := fs.WriteFile("/r/"+acl.FileName, []byte(rACL), 0o644, "dthain"); err != nil {
		t.Fatal(err)
	}
	box, err := core.New(k, "dthain", "unix:alice", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := box.Run(func(p *kernel.Proc, _ []string) int {
		for i := 0; i < 2000; i++ { // the window is short: many rounds
			dir := fmt.Sprintf("/r/d%d", i)
			if err := p.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if got, err := fs.ReadFile(vfs.Join(dir, acl.FileName)); err != nil || string(got) != rACL {
				t.Fatalf("mkdir %s made ACL %q, %v; want %q", dir, got, err, rACL)
			}
			stop, done, ready := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				close(ready)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if !fs.Exists(vfs.Join(dir, acl.FileName)) {
						fs.WriteFile(dir+"/f", []byte("x"), 0o644, "dthain") // fails once dir is gone
						return
					}
				}
			}()
			<-ready
			rmErr := p.Rmdir(dir)
			close(stop)
			<-done
			checkRmdirRace(t, fs, dir, rACL, rmErr)
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
}

// mutationLog is a vfs.Journal that keeps what it is handed, so a test
// can count the records a step journals.
type mutationLog struct {
	mu   sync.Mutex
	muts []vfs.Mutation
}

func (l *mutationLog) RecordMutation(m vfs.Mutation) {
	m.Data = append([]byte(nil), m.Data...)
	l.mu.Lock()
	l.muts = append(l.muts, m)
	l.mu.Unlock()
}

// take returns what was journaled since the last take.
func (l *mutationLog) take() []vfs.Mutation {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.muts
	l.muts = nil
	return out
}

// TestDirACLStepsAreOneRecord: mkdir journals one record that carries
// the new directory's ACL, and rmdir of a directory holding only its
// ACL journals one record, whether the server takes the step or an
// identity box does on a local mount of the server's file system.
func TestDirACLStepsAreOneRecord(t *testing.T) {
	fs := vfs.New("chirpowner")
	log := &mutationLog{}
	fs.SetJournal(log)
	k := kernel.New(fs, vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := NewServer(k, ServerOptions{
		Owner:     "chirpowner",
		RootACL:   rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	admin := unixClient(t, srv, "admin", ProtocolV2)

	// admin holds w in the root, so a new directory inherits its ACL.
	inherited := []byte(rootACL.String())
	expect := func(what string, want vfs.Mutation) {
		t.Helper()
		got := log.take()
		if len(got) != 1 || got[0].Op != want.Op || got[0].Path != want.Path ||
			got[0].Path2 != want.Path2 || string(got[0].Data) != string(want.Data) {
			t.Fatalf("%s journaled %+v, want the one record %+v", what, got, want)
		}
	}
	log.take()
	if err := admin.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	expect("the server's mkdir", vfs.Mutation{Op: vfs.MutMkdir, Path: "/d", Path2: acl.FileName, Data: inherited})
	if err := admin.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	expect("the server's rmdir", vfs.Mutation{Op: vfs.MutRmdir, Path: "/d", Path2: acl.FileName})

	box, err := core.New(k, "chirpowner", "unix:admin", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := box.Run(func(p *kernel.Proc, _ []string) int {
		log.take() // the box's own scaffolding
		if err := p.Mkdir("/b", 0o755); err != nil {
			t.Fatal(err)
		}
		expect("the box's mkdir", vfs.Mutation{Op: vfs.MutMkdir, Path: "/b", Path2: acl.FileName, Data: inherited})
		if err := p.Rmdir("/b"); err != nil {
			t.Fatal(err)
		}
		expect("the box's rmdir", vfs.Mutation{Op: vfs.MutRmdir, Path: "/b", Path2: acl.FileName})
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
}
