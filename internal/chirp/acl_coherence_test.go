package chirp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// The server memoises each parsed ACL on the ACL file's inode and
// validates the memo against the inode's mtime at every check
// (vfs.Memo). These tests pin the consequence: whoever rewrites,
// moves, links or removes an ACL file — a handler, or a writer no
// handler sees — is honoured by the very next check, on either framing.

const (
	aclAdminOnly = "unix:admin rwlax\n"
	aclWithBob   = "unix:admin rwlax\nunix:bob rl\n"
)

// unixClient dials as unix:<user> speaking the given framing.
func unixClient(t *testing.T, srv *Server, user string, proto int) *Client {
	t.Helper()
	cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: user}}, ClientOptions{Protocol: proto})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// coherenceFixture starts a server with /d/f owned by unix:admin (the
// root ACL gives unix:bob nothing) and returns admin's and bob's
// sessions.
func coherenceFixture(t *testing.T, proto int) (srv *Server, k *kernel.Kernel, admin, bob *Client) {
	t.Helper()
	srv, k, _ = testServer(t)
	admin = unixClient(t, srv, "admin", proto)
	bob = unixClient(t, srv, "bob", proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, admin, bob := coherenceFixture(t, proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		_, k, admin, bob := coherenceFixture(t, proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		_, k, admin, bob := coherenceFixture(t, proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		_, k, admin, bob := coherenceFixture(t, proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		primary := startReplMember(t, "vol", "", "")
		follower := startReplMember(t, "vol", "", primary.addr)
		pollUntil(t, 2*time.Second, "follower subscription", func() bool { return primary.pub.Subscribers() == 1 })

		admin := unixClient(t, primary.srv, "admin", proto)
		bob := unixClient(t, follower.srv, "bob", proto)
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
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, admin, _ := coherenceFixture(t, proto)
		if err := admin.SetACL("/d", textA); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			bob := unixClient(t, srv, "bob", proto)
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
			readChecks(t, unixClient(t, srv, user, proto), "/d", true, last)
		}
	})
}
