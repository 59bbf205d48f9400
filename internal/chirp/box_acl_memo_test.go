package chirp

import (
	"errors"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/durable"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/parrot"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// An identity box built on the server's kernel (as exec builds one)
// reads ACL files from the server's own file system, and so from the
// same memo: both memoise acl.Version on the ACL file's inode through
// acl.MemoVersion. These tests pin that a running box's next check
// honours every writer of an ACL file, that the server and the box
// share each version's one parse, and that a box on a remote mount
// keeps getting the server's getacl text.

// boxMemoWorld is a follower store's file system exported by a Chirp
// server, plus a primary store whose shipped groups the test applies to
// the follower by hand: the server, a box, another box and the
// replication apply loop all write the one tree.
type boxMemoWorld struct {
	srv      *Server
	k        *kernel.Kernel
	primary  *durable.Store
	follower *durable.Store
	groups   []shippedGroup // shipped by the primary, not yet applied
}

type shippedGroup struct {
	first, last uint64
	frames      []byte
}

// newBoxMemoWorld ships /d (admin-only ACL) and /d/f from the primary
// to the follower and starts the server on the follower's tree.
func newBoxMemoWorld(t *testing.T) *boxMemoWorld {
	t.Helper()
	w := &boxMemoWorld{}
	var err error
	w.primary, err = durable.Open(t.TempDir(), durable.Options{
		Owner: "chirpowner", SyncEveryN: 1,
		OnShip: func(first, last uint64, _ int, frames []byte) {
			w.groups = append(w.groups, shippedGroup{first, last, frames})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.primary.Close() })
	w.follower, err = durable.Open(t.TempDir(), durable.Options{Owner: "chirpowner", SyncEveryN: 1, ReplicaMode: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.follower.Close() })

	pfs := w.primary.FS()
	if err := pfs.Mkdir("/d", 0o755, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	if err := pfs.WriteFile("/d/f", []byte("payload"), 0o644, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	w.replicate(t, aclAdminOnly)

	w.k = kernel.New(w.follower.FS(), vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	w.srv, err = NewServer(w.k, ServerOptions{
		Name: "memo", Owner: "chirpowner", RootACL: rootACL,
		Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.srv.Close() })
	return w
}

// replicate writes text as /d's ACL on the primary and applies every
// group shipped since to the follower: a writer no handler of the
// follower's server sees.
func (w *boxMemoWorld) replicate(t *testing.T, text string) {
	t.Helper()
	if err := w.primary.FS().WriteFile("/d/"+acl.FileName, []byte(text), 0o644, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	if err := w.primary.Barrier(); err != nil {
		t.Fatal(err)
	}
	for _, g := range w.groups {
		if _, err := w.follower.ApplyReplicated(0, g.first, g.last, g.frames); err != nil {
			t.Fatalf("apply [%d..%d]: %v", g.first, g.last, err)
		}
	}
	w.groups = nil
}

// bobBox builds an identity box for unix:bob on the server's kernel,
// configured as exec configures its boxes.
func (w *boxMemoWorld) bobBox(t *testing.T) *core.Box {
	t.Helper()
	box, err := core.New(w.k, "chirpowner", identity.Principal("unix:bob"), core.Options{
		HomeBase: "/.boxhomes", ShadowDir: "/.boxshadow", AuditLimit: execAuditLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return box
}

// boxedStatAllowed reports whether the box lets p stat /d/f, failing
// the test on any outcome but success or EPERM.
func boxedStatAllowed(t *testing.T, p *kernel.Proc) bool {
	t.Helper()
	_, err := p.Stat("/d/f")
	if err != nil && !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("boxed stat /d/f: %v, want success or EPERM", err)
	}
	return err == nil
}

// TestBoxMemoHonoursEveryWriter: one running box checks /d/f between
// four rewrites of /d's ACL — a Chirp setacl, another box's setacl, a
// replicated apply and a malformed file — and each next check follows
// the file as just rewritten; the malformed one fails closed.
func TestBoxMemoHonoursEveryWriter(t *testing.T) {
	w := newBoxMemoWorld(t)
	admin := unixClient(t, w.srv, "admin", 2)
	w.k.RegisterProgram("setacl", func(p *kernel.Proc, args []string) int {
		if err := p.SetACL(".", aclAdminOnly); err != nil {
			return 1
		}
		return 0
	})
	if err := admin.PutFile("/d/setacl.exe", kernel.ExecutableBytes("setacl"), 0o755); err != nil {
		t.Fatal(err)
	}

	st := w.bobBox(t).Run(func(p *kernel.Proc, _ []string) int {
		if boxedStatAllowed(t, p) {
			t.Error("admin-only ACL: bob's boxed stat allowed")
		}
		for _, step := range []struct {
			writer  string
			rewrite func()
			allowed bool
		}{
			{"chirp setacl", func() {
				if err := admin.SetACL("/d", aclWithBob); err != nil {
					t.Fatal(err)
				}
			}, true},
			{"another box's setacl", func() {
				if res, err := admin.Exec("/d", "/d/setacl.exe"); err != nil || res.Code != 0 {
					t.Fatalf("boxed setacl: code %d, %v", res.Code, err)
				}
			}, false},
			{"replicated apply", func() { w.replicate(t, aclWithBob) }, true},
			{"malformed ACL", func() { w.replicate(t, "unix:bob rl trailing-garbage\n") }, false},
		} {
			step.rewrite()
			if got := boxedStatAllowed(t, p); got != step.allowed {
				t.Errorf("after %s: bob's boxed stat allowed = %v, want %v", step.writer, got, step.allowed)
			}
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("box exit %d", st.Code)
	}
}

// TestBoxAndServerShareOneParsePerVersion: the server's checks and a
// box's alternate on one ACL file, either reader meeting each new
// version first. Whoever meets it parses it once; the other gets that
// same value back (no type clash, no second parse), and the server's
// parse counter moves only for the versions it met first.
func TestBoxAndServerShareOneParsePerVersion(t *testing.T) {
	w := newBoxMemoWorld(t)
	admin := unixClient(t, w.srv, "admin", 2)
	bob := unixClient(t, w.srv, "bob", 2)
	parses := w.srv.Metrics().Counter(MetricACLParses)
	drv := parrot.NewLocalDriver(w.k.FS(), "chirpowner", vclock.Default()) // the box's lookup

	st := w.bobBox(t).Run(func(p *kernel.Proc, _ []string) int {
		for i := 0; i < 8; i++ {
			text, allowed := aclAdminOnly, false
			if i%2 == 0 {
				text, allowed = aclWithBob, true
			}
			if err := admin.SetACL("/d", text); err != nil {
				t.Fatal(err)
			}
			p0 := parses.Value()
			serverFirst := i%4 < 2
			if serverFirst {
				if _, err := bob.Stat("/d/f"); (err == nil) != allowed {
					t.Fatalf("version %d: server stat = %v, want allowed %v", i, err, allowed)
				}
			}
			if boxedStatAllowed(t, p) != allowed {
				t.Fatalf("version %d: boxed stat allowed != %v", i, allowed)
			}
			if !serverFirst {
				if _, err := bob.Stat("/d/f"); (err == nil) != allowed {
					t.Fatalf("version %d: server stat = %v, want allowed %v", i, err, allowed)
				}
			}
			want := int64(0)
			if serverFirst {
				want = 1
			}
			if got := parses.Value() - p0; got != want {
				t.Errorf("version %d (server first %v): %s rose by %d, want %d", i, serverFirst, MetricACLParses, got, want)
			}
			fromServer, err := vfs.Lookup(w.srv.fs.Traced(0), w.srv, (*Server).aclFor, "/d")
			if err != nil {
				t.Fatal(err)
			}
			fromBox, err := drv.ReadACL(p, "/d")
			if err != nil {
				t.Fatal(err)
			}
			if fromServer != fromBox || fromServer.Raw != text {
				t.Errorf("version %d: server and box hold different parses (%p, %p) of %q", i, fromServer, fromBox, text)
			}
			if got := parses.Value() - p0; got != want {
				t.Errorf("version %d: the lookups after both checks parsed again", i)
			}
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("box exit %d", st.Code)
	}
}

// TestBoxedGetACLText: a box's getacl returns the server's getacl reply
// byte for byte over a remote mount (the reply's canonical text), and
// the ACL file's own bytes on a local one.
func TestBoxedGetACLText(t *testing.T) {
	srv, k, _ := testServer(t)
	admin := unixClient(t, srv, "admin", 2)
	if err := admin.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	const spaced = "unix:admin   rwlax\n\n  unix:bob rl\n" // valid, not canonical
	if err := admin.SetACL("/d", spaced); err != nil {
		t.Fatal(err)
	}
	reply, err := admin.GetACL("/d")
	if err != nil {
		t.Fatal(err)
	}
	if reply != aclWithBob {
		t.Fatalf("server getacl = %q, want the canonical %q", reply, aclWithBob)
	}

	clientK := kernel.New(vfs.New("dthain"), vclock.Default())
	remote, err := core.New(clientK, "dthain", identity.Principal("unix:admin"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mount := "/chirp/" + srv.Addr()
	remote.Mount(mount, NewDriver(admin, vclock.Default()))
	local, err := core.New(k, "chirpowner", identity.Principal("unix:admin"), core.Options{
		HomeBase: "/.boxhomes", ShadowDir: "/.boxshadow",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, path, want string
		box              *core.Box
	}{
		{"remote", mount + "/d", reply, remote},
		{"local", "/d", spaced, local},
	} {
		c.box.Run(func(p *kernel.Proc, _ []string) int {
			if got, err := p.GetACL(c.path); err != nil || got != c.want {
				t.Errorf("%s boxed getacl = %q, %v; want %q", c.name, got, err, c.want)
			}
			return 0
		})
	}
}
