package chirp

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// TestConcurrentClients hammers one server from many goroutines, each
// with its own identity and reserved directory.
func TestConcurrentClients(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		const n = 8
		const filesPer = 10
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				subject := fmt.Sprintf("/O=UnivNowhere/CN=User%d", i)
				cred, err := ca.Issue(subject)
				if err != nil {
					errs <- err
					return
				}
				cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, ClientOptions{Protocol: proto})
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				dir := fmt.Sprintf("/user%d", i)
				if err := cl.Mkdir(dir, 0o755); err != nil {
					errs <- fmt.Errorf("user%d mkdir: %w", i, err)
					return
				}
				for j := 0; j < filesPer; j++ {
					path := fmt.Sprintf("%s/f%d", dir, j)
					payload := bytes.Repeat([]byte{byte(i), byte(j)}, 512)
					if err := cl.PutFile(path, payload, 0o644); err != nil {
						errs <- fmt.Errorf("user%d put: %w", i, err)
						return
					}
					got, err := cl.GetFile(path)
					if err != nil || !bytes.Equal(got, payload) {
						errs <- fmt.Errorf("user%d readback: %v", i, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestConcurrentRemoteExec runs several remote executions in parallel,
// each inside its own identity box on the server.
func TestConcurrentRemoteExec(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, ca := testServer(t)
		k.RegisterProgram("job", func(p *kernel.Proc, args []string) int {
			who := p.GetUserName()
			if err := p.WriteFile("whoami.out", []byte(who), 0o644); err != nil {
				return 1
			}
			p.Compute(1000)
			return 0
		})
		const n = 6
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				subject := fmt.Sprintf("/O=UnivNowhere/CN=Exec%d", i)
				cred, _ := ca.Issue(subject)
				cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, ClientOptions{Protocol: proto})
				if err != nil {
					errs <- err
					return
				}
				defer cl.Close()
				dir := fmt.Sprintf("/exec%d", i)
				if err := cl.Mkdir(dir, 0o755); err != nil {
					errs <- err
					return
				}
				if err := cl.PutFile(dir+"/job.exe", kernel.ExecutableBytes("job"), 0o755); err != nil {
					errs <- err
					return
				}
				res, err := cl.Exec(dir, dir+"/job.exe")
				if err != nil || res.Code != 0 {
					errs <- fmt.Errorf("exec%d: code %d, %v", i, res.Code, err)
					return
				}
				out, err := cl.GetFile(dir + "/whoami.out")
				if err != nil {
					errs <- err
					return
				}
				want := "globus:" + subject
				if string(out) != want {
					errs <- fmt.Errorf("exec%d identity = %q, want %q", i, out, want)
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestServerSurvivesGarbage sends malformed bytes; the server must drop
// the connection without taking down other sessions.
func TestServerSurvivesGarbage(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("\x00\xff garbage \n\n\x07not a protocol\n"))
		conn.Close()
		// A legitimate session still works afterwards.
		cl := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Fred", ClientOptions{Protocol: proto})
		if _, err := cl.Whoami(); err != nil {
			t.Fatalf("healthy session after garbage: %v", err)
		}
	})
}

// TestServerRejectsOversizeTransfers exercises the protocol limits.
func TestServerRejectsOversizeTransfers(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		cl := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Fred", ClientOptions{Protocol: proto})
		cl.Mkdir("/big", 0o755)
		fd, err := cl.Open("/big/f", kernel.OWronly|kernel.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// A pread above the 4 MiB cap is refused cleanly.
		if _, err := cl.rpc("pread", fmt.Sprint(fd), fmt.Sprint(1<<23), "0"); !errors.Is(err, vfs.ErrInvalid) {
			t.Fatalf("oversize pread = %v, want EINVAL", err)
		}
		// The session remains usable.
		if _, err := cl.Whoami(); err != nil {
			t.Fatalf("session after refused op: %v", err)
		}
	})
}

// TestClientSeesServerShutdown verifies in-flight clients fail cleanly
// when the server goes away.
func TestClientSeesServerShutdown(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		cred, _ := ca.Issue("/O=UnivNowhere/CN=Fred")
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Mkdir("/pre", 0o755); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if err := cl.Mkdir("/post", 0o755); err == nil {
			t.Fatal("operation after server shutdown should fail")
		}
	})
}

// TestMountAllFromCatalog discovers two servers via the catalog and
// mounts both inside one identity box.
func TestMountAllFromCatalog(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	mkServer := func(name string) *Server {
		fs := vfs.New("owner")
		k := kernel.New(fs, vclock.Default())
		rootACL := aclAllowAll()
		srv, err := NewServer(k, ServerOptions{
			Name:        name,
			Owner:       "owner",
			RootACL:     rootACL,
			CatalogAddr: cat.Addr(),
			Verifiers:   map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	s1 := mkServer("alpha")
	s2 := mkServer("beta")

	// Wait for both heartbeats.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(cat.Entries()) < 2 {
		time.Sleep(10 * time.Millisecond)
	}
	if len(cat.Entries()) != 2 {
		t.Fatalf("catalog entries = %d, want 2", len(cat.Entries()))
	}

	// A client box mounting the whole fabric.
	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")
	box, err := core.New(clientK, "dthain", "unix:fred", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clients, err := MountAll(box, cat.Addr(), []auth.Authenticator{&auth.UnixClient{User: "fred"}}, vclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(clients)
	if len(clients) != 2 {
		t.Fatalf("clients = %d, want 2", len(clients))
	}

	st := box.Run(func(p *kernel.Proc, _ []string) int {
		// Write on alpha by name, read it back through the raw address
		// mount, and write on beta too.
		if err := p.WriteFile("/chirp/alpha/hello.txt", []byte("from the box"), 0o644); err != nil {
			t.Errorf("write via name mount: %v", err)
			return 1
		}
		data, err := p.ReadFile("/chirp/" + s1.Addr() + "/hello.txt")
		if err != nil || string(data) != "from the box" {
			t.Errorf("read via addr mount = %q, %v", data, err)
			return 1
		}
		if err := p.WriteFile("/chirp/beta/other.txt", []byte("beta data"), 0o644); err != nil {
			t.Errorf("write to beta: %v", err)
			return 1
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("boxed run exit = %d", st.Code)
	}
	// The files landed on the right servers.
	if _, err := s1.fs.Stat("/hello.txt"); err != nil {
		t.Error("alpha missing hello.txt")
	}
	if _, err := s2.fs.Stat("/other.txt"); err != nil {
		t.Error("beta missing other.txt")
	}
	if s1.fs.Exists("/other.txt") || s2.fs.Exists("/hello.txt") {
		t.Error("files crossed servers")
	}
}

// TestBoxedUserBlockedFromForeignMount verifies an identity without
// rights on a mounted server is refused through the mount.
func TestBoxedUserBlockedFromForeignMount(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		// eve authenticates from an untrusted org: no rights at the root.
		cred, _ := ca.Issue("/O=Hostile/CN=Eve")
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		clientFS := vfs.New("dthain")
		clientK := kernel.New(clientFS, vclock.Default())
		clientFS.MkdirAll("/tmp", 0o777, "dthain")
		box, err := core.New(clientK, "dthain", identity.Principal("globus:/O=Hostile/CN=Eve"), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mnt := "/chirp/" + srv.Addr()
		box.Mount(mnt, NewDriver(cl, vclock.Default()))
		box.Run(func(p *kernel.Proc, _ []string) int {
			if err := p.Mkdir(mnt+"/evil", 0o755); !errors.Is(err, vfs.ErrPermission) {
				t.Errorf("hostile mkdir = %v, want EPERM", err)
			}
			if _, err := p.ReadDir(mnt); !errors.Is(err, vfs.ErrPermission) {
				t.Errorf("hostile list = %v, want EPERM", err)
			}
			return 0
		})
	})
}

func aclAllowAll() *acl.ACL {
	a := &acl.ACL{}
	a.Set("*", acl.All, acl.None)
	return a
}

// TestProxyCredentialOverChirp authenticates to a Chirp server with a
// delegated GSI proxy: the recorded principal is the base identity, so
// ACLs written for the user keep working for their jobs.
func TestProxyCredentialOverChirp(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		cred, err := ca.Issue("/O=UnivNowhere/CN=Fred")
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := cred.Delegate()
		if err != nil {
			t.Fatal(err)
		}
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIProxyClient{Proxy: proxy}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		who, err := cl.Whoami()
		if err != nil || who != "globus:/O=UnivNowhere/CN=Fred" {
			t.Fatalf("whoami via proxy = %q, %v", who, err)
		}
		// The proxy exercises the same reserve right the user would.
		if err := cl.Mkdir("/proxywork", 0o755); err != nil {
			t.Fatalf("mkdir via proxy: %v", err)
		}
		// And a directly-authenticated session for the same user sees it
		// as its own.
		direct := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Fred", ClientOptions{Protocol: proto})
		if err := direct.PutFile("/proxywork/f", []byte("x"), 0o644); err != nil {
			t.Fatalf("direct write into proxy-created dir: %v", err)
		}
	})
}

// TestCommunityAuthorization exercises the CAS flow end to end: a
// member presents a signed assertion and gains the community-granted
// rights; non-members, forged assertions, and expired assertions gain
// nothing.
func TestCommunityAuthorization(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		cas, err := auth.NewCAS("physics-community")
		if err != nil {
			t.Fatal(err)
		}
		fred := identity.Principal("globus:/O=UnivNowhere/CN=Fred")
		cas.AddMember(fred, "cms-experiment", []auth.Grant{
			{PathPrefix: "/data/cms", Rights: "rwlx"},
		})

		fs := vfs.New("owner")
		k := kernel.New(fs, vclock.Default())
		// The local root ACL grants nothing to visitors; only the CAS does.
		rootACL := &acl.ACL{}
		rootACL.Set("unix:admin", acl.All, acl.None)
		ca, _ := auth.NewCA("CA")
		srv, err := NewServer(k, ServerOptions{
			Owner:   "owner",
			RootACL: rootACL,
			CASTrust: &auth.CASVerifier{
				Trusted: map[string]*rsa.PublicKey{"physics-community": cas.PublicKey()},
			},
			Verifiers: map[auth.Method]auth.Verifier{
				auth.MethodGlobus: &auth.GSIVerifier{TrustedCAs: map[string]*rsa.PublicKey{"CA": ca.PublicKey()}},
				auth.MethodUnix:   &auth.UnixVerifier{},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		// The admin prepares the community area.
		admin, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer admin.Close()
		if err := admin.Mkdir("/data", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.Mkdir("/data/cms", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.PutFile("/data/cms/events.dat", []byte("collision data"), 0o644); err != nil {
			t.Fatal(err)
		}

		cred, _ := ca.Issue("/O=UnivNowhere/CN=Fred")
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		// Before presenting the assertion: nothing.
		if _, err := cl.GetFile("/data/cms/events.dat"); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("pre-assertion read = %v, want EPERM", err)
		}

		a, err := cas.Issue(fred, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := a.Encode()
		community, err := cl.PresentAssertion(blob)
		if err != nil || community != "cms-experiment" {
			t.Fatalf("present = %q, %v", community, err)
		}

		// Granted: read/write under /data/cms, including mkdir.
		if data, err := cl.GetFile("/data/cms/events.dat"); err != nil || string(data) != "collision data" {
			t.Fatalf("post-assertion read = %q, %v", data, err)
		}
		if err := cl.PutFile("/data/cms/result.dat", []byte("histograms"), 0o644); err != nil {
			t.Fatalf("post-assertion write: %v", err)
		}
		if err := cl.Mkdir("/data/cms/run7", 0o755); err != nil {
			t.Fatalf("post-assertion mkdir: %v", err)
		}
		// But only under the granted prefix.
		if _, err := cl.GetFile("/" + acl.FileName); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("outside-prefix read = %v, want EPERM", err)
		}
		if err := cl.Mkdir("/elsewhere", 0o755); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("outside-prefix mkdir = %v, want EPERM", err)
		}
		// Prefix matching respects component boundaries.
		if err := cl.PutFile("/data/cmsX", []byte("x"), 0o644); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("sibling-prefix write = %v, want EPERM", err)
		}

		// A forged assertion (tampered after signing) is rejected.
		forged, _ := cas.Issue(fred, time.Hour)
		forged.Grants[0].PathPrefix = "/"
		fblob, _ := forged.Encode()
		if _, err := cl.PresentAssertion(fblob); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("forged assertion = %v, want rejection", err)
		}

		// An assertion for someone else is rejected.
		george := identity.Principal("globus:/O=UnivNowhere/CN=George")
		cas.AddMember(george, "cms-experiment", []auth.Grant{{PathPrefix: "/", Rights: "rwlax"}})
		ga, _ := cas.Issue(george, time.Hour)
		gblob, _ := ga.Encode()
		if _, err := cl.PresentAssertion(gblob); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("stolen assertion = %v, want rejection", err)
		}
	})
}

// TestCASExpiredAssertionRejected checks expiry handling.
func TestCASExpiredAssertionRejected(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		cas, _ := auth.NewCAS("c")
		fred := identity.Principal("unix:fred")
		cas.AddMember(fred, "grp", []auth.Grant{{PathPrefix: "/", Rights: "rl"}})
		past := time.Now().Add(-2 * time.Hour)
		cas.SetClock(func() time.Time { return past })
		a, err := cas.Issue(fred, time.Hour) // expired an hour ago
		if err != nil {
			t.Fatal(err)
		}
		v := &auth.CASVerifier{Trusted: map[string]*rsa.PublicKey{"c": cas.PublicKey()}}
		if err := v.Verify(a); err == nil {
			t.Fatal("expired assertion verified")
		}
	})
}

// TestRmdirRemovesACLFileToo mirrors the box semantics server-side: a
// directory holding only its ACL file is removable by a w holder in
// the parent... but visitors without w in "/" cannot; the admin can.
func TestRmdirOnlyACLInside(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		fred := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Fred", ClientOptions{Protocol: proto})
		if err := fred.Mkdir("/tidy", 0o755); err != nil {
			t.Fatal(err)
		}
		admin, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer admin.Close()
		if err := admin.Rmdir("/tidy"); err != nil {
			t.Fatalf("admin rmdir of ACL-only dir: %v", err)
		}
	})
}

func TestStatsCommand(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, ca := testServer(t)
		cl := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Fred", ClientOptions{Protocol: proto})
		cl.Mkdir("/s", 0o755)
		fd, err := cl.Open("/s/f", kernel.OWronly|kernel.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Conns < 1 || st.FDs != 1 || st.Grants != 0 || st.Name != "testserver" {
			t.Fatalf("stats = %d conns, %d fds, %d grants, %q", st.Conns, st.FDs, st.Grants, st.Name)
		}
		if st.Requests < 3 || st.Sessions < 1 || st.RxBytes <= 0 || st.TxBytes <= 0 {
			t.Fatalf("lifetime stats = %+v", st)
		}
		cl.CloseFD(fd)
		st, _ = cl.Stats()
		if st.FDs != 0 {
			t.Fatalf("fds after close = %d", st.FDs)
		}
	})
}

// TestAuthTimeoutDropsSilentConnections verifies an unauthenticated
// socket that sends nothing is dropped after AuthTimeout rather than
// pinning a server goroutine forever.
func TestAuthTimeoutDropsSilentConnections(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		fs := vfs.New("o")
		k := kernel.New(fs, vclock.Default())
		rootACL := &acl.ACL{}
		rootACL.Set("*", acl.Read|acl.List, acl.None)
		srv, err := NewServer(k, ServerOptions{
			Owner:       "o",
			RootACL:     rootACL,
			AuthTimeout: 100 * time.Millisecond,
			Verifiers:   map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Send nothing; the server must hang up.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("expected the server to drop the silent connection")
		}
		// A prompt, legitimate session still works (the deadline is lifted
		// after auth).
		cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "x"}}, ClientOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		time.Sleep(150 * time.Millisecond) // outlive the auth deadline
		if _, err := cl.Whoami(); err != nil {
			t.Fatalf("authenticated session hit the auth deadline: %v", err)
		}
	})
}
