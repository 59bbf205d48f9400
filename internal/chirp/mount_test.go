package chirp

import (
	"bytes"
	"errors"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// TestBoxedProcessUsesChirpMount runs an ordinary program inside an
// identity box on a *client* machine with the remote server mounted at
// /chirp/<addr>: the program manipulates remote files through plain
// open/read/write/stat calls, exactly as Parrot makes GSI-FTP and Chirp
// spaces appear as ordinary paths.
func TestBoxedProcessUsesChirpMount(t *testing.T) {
	srv, _, ca := testServer(t)

	// Client-side machine.
	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")

	fred := "globus:/O=UnivNowhere/CN=Fred"
	box, err := core.New(clientK, "dthain", identity.Principal(fred), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	mountPoint := "/chirp/" + srv.Addr()
	box.Mount(mountPoint, NewDriver(cl, vclock.Default()))

	payload := bytes.Repeat([]byte("block"), 2048) // >8 kB: exercises bulk path
	st := box.Run(func(p *kernel.Proc, _ []string) int {
		remote := mountPoint + "/work"
		if err := p.Mkdir(remote, 0o755); err != nil {
			t.Errorf("remote mkdir: %v", err)
			return 1
		}
		if err := p.WriteFile(remote+"/data.bin", payload, 0o644); err != nil {
			t.Errorf("remote write: %v", err)
			return 1
		}
		got, err := p.ReadFile(remote + "/data.bin")
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("remote read = %d bytes, %v", len(got), err)
			return 1
		}
		fst, err := p.Stat(remote + "/data.bin")
		if err != nil || fst.Size != int64(len(payload)) {
			t.Errorf("remote stat = %+v, %v", fst, err)
			return 1
		}
		ents, err := p.ReadDir(remote)
		if err != nil || len(ents) != 2 { // .__acl + data.bin
			t.Errorf("remote readdir = %v, %v", ents, err)
			return 1
		}
		// cd into the remote directory: the supervisor tracks the cwd
		// the kernel cannot resolve natively.
		if err := p.Chdir(remote); err != nil {
			t.Errorf("remote chdir: %v", err)
			return 1
		}
		if err := p.Rename("data.bin", "data2.bin"); err != nil {
			t.Errorf("remote rename: %v", err)
			return 1
		}
		// Local and remote namespaces coexist; cross-device links fail.
		if err := p.Link(remote+"/data2.bin", "/tmp/link"); !errors.Is(err, vfs.ErrCrossDevice) {
			t.Errorf("cross-mount link = %v, want EXDEV", err)
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("boxed run exit = %d", st.Code)
	}

	// The file landed on the server and is protected by Fred's ACL.
	data, err := cl.GetFile("/work/data2.bin")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("server-side readback: %d bytes, %v", len(data), err)
	}
	george := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=George")
	if _, err := george.GetFile("/work/data2.bin"); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("george reading fred's remote dir = %v, want EPERM", err)
	}
}

// TestBoxedRemoteACLDenied verifies the box enforces server-side ACLs
// for a different identity on the same mount.
func TestBoxedRemoteACLDenied(t *testing.T) {
	srv, _, ca := testServer(t)
	// Fred reserves /private on the server.
	fredCl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	if err := fredCl.Mkdir("/private", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fredCl.PutFile("/private/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// George's box mounts the same server under his own identity.
	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")
	box, err := core.New(clientK, "dthain", "globus:/O=UnivNowhere/CN=George", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	georgeCl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=George")
	mountPoint := "/chirp/" + srv.Addr()
	box.Mount(mountPoint, NewDriver(georgeCl, vclock.Default()))

	st := box.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile(mountPoint + "/private/f"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("boxed remote read of foreign dir = %v, want EPERM", err)
		}
		// mkdir via reserve works remotely and the server installs the
		// fresh ACL.
		if err := p.Mkdir(mountPoint+"/georges", 0o755); err != nil {
			t.Errorf("boxed remote reserve mkdir: %v", err)
		}
		text, err := p.GetACL(mountPoint + "/georges")
		if err != nil {
			t.Errorf("boxed remote getacl: %v", err)
			return 0
		}
		a, _ := acl.Parse(text)
		if r, _ := a.Lookup("globus:/O=UnivNowhere/CN=George"); r != acl.All {
			t.Errorf("remote reserved ACL rights = %v, want rwlax", r)
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
}

// TestBoxedRemoteMetadataOps sweeps the chirp driver's remaining file
// operations through a boxed process on a remote mount.
func TestBoxedRemoteMetadataOps(t *testing.T) {
	srv, _, ca := testServer(t)
	clientFS := vfs.New("dthain")
	clientK := kernel.New(clientFS, vclock.Default())
	clientFS.MkdirAll("/tmp", 0o777, "dthain")
	box, err := core.New(clientK, "dthain", "globus:/O=UnivNowhere/CN=Fred", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	mnt := "/chirp/" + srv.Addr()
	box.Mount(mnt, NewDriver(cl, vclock.Default()))

	st := box.Run(func(p *kernel.Proc, _ []string) int {
		dir := mnt + "/meta"
		if err := p.Mkdir(dir, 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := p.WriteFile(dir+"/f", []byte("0123456789"), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		// symlink + readlink + lstat through the mount
		if err := p.Symlink("f", dir+"/ln"); err != nil {
			t.Fatalf("symlink: %v", err)
		}
		if tgt, err := p.Readlink(dir + "/ln"); err != nil || tgt != "f" {
			t.Fatalf("readlink = %q, %v", tgt, err)
		}
		lst, err := p.Lstat(dir + "/ln")
		if err != nil || lst.Type != vfs.TypeSymlink {
			t.Fatalf("lstat = %+v, %v", lst, err)
		}
		// link (within the mount)
		if err := p.Link(dir+"/f", dir+"/f2"); err != nil {
			t.Fatalf("link: %v", err)
		}
		// truncate by path and via open handle
		if err := p.Truncate(dir+"/f", 4); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		fd, err := p.Open(dir+"/f", kernel.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		fst, err := p.Fstat(fd)
		if err != nil || fst.Size != 4 {
			t.Fatalf("fstat = %+v, %v", fst, err)
		}
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
		// chmod is accepted as a no-op on the virtual user space
		if err := p.Chmod(dir+"/f", 0o600); err != nil {
			t.Fatalf("chmod: %v", err)
		}
		// unlink within the reserved dir works; removing the dir itself
		// needs w in the server root, which Fred does not hold.
		for _, f := range []string{"/f", "/f2", "/ln"} {
			if err := p.Unlink(dir + f); err != nil {
				t.Fatalf("unlink %s: %v", f, err)
			}
		}
		if err := p.Rmdir(dir); !errors.Is(err, vfs.ErrPermission) {
			t.Fatalf("rmdir without w in parent = %v, want EPERM", err)
		}
		// A nested reserved dir IS removable by its creator, who holds
		// w in the parent he reserved.
		if err := p.Mkdir(dir+"/sub", 0o755); err != nil {
			t.Fatalf("nested mkdir: %v", err)
		}
		if err := p.Rmdir(dir + "/sub"); err != nil {
			t.Fatalf("nested rmdir: %v", err)
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
	if cl.Addr() != srv.Addr() {
		t.Fatalf("client addr = %q", cl.Addr())
	}
}

// TestBoxRmdirOverChirpIsOneRPC: a box removes a directory on a Chirp
// mount with the one rmdir RPC the server's own rule answers (w in the
// parent; the server removes a lone ACL with the directory). A visitor
// holding w but not a can therefore remove from a box exactly what it
// can remove over Chirp directly: no readdir, and no unlink of the ACL
// file, which the server would gate on a.
func TestBoxRmdirOverChirpIsOneRPC(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		admin := unixClient(t, srv, "admin", win)
		if err := admin.Mkdir("/shared", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.SetACL("/shared", "unix:admin rwlax\nunix:visitor rwl\n"); err != nil {
			t.Fatal(err)
		}
		if err := admin.Mkdir("/shared/d", 0o755); err != nil { // inherits: visitor rwl, no a
			t.Fatal(err)
		}

		clientFS := vfs.New("dthain")
		clientK := kernel.New(clientFS, vclock.Default())
		clientFS.MkdirAll("/tmp", 0o777, "dthain")
		box, err := core.New(clientK, "dthain", "unix:visitor", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mnt := "/chirp/" + srv.Addr()
		box.Mount(mnt, NewDriver(unixClient(t, srv, "visitor", win), vclock.Default()))

		count := func(cmd string) int64 {
			return srv.Metrics().Counter(obs.With(MetricRequests, "cmd", cmd)).Value()
		}
		cmds := []string{"rmdir", "getdir", "unlink"}
		before := map[string]int64{}
		for _, c := range cmds {
			before[c] = count(c)
		}
		st := box.Run(func(p *kernel.Proc, _ []string) int {
			if err := p.Rmdir(mnt + "/shared/d"); err != nil {
				t.Errorf("rmdir with w but not a: %v", err)
			}
			return 0
		})
		if st.Code != 0 {
			t.Fatalf("exit = %d", st.Code)
		}
		for c, want := range map[string]int64{"rmdir": 1, "getdir": 0, "unlink": 0} {
			if got := count(c) - before[c]; got != want {
				t.Errorf("the box's rmdir sent %d %s RPCs, want %d", got, c, want)
			}
		}
		if _, err := admin.Stat("/shared/d"); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("stat after rmdir = %v, want ENOENT", err)
		}
	})
}
