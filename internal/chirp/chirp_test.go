package chirp

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// testServer starts a Chirp server over a fresh kernel whose root ACL
// grants globus:/O=UnivNowhere/* the reserve right v(rwlax) and
// hostname users read/list, mirroring the Figure-3 configuration.
func testServer(t *testing.T) (*Server, *kernel.Kernel, *auth.CA) {
	t.Helper()
	fs := vfs.New("chirpowner")
	k := kernel.New(fs, vclock.Default())
	if err := fs.MkdirAll("/tmp", 0o777, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	ca, err := auth.NewCA("UnivNowhereCA")
	if err != nil {
		t.Fatal(err)
	}
	rootACL := &acl.ACL{}
	rootACL.Set("globus:/O=UnivNowhere/*", acl.Reserve|acl.List, acl.All)
	rootACL.Set("hostname:*.nowhere.edu", acl.Read|acl.List|acl.Execute, acl.None)
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := NewServer(k, ServerOptions{
		Name:    "testserver",
		Owner:   "chirpowner",
		RootACL: rootACL,
		Verifiers: map[auth.Method]auth.Verifier{
			auth.MethodGlobus: &auth.GSIVerifier{TrustedCAs: map[string]*rsa.PublicKey{"UnivNowhereCA": ca.PublicKey()}},
			auth.MethodUnix:   &auth.UnixVerifier{},
			auth.MethodHostname: &auth.HostnameVerifier{
				Hosts: auth.HostTable{"127.0.0.1": "localhost.nowhere.edu"},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, k, ca
}

func gsiClient(t *testing.T, srv *Server, ca *auth.CA, subject string) *Client {
	t.Helper()
	return gsiClientOpts(t, srv, ca, subject, ClientOptions{})
}

func TestWhoami(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	p, err := cl.Whoami()
	if err != nil || p != "globus:/O=UnivNowhere/CN=Fred" {
		t.Fatalf("whoami = %q, %v", p, err)
	}
	if cl.Identity() != p {
		t.Fatalf("client identity %q != server %q", cl.Identity(), p)
	}
}

// TestFigure3GridJob reproduces the full Figure-3 scenario over real
// TCP: establish a GSI identity, mkdir /work under the reserve right,
// stage in sim.exe, execute it remotely inside an identity box, and
// retrieve out.dat.
func TestFigure3GridJob(t *testing.T) {
	srv, k, ca := testServer(t)
	// The simulation program: reads its staged input, writes out.dat.
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		out := bytes.ToUpper(in)
		if err := p.WriteFile("out.dat", out, 0o644); err != nil {
			return 2
		}
		if p.GetUserName() != "globus:/O=UnivNowhere/CN=Fred" {
			return 3
		}
		return 0
	})

	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")

	// 1. mkdir /work (holding only the reserve right).
	if err := cl.Mkdir("/work", 0o755); err != nil {
		t.Fatalf("mkdir /work: %v", err)
	}
	// The fresh ACL grants Fred rwlax.
	text, err := cl.GetACL("/work")
	if err != nil {
		t.Fatalf("getacl: %v", err)
	}
	a, err := acl.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := a.Lookup("globus:/O=UnivNowhere/CN=Fred"); r != acl.All {
		t.Fatalf("/work ACL rights = %v, want rwlax", r)
	}

	// 2-3. Stage in the executable and input.
	if err := cl.PutFile("/work/sim.exe", kernel.ExecutableBytes("sim"), 0o755); err != nil {
		t.Fatalf("put sim.exe: %v", err)
	}
	if err := cl.PutFile("/work/input.dat", []byte("signal data"), 0o644); err != nil {
		t.Fatalf("put input: %v", err)
	}

	// 4. exec sim.exe remotely, in an identity box named by the GSI
	// identity.
	res, err := cl.Exec("/work", "/work/sim.exe")
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if res.Code != 0 {
		t.Fatalf("exec exit code = %d", res.Code)
	}
	if res.RuntimeSeconds <= 0 {
		t.Fatalf("exec runtime = %v", res.RuntimeSeconds)
	}

	// 5. get out.dat.
	out, err := cl.GetFile("/work/out.dat")
	if err != nil || string(out) != "SIGNAL DATA" {
		t.Fatalf("get out.dat = %q, %v", out, err)
	}
}

func TestReserveIsolationBetweenUsers(t *testing.T) {
	srv, _, ca := testServer(t)
	fred := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	george := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=George")

	if err := fred.Mkdir("/freds", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fred.PutFile("/freds/private", []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	// George cannot read, write, or list Fred's reserved directory.
	if _, err := george.GetFile("/freds/private"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("george read = %v, want EPERM", err)
	}
	if err := george.PutFile("/freds/mine", []byte("x"), 0o644); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("george write = %v, want EPERM", err)
	}
	if _, err := george.ReadDir("/freds"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("george list = %v, want EPERM", err)
	}
	// But George can reserve his own.
	if err := george.Mkdir("/georges", 0o755); err != nil {
		t.Fatal(err)
	}
	// Fred shares with George by editing his ACL (he holds 'a').
	text, _ := fred.GetACL("/freds")
	a, _ := acl.Parse(text)
	a.Set("globus:/O=UnivNowhere/CN=George", acl.Read|acl.List, acl.None)
	if err := fred.SetACL("/freds", a.String()); err != nil {
		t.Fatalf("setacl: %v", err)
	}
	if data, err := george.GetFile("/freds/private"); err != nil || string(data) != "secret" {
		t.Errorf("george after grant = %q, %v", data, err)
	}
	// George (no 'a') cannot edit the ACL.
	if err := george.SetACL("/freds", "x rwlax\n"); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("george setacl = %v, want EPERM", err)
	}
}

func TestHostnameUsersLimitedToRX(t *testing.T) {
	srv, k, _ := testServer(t)
	// The admin stages a program at the top level.
	k.RegisterProgram("hello", func(p *kernel.Proc, _ []string) int { return 42 })
	admin, err := Dial(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.PutFile("/hello.exe", kernel.ExecutableBytes("hello"), 0o755); err != nil {
		t.Fatal(err)
	}

	host, err := Dial(srv.Addr(), []auth.Authenticator{&auth.HostnameClient{}})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if host.Identity() != "hostname:localhost.nowhere.edu" {
		t.Fatalf("hostname identity = %q", host.Identity())
	}
	// rlx: can read and run what exists...
	if _, err := host.GetFile("/hello.exe"); err != nil {
		t.Errorf("hostname read = %v", err)
	}
	res, err := host.Exec("/", "/hello.exe")
	if err != nil || res.Code != 42 {
		t.Errorf("hostname exec = %+v, %v", res, err)
	}
	// ...but cannot stage anything new.
	if err := host.PutFile("/evil.exe", []byte("x"), 0o755); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("hostname write = %v, want EPERM", err)
	}
}

func TestExecRequiresExecuteRight(t *testing.T) {
	srv, k, ca := testServer(t)
	k.RegisterProgram("x", func(p *kernel.Proc, _ []string) int { return 0 })
	fred := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	if err := fred.Mkdir("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fred.PutFile("/w/x.exe", kernel.ExecutableBytes("x"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Fred removes his own x right.
	a := &acl.ACL{}
	a.Set("globus:/O=UnivNowhere/CN=Fred", acl.Read|acl.Write|acl.List|acl.Admin, acl.None)
	if err := fred.SetACL("/w", a.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := fred.Exec("/w", "/w/x.exe"); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("exec without x = %v, want EPERM", err)
	}
}

func TestMetadataOpsOverWire(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	if err := cl.Mkdir("/m", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/m/a", []byte("alpha"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stat("/m/a")
	if err != nil || st.Size != 5 || st.Type != vfs.TypeRegular {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	if err := cl.Rename("/m/a", "/m/b"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Link("/m/b", "/m/c"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Symlink("b", "/m/ln"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := cl.Readlink("/m/ln"); err != nil || tgt != "b" {
		t.Fatalf("readlink = %q, %v", tgt, err)
	}
	lst, err := cl.Lstat("/m/ln")
	if err != nil || lst.Type != vfs.TypeSymlink {
		t.Fatalf("lstat = %+v, %v", lst, err)
	}
	ents, err := cl.ReadDir("/m")
	if err != nil {
		t.Fatal(err)
	}
	// .__acl, b, c, ln
	if len(ents) != 4 {
		t.Fatalf("readdir = %v", ents)
	}
	if err := cl.Truncate("/m/b", 2); err != nil {
		t.Fatal(err)
	}
	if data, _ := cl.GetFile("/m/c"); string(data) != "al" {
		t.Fatalf("after truncate via hard link = %q", data)
	}
	if err := cl.Unlink("/m/c"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/m/ln"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unlink("/m/b"); err != nil {
		t.Fatal(err)
	}
	// Unlinking the ACL file itself requires 'a', which Fred holds.
	if err := cl.Unlink("/m/" + acl.FileName); err != nil {
		t.Fatal(err)
	}
	// Removing /m needs the w right in its parent "/", which Fred does
	// not hold (the root grants him only v+l): denied.
	if err := cl.Rmdir("/m"); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("rmdir without w in parent = %v, want EPERM", err)
	}
	// The admin (rwlax at the root) may remove it.
	admin, err := Dial(srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: "admin"}})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.Rmdir("/m"); err != nil {
		t.Fatal(err)
	}
}

func TestPathsWithSpaces(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	if err := cl.Mkdir("/my dir", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/my dir/my file.txt", []byte("spaced"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := cl.GetFile("/my dir/my file.txt")
	if err != nil || string(data) != "spaced" {
		t.Fatalf("spaced path = %q, %v", data, err)
	}
}

func TestLargeFileTransfer(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	cl.Mkdir("/big", 0o755)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 16384) // 256 kB
	if err := cl.PutFile("/big/blob", payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetFile("/big/blob")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %d bytes, %v", len(got), err)
	}
}

func TestAuthFailureClosesSession(t *testing.T) {
	srv, _, _ := testServer(t)
	rogueCA, _ := auth.NewCA("RogueCA")
	cred, _ := rogueCA.Issue("/O=Evil/CN=Mallory")
	_, err := Dial(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}})
	if err == nil {
		t.Fatal("rogue CA accepted")
	}
}

func TestUnknownCommand(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Fred")
	_, err := cl.rpc("frobnicate")
	if !errors.Is(err, kernel.ErrNoSys) {
		t.Fatalf("unknown command = %v, want ENOSYS", err)
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	fs := vfs.New("o")
	k := kernel.New(fs, vclock.Default())
	rootACL := &acl.ACL{}
	rootACL.Set("*", acl.Read|acl.List, acl.None)
	srv, err := NewServer(k, ServerOptions{
		Name:        "node1",
		Owner:       "o",
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
	defer srv.Close()

	// The heartbeat is UDP; wait for it to land.
	deadline := time.Now().Add(2 * time.Second)
	var entries []CatalogEntry
	for time.Now().Before(deadline) {
		entries = cat.Entries()
		if len(entries) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(entries) != 1 || entries[0].Name != "node1" || entries[0].Owner != "o" {
		t.Fatalf("catalog entries = %+v", entries)
	}
	// TCP query path.
	got, err := QueryCatalog(cat.Addr())
	if err != nil || len(got) != 1 || got[0].Addr != srv.Addr() {
		t.Fatalf("QueryCatalog = %+v, %v", got, err)
	}
}

func TestCatalogExpiry(t *testing.T) {
	cat := NewCatalog()
	base := time.Unix(1000000, 0)
	now := base
	cat.SetClock(func() time.Time { return now })
	cat.Record(`chirp "n1" "1.2.3.4:9094" "alice"`)
	if len(cat.Entries()) != 1 {
		t.Fatal("heartbeat not recorded")
	}
	now = base.Add(16 * time.Minute)
	if len(cat.Entries()) != 0 {
		t.Fatal("stale server not expired")
	}
}

func TestSplitFields(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`open 0 644 "/plain"`, []string{"open", "0", "644", "/plain"}},
		{`stat "/with space/f"`, []string{"stat", "/with space/f"}},
		{`x "quoted \"inner\""`, []string{"x", `quoted "inner"`}},
		{``, nil},
		{`   `, nil},
	}
	for _, c := range cases {
		got, err := splitFields(c.in)
		if err != nil {
			t.Errorf("splitFields(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("splitFields(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitFields(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
	if _, err := splitFields(`bad "unterminated`); err == nil {
		t.Error("unterminated quote accepted")
	}
}

func TestStatRoundTripWire(t *testing.T) {
	st := vfs.Stat{Ino: 7, Type: vfs.TypeSymlink, Mode: 0o644, Owner: "alice", Group: "staff", Nlink: 2, Size: 1234, Mtime: 99}
	// Simulate the wire: encode behind "ok" and re-split.
	parts, err := splitFields(string(new(lineBuf).start("ok").stat(st).b))
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseStat(parts[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("round trip: %+v != %+v", got, st)
	}
}

func TestStatWireRoundTripProperty(t *testing.T) {
	f := func(ino uint64, tpe uint8, mode uint32, nlink uint8, size int64, mtime int64) bool {
		st := vfs.Stat{
			Ino:   ino,
			Type:  vfs.FileType(int(tpe) % 3),
			Mode:  mode & 0o7777,
			Owner: "owner-x",
			Group: "grp",
			Nlink: int(nlink),
			Size:  size & 0x7fffffff,
			Mtime: mtime & 0x7fffffff,
		}
		parts, err := splitFields(string(new(lineBuf).start("ok").stat(st).b))
		if err != nil {
			return false
		}
		got, err := parseStat(parts[1:])
		return err == nil && got == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
