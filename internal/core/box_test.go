package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// newWorld builds the Figure-2 world: supervising user dthain with a
// private file "secret" in his home directory, a world-readable public
// area, and an /etc/passwd.
func newWorld(t *testing.T) *kernel.Kernel {
	t.Helper()
	fs := vfs.New(kernel.RootAccount)
	k := kernel.New(fs, vclock.Default())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/etc", 0o755, kernel.RootAccount))
	must(fs.WriteFile("/etc/passwd", []byte("root:x:0:0:root:/root:/bin/sh\ndthain:x:1000:1000:Douglas Thain:/home/dthain:/bin/tcsh\n"), 0o644, kernel.RootAccount))
	must(fs.MkdirAll("/home/dthain", 0o755, "dthain"))
	must(fs.WriteFile("/home/dthain/secret", []byte("my private data"), 0o600, "dthain"))
	must(fs.MkdirAll("/pub", 0o755, "dthain"))
	must(fs.WriteFile("/pub/readable.txt", []byte("anyone may read this"), 0o644, "dthain"))
	must(fs.MkdirAll("/tmp", 0o777, kernel.RootAccount))
	return k
}

func newBox(t *testing.T, k *kernel.Kernel, ident identity.Principal, opts Options) *Box {
	t.Helper()
	b, err := New(k, "dthain", ident, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewRejectsInvalidIdentity(t *testing.T) {
	k := newWorld(t)
	if _, err := New(k, "dthain", "", Options{}); err == nil {
		t.Fatal("empty identity accepted")
	}
	if _, err := New(k, "dthain", "has space", Options{}); err == nil {
		t.Fatal("identity with space accepted")
	}
}

// TestFigure2Session reproduces the interactive session of Figure 2:
// the visitor Freddy cannot read dthain's secret, but can create and
// read back mydata in his fresh home directory, and whoami-style tools
// report "Freddy".
func TestFigure2Session(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})

	st := b.Run(func(p *kernel.Proc, _ []string) int {
		// whoami: the new system call reports the boxed identity.
		if got := p.GetUserName(); got != "Freddy" {
			t.Errorf("get_user_name = %q, want Freddy", got)
		}
		// cat ~dthain/secret: denied — no ACL in /home/dthain, and the
		// file is 0600 dthain, so "nobody" semantics deny it.
		if _, err := p.Open("/home/dthain/secret", kernel.ORdonly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open secret = %v, want permission denied", err)
		}
		// vi ~/mydata: allowed — the home ACL grants Freddy rwlax.
		if err := p.WriteFile("mydata", []byte("freddy's notes"), 0o644); err != nil {
			t.Errorf("write mydata: %v", err)
		}
		data, err := p.ReadFile("mydata")
		if err != nil || string(data) != "freddy's notes" {
			t.Errorf("read mydata = %q, %v", data, err)
		}
		// The account database appears to contain Freddy.
		passwd, err := p.ReadFile("/etc/passwd")
		if err != nil {
			t.Fatalf("read /etc/passwd: %v", err)
		}
		first := strings.SplitN(string(passwd), "\n", 2)[0]
		if !strings.HasPrefix(first, "Freddy:") {
			t.Errorf("passwd first line = %q, want Freddy entry", first)
		}
		if !strings.Contains(string(passwd), "dthain:") {
			t.Errorf("original passwd entries should be preserved")
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
	// The real /etc/passwd is untouched.
	raw, _ := k.FS().ReadFile("/etc/passwd")
	if strings.Contains(string(raw), "Freddy") {
		t.Fatal("box leaked the visitor into the real passwd file")
	}
	// And Freddy appears nowhere in the system account list.
	if strings.Contains(string(raw), "freddy") {
		t.Fatal("unexpected account created")
	}
}

func TestNobodyFallbackSemantics(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		// World-readable file in ACL-less directory: allowed.
		data, err := p.ReadFile("/pub/readable.txt")
		if err != nil || !bytes.Contains(data, []byte("anyone")) {
			t.Errorf("read world-readable = %q, %v", data, err)
		}
		// Writing it: denied (other bits lack w).
		if _, err := p.Open("/pub/readable.txt", kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("write world-readable = %v, want denied", err)
		}
		// Creating in a 0755 dir: denied.
		if _, err := p.Open("/pub/new.txt", kernel.OWronly|kernel.OCreat, 0o644); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("create in 0755 dir = %v, want denied", err)
		}
		// Listing a 0755 dir: allowed (other r).
		if _, err := p.ReadDir("/pub"); err != nil {
			t.Errorf("list /pub = %v", err)
		}
		// mkdir in 0755 dir: denied; in 0777 (/tmp): allowed.
		if err := p.Mkdir("/pub/sub", 0o755); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("mkdir in 0755 = %v, want denied", err)
		}
		if err := p.Mkdir("/tmp/scratch", 0o755); err != nil {
			t.Errorf("mkdir in 0777 = %v", err)
		}
		return 0
	})

	// What nobody owns answers to its owner bits, whichever system call
	// asks. (The supervisor here is root, so the host's own check on the
	// supervising account never decides.)
	k.FS().Mkdir("/var", 0o755, kernel.RootAccount)
	k.FS().Mkdir("/var/nobody", 0o700, "nobody")
	k.FS().WriteFile("/var/nobody/f", []byte("x"), 0o600, "nobody")
	rb, err := New(k, kernel.RootAccount, "Freddy", Options{})
	if err != nil {
		t.Fatal(err)
	}
	rb.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/var/nobody/f"); err != nil {
			t.Errorf("read nobody's 0600 file = %v", err)
		}
		if _, err := p.ReadDir("/var/nobody"); err != nil {
			t.Errorf("list nobody's 0700 dir = %v", err)
		}
		if err := p.Chdir("/var/nobody"); err != nil {
			t.Errorf("chdir into nobody's 0700 dir = %v", err)
		}
		if err := p.Mkdir("/var/nobody/sub", 0o755); err != nil {
			t.Errorf("mkdir in nobody's 0700 dir = %v", err)
		}
		if err := p.Unlink("/var/nobody/f"); err != nil {
			t.Errorf("unlink nobody's 0600 file = %v", err)
		}
		return 0
	})
}

func TestACLOverridesUnixInsideBox(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	// dthain shares /share with Freddy via an ACL, although the files
	// are 0600 dthain (useless to "nobody").
	fs.MkdirAll("/share", 0o700, "dthain")
	fs.WriteFile("/share/data", []byte("shared via ACL"), 0o600, "dthain")
	a := &acl.ACL{}
	a.Set("Freddy", acl.Read|acl.List, acl.None)
	fs.WriteFile("/share/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	freddy := newBox(t, k, "Freddy", Options{})
	freddy.Run(func(p *kernel.Proc, _ []string) int {
		data, err := p.ReadFile("/share/data")
		if err != nil || string(data) != "shared via ACL" {
			t.Errorf("ACL-granted read = %q, %v", data, err)
		}
		// Write still denied: ACL grants only rl.
		if _, err := p.Open("/share/data", kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("write without w right = %v", err)
		}
		return 0
	})

	george := newBox(t, k, "George", Options{})
	george.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/share/data"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("George read = %v, want denied (not in ACL)", err)
		}
		return 0
	})
}

func TestWildcardACL(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/grid", 0o700, "dthain")
	fs.WriteFile("/grid/data", []byte("x"), 0o600, "dthain")
	a := &acl.ACL{}
	a.Set("globus:/O=UnivNowhere/*", acl.Read|acl.List, acl.None)
	fs.WriteFile("/grid/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	fred := newBox(t, k, identity.New("globus", "/O=UnivNowhere/CN=Fred"), Options{})
	fred.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/grid/data"); err != nil {
			t.Errorf("wildcard-granted read: %v", err)
		}
		return 0
	})
	eve := newBox(t, k, identity.New("globus", "/O=Elsewhere/CN=Eve"), Options{})
	eve.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/grid/data"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("outsider read = %v, want denied", err)
		}
		return 0
	})
}

// TestReserveRight reproduces the Section-4 semantics: holding only
// v(rwlax) in the root, Fred's mkdir creates a private namespace whose
// ACL grants Fred exactly rwlax; George cannot enter it; Fred can then
// grant George access because the reserve set included 'a'.
func TestReserveRight(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/export", 0o700, "dthain")
	a := &acl.ACL{}
	a.Set("globus:/O=UnivNowhere/*", acl.Reserve, acl.All)
	fs.WriteFile("/export/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	fred := identity.New("globus", "/O=UnivNowhere/CN=Fred")
	george := identity.New("globus", "/O=UnivNowhere/CN=George")

	fredBox := newBox(t, k, fred, Options{})
	fredBox.Run(func(p *kernel.Proc, _ []string) int {
		// Reserve holders cannot write files directly...
		if _, err := p.Open("/export/f", kernel.OWronly|kernel.OCreat, 0o644); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("create with only v = %v, want denied", err)
		}
		// ...but may mkdir.
		if err := p.Mkdir("/export/work", 0o755); err != nil {
			t.Fatalf("mkdir under reserve right: %v", err)
		}
		// The fresh ACL grants Fred rwlax.
		text, err := p.GetACL("/export/work")
		if err != nil {
			t.Fatalf("getacl: %v", err)
		}
		got, perr := acl.Parse(text)
		if perr != nil {
			t.Fatal(perr)
		}
		if r, _ := got.Lookup(fred); r != acl.All {
			t.Errorf("fresh ACL rights for Fred = %v, want rwlax", r)
		}
		if r, _ := got.Lookup(george); r != acl.None {
			t.Errorf("fresh ACL rights for George = %v, want none", r)
		}
		// Fred can work there.
		if err := p.WriteFile("/export/work/out.dat", []byte("results"), 0o644); err != nil {
			t.Errorf("write in reserved dir: %v", err)
		}
		return 0
	})

	georgeBox := newBox(t, k, george, Options{})
	georgeBox.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/export/work/out.dat"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("George reading Fred's reserved dir = %v, want denied", err)
		}
		return 0
	})

	// Fred holds 'a' (from the reserve set) and extends access.
	fredBox.Run(func(p *kernel.Proc, _ []string) int {
		text, _ := p.GetACL("/export/work")
		na, _ := acl.Parse(text)
		na.Set(george.String(), acl.Read|acl.List, acl.None)
		if err := p.SetACL("/export/work", na.String()); err != nil {
			t.Fatalf("setacl by A-holder: %v", err)
		}
		return 0
	})
	georgeBox.Run(func(p *kernel.Proc, _ []string) int {
		if data, err := p.ReadFile("/export/work/out.dat"); err != nil || string(data) != "results" {
			t.Errorf("George after grant = %q, %v", data, err)
		}
		// But George holds no 'a' and cannot extend further.
		if err := p.SetACL("/export/work", "Eve rwlax\n"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("setacl without a = %v, want denied", err)
		}
		return 0
	})
}

func TestMkdirInheritsParentACL(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/proj", 0o700, "dthain")
	a := &acl.ACL{}
	a.Set("Freddy", acl.All, acl.None)
	a.Set("George", acl.Read|acl.List, acl.None)
	fs.WriteFile("/proj/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.Mkdir("/proj/sub", 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		text, err := p.GetACL("/proj/sub")
		if err != nil {
			t.Fatalf("getacl: %v", err)
		}
		child, _ := acl.Parse(text)
		if r, _ := child.Lookup("George"); r != acl.Read|acl.List {
			t.Errorf("inherited rights for George = %v, want rl", r)
		}
		return 0
	})
}

func TestACLFileNeedsAdminToEdit(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/d", 0o700, "dthain")
	a := &acl.ACL{}
	a.Set("Freddy", acl.Read|acl.Write|acl.List|acl.Execute, acl.None) // rwlx, no a
	fs.WriteFile("/d/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		// Direct writes to the ACL file require the A right even though
		// Freddy holds w.
		if _, err := p.Open("/d/"+acl.FileName, kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open ACL file for write with rwlx = %v, want denied", err)
		}
		if err := p.Unlink("/d/" + acl.FileName); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("unlink ACL file = %v, want denied", err)
		}
		if err := p.SetACL("/d", "Freddy rwlax\n"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("setacl without a = %v, want denied", err)
		}
		// The route does not matter: truncation, a symlink to the file
		// (Freddy may make one; it leads nowhere new) and a rename onto
		// it all need a as well.
		if err := p.Truncate("/d/"+acl.FileName, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("truncate ACL file = %v, want denied", err)
		}
		if err := p.Symlink(acl.FileName, "/d/alias"); err != nil {
			t.Errorf("symlink in /d = %v", err)
		}
		if _, err := p.Open("/d/alias", kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open ACL file for write through a symlink = %v, want denied", err)
		}
		p.WriteFile("/d/other", []byte("Freddy rwlax\n"), 0o644)
		if err := p.Rename("/d/other", "/d/"+acl.FileName); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("rename onto ACL file = %v, want denied", err)
		}
		// Reading it is fine (l right).
		if _, err := p.GetACL("/d"); err != nil {
			t.Errorf("getacl with l = %v", err)
		}
		// Ordinary files in the directory are read-writable.
		if err := p.WriteFile("/d/ok", []byte("x"), 0o644); err != nil {
			t.Errorf("normal write = %v", err)
		}
		return 0
	})
}

func TestHardLinkToInaccessibleFileRefused(t *testing.T) {
	k := newWorld(t)
	k.FS().MkdirAll("/d", 0o755, "dthain")
	k.FS().WriteFile("/d/"+acl.FileName, []byte("Freddy rwlx\n"), 0o644, "dthain")
	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		// No ACL can be checked through a hard link, so the box refuses
		// to create one pointing at a file Freddy cannot read.
		err := p.Link("/home/dthain/secret", vfs.Join(b.Home(), "stolen"))
		if !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("hard link to secret = %v, want denied", err)
		}
		// Nor one to an ACL file Freddy may read but not edit: through
		// the new name, plain w would rewrite it.
		if err := p.Link("/d/"+acl.FileName, "/d/y"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("hard link to ACL file with rwlx = %v, want denied", err)
		}
		if err := p.Link("/d/"+acl.FileName, vfs.Join(b.Home(), "y")); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("hard link to ACL file into home = %v, want denied", err)
		}
		// Links to accessible files are fine.
		p.WriteFile("mine", []byte("x"), 0o644)
		if err := p.Link(vfs.Join(b.Home(), "mine"), vfs.Join(b.Home(), "mine2")); err != nil {
			t.Errorf("hard link to own file = %v", err)
		}
		return 0
	})
}

func TestSymlinkTargetDirectoryACLChecked(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	// /open has an ACL granting Freddy everything; the symlink inside
	// it points at dthain's secret. The box must check the ACL of the
	// *target's* directory, not the link's.
	fs.MkdirAll("/open", 0o755, "dthain")
	a := acl.ForOwner("Freddy")
	fs.WriteFile("/open/"+acl.FileName, []byte(a.String()), 0o644, "dthain")
	fs.Symlink("/home/dthain/secret", "/open/alias", "dthain")
	fs.Symlink("/pub/readable.txt", "/open/pubalias", "dthain")

	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.Open("/open/alias", kernel.ORdonly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open symlink to secret = %v, want denied", err)
		}
		// A symlink to a world-readable target works.
		if _, err := p.ReadFile("/open/pubalias"); err != nil {
			t.Errorf("symlink to readable = %v", err)
		}
		return 0
	})
}

func TestSignalConfinement(t *testing.T) {
	k := newWorld(t)
	freddy := newBox(t, k, "Freddy", Options{})
	george := newBox(t, k, "George", Options{})

	ready := make(chan int)
	release := make(chan struct{})
	done := make(chan kernel.ExitStatus)
	go func() {
		done <- george.Run(func(p *kernel.Proc, _ []string) int {
			ready <- p.Getpid()
			<-release
			return 0
		})
	}()
	georgePID := <-ready

	freddy.Run(func(p *kernel.Proc, _ []string) int {
		// Cross-identity signal: denied, even though both boxes run
		// under the same local account.
		if err := p.Kill(georgePID, kernel.SigKill); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("cross-identity kill = %v, want denied", err)
		}
		if err := p.Kill(424242, kernel.SigKill); !errors.Is(err, kernel.ErrSearch) {
			t.Errorf("kill missing = %v", err)
		}
		return 0
	})
	close(release)
	if st := <-done; st.Killed {
		t.Fatal("George was killed across identities")
	}

	// Same identity: allowed.
	ready2 := make(chan int)
	release2 := make(chan struct{})
	done2 := make(chan kernel.ExitStatus)
	go func() {
		done2 <- freddy.Run(func(p *kernel.Proc, _ []string) int {
			ready2 <- p.Getpid()
			<-release2
			p.Getpid() // next syscall observes the kill
			return 0
		})
	}()
	targetPID := <-ready2
	freddy.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.Kill(targetPID, kernel.SigKill); err != nil {
			t.Errorf("same-identity kill = %v", err)
		}
		return 0
	})
	close(release2)
	if st := <-done2; !st.Killed {
		t.Fatal("same-identity kill not delivered")
	}
}

func TestSpawnRequiresReadAndExecute(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	k.RegisterProgram("sim", func(p *kernel.Proc, _ []string) int {
		return 0
	})
	// /apps grants rx (run existing programs) to Freddy; /locked only r.
	for dir, rights := range map[string]acl.Rights{
		"/apps":   acl.Read | acl.List | acl.Execute,
		"/locked": acl.Read | acl.List,
	} {
		fs.MkdirAll(dir, 0o700, "dthain")
		a := &acl.ACL{}
		a.Set("Freddy", rights, acl.None)
		fs.WriteFile(dir+"/"+acl.FileName, []byte(a.String()), 0o644, "dthain")
		k.InstallExecutable(dir+"/sim.exe", "sim", "dthain")
	}

	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		pid, err := p.Spawn("/apps/sim.exe")
		if err != nil {
			t.Fatalf("spawn with rx: %v", err)
		}
		if _, status, err := p.Wait(pid); err != nil || status != 0 {
			t.Fatalf("wait = %d, %v", status, err)
		}
		if _, err := p.Spawn("/locked/sim.exe"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("spawn without x = %v, want denied", err)
		}
		return 0
	})
	// Children carry the identity too.
	k.RegisterProgram("whoami", func(p *kernel.Proc, _ []string) int {
		if got := p.GetUserName(); got != "Freddy" {
			t.Errorf("child identity = %q", got)
		}
		return 0
	})
	k.InstallExecutable("/apps/whoami.exe", "whoami", "dthain")
	b.Run(func(p *kernel.Proc, _ []string) int {
		p.Spawn("/apps/whoami.exe")
		p.Wait(-1)
		return 0
	})
}

func TestBulkIOThroughChannel(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	payload := bytes.Repeat([]byte("abcdefgh"), 1024) // 8 kB
	b.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.WriteFile("big.dat", payload, 0o644); err != nil {
			t.Fatalf("bulk write: %v", err)
		}
		got, err := p.ReadFile("big.dat")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("bulk read = %d bytes, %v", len(got), err)
		}
		// Small I/O path too (poke/peek).
		if err := p.WriteFile("small.dat", []byte("tiny"), 0o644); err != nil {
			t.Fatalf("small write: %v", err)
		}
		if got, err := p.ReadFile("small.dat"); err != nil || string(got) != "tiny" {
			t.Fatalf("small read = %q, %v", got, err)
		}
		return 0
	})
}

func TestFdSemanticsInsideBox(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		p.WriteFile("f", []byte("0123456789"), 0o644)
		fd, err := p.Open("f", kernel.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if off, err := p.Lseek(fd, 4, kernel.SeekSet); err != nil || off != 4 {
			t.Fatalf("lseek = %d, %v", off, err)
		}
		buf := make([]byte, 2)
		p.Read(fd, buf)
		if string(buf) != "45" {
			t.Fatalf("read after seek = %q", buf)
		}
		st, err := p.Fstat(fd)
		if err != nil || st.Size != 10 {
			t.Fatalf("fstat = %+v, %v", st, err)
		}
		fd2, err := p.Dup(fd)
		if err != nil {
			t.Fatal(err)
		}
		// dup shares the open file description: reads through either
		// descriptor advance one offset.
		off1, _ := p.Lseek(fd, 0, kernel.SeekCur)
		p.Read(fd2, buf)
		off2, _ := p.Lseek(fd, 0, kernel.SeekCur)
		if off2 != off1+int64(len(buf)) {
			t.Fatalf("dup offset not shared: %d -> %d", off1, off2)
		}
		if err := p.Close(fd); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(fd, buf); !errors.Is(err, kernel.ErrBadFD) {
			t.Fatalf("read closed fd = %v", err)
		}
		if _, err := p.Read(fd2, buf); err != nil {
			t.Fatalf("dup survives close: %v", err)
		}
		// Append mode.
		fd3, _ := p.Open("f", kernel.OWronly|kernel.OAppend, 0)
		p.Write(fd3, []byte("XY"))
		p.Close(fd3)
		data, _ := p.ReadFile("f")
		if string(data) != "0123456789XY" {
			t.Fatalf("append = %q", data)
		}
		return 0
	})
}

func TestAuditLogRecordsDenials(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "JoeHacker", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		p.Open("/home/dthain/secret", kernel.ORdonly, 0) // denied
		p.GetUserName()
		p.WriteFile("loot", []byte("x"), 0o644) // allowed, in home
		return 0
	})
	audit := b.Audit()
	if len(audit) == 0 {
		t.Fatal("audit log empty")
	}
	var sawDenied, sawOpen bool
	for _, rec := range audit {
		if rec.Identity != "JoeHacker" {
			t.Fatalf("audit identity = %q", rec.Identity)
		}
		if rec.Denied && strings.Contains(rec.Call, "secret") {
			sawDenied = true
		}
		if strings.Contains(rec.Call, "open") {
			sawOpen = true
		}
	}
	if !sawDenied {
		t.Error("denied access to secret not recorded")
	}
	if !sawOpen {
		t.Error("open calls not recorded")
	}
	st := b.Stats()
	if st.Denials == 0 || st.Syscalls == 0 || st.ACLChecks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAuditLimitBounds(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{AuditLimit: 10})
	b.Run(func(p *kernel.Proc, _ []string) int {
		for i := 0; i < 50; i++ {
			p.Getpid()
			p.GetUserName()
		}
		return 0
	})
	if n := len(b.Audit()); n > 10 {
		t.Fatalf("audit grew to %d, limit 10", n)
	}
}

func TestChdirDeniedWithoutList(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/vault", 0o700, "dthain")
	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.Chdir("/vault"); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("chdir into 0700 dir = %v, want denied", err)
		}
		if err := p.Chdir("/pub"); err != nil {
			t.Errorf("chdir into 0755 dir = %v", err)
		}
		if p.Getcwd() != "/pub" {
			t.Errorf("cwd = %q", p.Getcwd())
		}
		return 0
	})
}

func TestOrderOfMagnitudeSyscallSlowdown(t *testing.T) {
	// The central performance claim of Figure 5(a): a boxed metadata
	// syscall costs roughly an order of magnitude more than native.
	kNative := newWorld(t)
	var nativeCost, boxedCost vclock.Micros
	kNative.Run(kernel.ProcSpec{Account: "dthain"}, func(p *kernel.Proc, _ []string) int {
		before := p.Clock().Now()
		p.Getpid()
		nativeCost = p.Clock().Now() - before
		return 0
	})
	kBoxed := newWorld(t)
	b := newBox(t, kBoxed, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		before := p.Clock().Now()
		p.Getpid()
		boxedCost = p.Clock().Now() - before
		return 0
	})
	ratio := float64(boxedCost) / float64(nativeCost)
	if ratio < 5 || ratio > 100 {
		t.Fatalf("boxed/native getpid ratio = %.1f (boxed %v, native %v); want order of magnitude", ratio, boxedCost, nativeCost)
	}
}

func TestDisablePolicyAblation(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{DisablePolicy: true})
	b.Run(func(p *kernel.Proc, _ []string) int {
		// Mechanism only: the read proceeds (the policy ablation shows
		// what enforcement itself costs).
		if _, err := p.ReadFile("/home/dthain/secret"); err != nil {
			t.Errorf("read with policy disabled = %v", err)
		}
		return 0
	})
	if st := b.Stats(); st.ACLChecks != 0 {
		t.Fatalf("ACL checks ran with policy disabled: %+v", st)
	}
}

func TestACLCacheCoherence(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/c", 0o700, "dthain")
	a := &acl.ACL{}
	a.Set("Freddy", acl.All, acl.None)
	fs.WriteFile("/c/"+acl.FileName, []byte(a.String()), 0o644, "dthain")

	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.WriteFile("/c/f", []byte("x"), 0o644); err != nil {
			t.Fatalf("first write: %v", err)
		}
		// Revoke own rights through the box; nothing may keep the old
		// grant alive.
		if err := p.SetACL("/c", "SomebodyElse rl\n"); err != nil {
			t.Fatalf("setacl: %v", err)
		}
		if _, err := p.Open("/c/f", kernel.OWronly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("write after revocation = %v, want denied (stale cache?)", err)
		}
		return 0
	})
}

// TestRevocationByAnotherBoxSeenAtNextOpen: two visitors' boxes share
// one kernel; Fred revokes George's right while George's process is
// running, and George's very next open is denied. A per-box memory of
// parsed ACLs could not promise this — only writes through the same box
// would ever have reached it.
func TestRevocationByAnotherBoxSeenAtNextOpen(t *testing.T) {
	k := newWorld(t)
	fs := k.FS()
	fs.MkdirAll("/shared", 0o700, "dthain")
	a := &acl.ACL{}
	a.Set("Fred", acl.All, acl.None)
	a.Set("George", acl.Read|acl.List, acl.None)
	fs.WriteFile("/shared/"+acl.FileName, []byte(a.String()), 0o644, "dthain")
	fs.WriteFile("/shared/data", []byte("x"), 0o644, "dthain")

	fredBox := newBox(t, k, "Fred", Options{})
	georgeBox := newBox(t, k, "George", Options{})
	georgeBox.Run(func(p *kernel.Proc, _ []string) int {
		if _, err := p.ReadFile("/shared/data"); err != nil {
			t.Fatalf("read while granted: %v", err)
		}
		fredBox.Run(func(fp *kernel.Proc, _ []string) int {
			if err := fp.SetACL("/shared", "Fred rwlax\n"); err != nil {
				t.Errorf("fred's setacl: %v", err)
			}
			return 0
		})
		if _, err := p.Open("/shared/data", kernel.ORdonly, 0); !errors.Is(err, vfs.ErrPermission) {
			t.Errorf("open after another box's revocation = %v, want denied", err)
		}
		return 0
	})
}

func TestTwoBoxesShareDataViaACL(t *testing.T) {
	// The headline capability missing from every baseline except group
	// accounts: two grid users privately sharing data on one host with
	// no administrator involvement.
	k := newWorld(t)
	fred := identity.New("globus", "/O=UnivNowhere/CN=Fred")
	george := identity.New("globus", "/O=UnivNowhere/CN=George")

	fredBox := newBox(t, k, fred, Options{})
	fredBox.Run(func(p *kernel.Proc, _ []string) int {
		p.WriteFile("paper.tex", []byte("\\title{Identity Boxing}"), 0o644)
		// Fred grants George read access to his home.
		text, err := p.GetACL(".")
		if err != nil {
			t.Fatalf("getacl home: %v", err)
		}
		a, _ := acl.Parse(text)
		a.Set(george.String(), acl.Read|acl.List, acl.None)
		if err := p.SetACL(".", a.String()); err != nil {
			t.Fatalf("setacl home: %v", err)
		}
		return 0
	})

	georgeBox := newBox(t, k, george, Options{})
	georgeBox.Run(func(p *kernel.Proc, _ []string) int {
		data, err := p.ReadFile(vfs.Join(fredBox.Home(), "paper.tex"))
		if err != nil || !bytes.Contains(data, []byte("Identity Boxing")) {
			t.Errorf("shared read = %q, %v", data, err)
		}
		// And return works: George's own home persists across sessions.
		p.WriteFile("notes", []byte("v1"), 0o644)
		return 0
	})
	// "Log out and log in later": a fresh box for the same identity
	// reuses the same home.
	georgeBox2 := newBox(t, k, george, Options{})
	georgeBox2.Run(func(p *kernel.Proc, _ []string) int {
		data, err := p.ReadFile("notes")
		if err != nil || string(data) != "v1" {
			t.Errorf("return to stored data = %q, %v", data, err)
		}
		return 0
	})
}

func TestBoxRefusesPtraceAndMount(t *testing.T) {
	// Section 6: Parrot does not implement the ptrace interface, so
	// boxed processes cannot debug each other; admin-only calls like
	// mount are refused too. Both are still audited.
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	b.Run(func(p *kernel.Proc, _ []string) int {
		if err := p.Ptrace(p.Getpid()); !errors.Is(err, kernel.ErrNoSys) {
			t.Errorf("boxed ptrace = %v, want ENOSYS", err)
		}
		if err := p.Mount("dev", "/mnt"); !errors.Is(err, kernel.ErrNoSys) {
			t.Errorf("boxed mount = %v, want ENOSYS", err)
		}
		return 0
	})
	var sawPtrace bool
	for _, rec := range b.Audit() {
		if strings.HasPrefix(rec.Call, "ptrace") {
			sawPtrace = true
		}
	}
	if !sawPtrace {
		t.Error("refused ptrace not audited")
	}
}

func TestPipeInsideBox(t *testing.T) {
	// IPC within the box: a parent and its spawned child communicate
	// through an inherited pipe, all under the same identity.
	k := newWorld(t)
	k.RegisterProgram("boxproducer", func(p *kernel.Proc, args []string) int {
		w := 0
		for _, c := range args[0] {
			w = w*10 + int(c-'0')
		}
		msg := "boxed pipe from " + p.GetUserName()
		if _, err := p.Write(w, []byte(msg)); err != nil {
			return 1
		}
		return 0
	})
	k.InstallExecutable("/tmp/boxproducer.exe", "boxproducer", "dthain")
	k.FS().Chmod("/tmp/boxproducer.exe", 0o755)

	b := newBox(t, k, "Freddy", Options{})
	st := b.Run(func(p *kernel.Proc, _ []string) int {
		r, w, err := p.Pipe()
		if err != nil {
			t.Fatalf("boxed pipe: %v", err)
		}
		pid, err := p.Spawn("/tmp/boxproducer.exe", fmt.Sprintf("%d", w))
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		if _, status, _ := p.Wait(pid); status != 0 {
			t.Fatalf("child exited %d", status)
		}
		p.Close(w)
		buf := make([]byte, 128)
		n, err := p.Read(r, buf)
		if err != nil || string(buf[:n]) != "boxed pipe from Freddy" {
			t.Fatalf("read = %q, %v", buf[:n], err)
		}
		// EOF when all writers are closed.
		if n, err := p.Read(r, buf); err != nil || n != 0 {
			t.Fatalf("eof = %d, %v", n, err)
		}
		// Pipes reject positioned I/O and seeking.
		if _, err := p.Pread(r, buf, 0); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("pread on boxed pipe = %v", err)
		}
		if _, err := p.Lseek(r, 0, kernel.SeekSet); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("lseek on boxed pipe = %v", err)
		}
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit = %d", st.Code)
	}
}
