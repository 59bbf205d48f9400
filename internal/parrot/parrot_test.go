package parrot

import (
	"errors"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

func testEnv(t *testing.T) (*kernel.Kernel, *LocalDriver, *kernel.Proc) {
	t.Helper()
	fs := vfs.New(kernel.RootAccount)
	fs.Chmod("/", 0o777)
	k := kernel.New(fs, vclock.Default())
	d := NewLocalDriver(fs, "dthain", vclock.Default())
	var proc *kernel.Proc
	k.Run(kernel.ProcSpec{Account: "dthain"}, func(p *kernel.Proc, _ []string) int {
		proc = p
		return 0
	})
	return k, d, proc
}

func TestMountTableLongestPrefix(t *testing.T) {
	var mt MountTable
	root := &LocalDriver{}
	chirp := &LocalDriver{}
	deep := &LocalDriver{}
	mt.Add("/", root)
	mt.Add("/chirp/host:9094", chirp)
	mt.Add("/chirp/host:9094/deep", deep)

	cases := []struct {
		path    string
		want    Driver
		wantRel string
	}{
		{"/etc/passwd", root, "/etc/passwd"},
		{"/chirp/host:9094", chirp, "/"},
		{"/chirp/host:9094/data/f", chirp, "/data/f"},
		{"/chirp/host:9094/deep/x", deep, "/x"},
		{"/chirp/other:1", root, "/chirp/other:1"},
	}
	for _, c := range cases {
		d, rel := mt.Resolve(c.path)
		if d != c.want || rel != c.wantRel {
			t.Errorf("Resolve(%q) = %v/%q, want %v/%q", c.path, d, rel, c.want, c.wantRel)
		}
	}
}

func TestMountTableNoRootMount(t *testing.T) {
	var mt MountTable
	d := &LocalDriver{}
	mt.Add("/chirp/h", d)
	if got, _ := mt.Resolve("/elsewhere"); got != nil {
		t.Fatal("unmounted path should resolve to nil")
	}
	// A prefix match must respect component boundaries.
	if got, _ := mt.Resolve("/chirp/hh"); got != nil {
		t.Fatal("/chirp/hh must not match mount /chirp/h")
	}
}

func TestMountTableMountsListed(t *testing.T) {
	var mt MountTable
	mt.Add("/", &LocalDriver{})
	mt.Add("/chirp/a", &LocalDriver{})
	ms := mt.Mounts()
	if len(ms) != 2 || ms[0].Prefix != "/chirp/a" || ms[1].Prefix != "/" {
		t.Fatalf("Mounts = %+v", ms)
	}
}

func TestLocalDriverOpenReadWrite(t *testing.T) {
	_, d, p := testEnv(t)
	f, err := d.Open(p, "/x", kernel.OWronly|kernel.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f2, err := d.Open(p, "/x", kernel.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := f2.ReadAt(buf, 0); err != nil || string(buf[:n]) != "data" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
	st, err := f2.Stat()
	if err != nil || st.Size != 4 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
}

func TestLocalDriverUnixPermsAsSupervisor(t *testing.T) {
	k, d, p := testEnv(t)
	fs := k.FS()
	// A file owned by someone else, 0600: the supervising account
	// (dthain) must not be able to read it — the host kernel would
	// refuse the supervisor's own syscall.
	fs.WriteFile("/others", []byte("x"), 0o600, "alice")
	if _, err := d.Open(p, "/others", kernel.ORdonly, 0); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("open foreign 0600 = %v, want denied", err)
	}
	// Own file is fine regardless of other bits.
	fs.WriteFile("/own", []byte("y"), 0o600, "dthain")
	if _, err := d.Open(p, "/own", kernel.ORdonly, 0); err != nil {
		t.Fatalf("open own 0600 = %v", err)
	}
	// Creating in a foreign 0755 dir: denied.
	fs.MkdirAll("/foreign", 0o755, "alice")
	if _, err := d.Open(p, "/foreign/new", kernel.OWronly|kernel.OCreat, 0o644); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("create in foreign dir = %v, want denied", err)
	}
	if err := d.Mkdir(p, "/foreign/sub", 0o755, nil); !errors.Is(err, vfs.ErrPermission) {
		t.Fatalf("mkdir in foreign dir = %v, want denied", err)
	}
}

func TestLocalDriverMetadataOps(t *testing.T) {
	k, d, p := testEnv(t)
	if err := d.Mkdir(p, "/dir", 0o755, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteFileSmall(p, "/dir/f", []byte("small"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := k.FS().ReadFile("/dir/f")
	if err != nil || string(data) != "small" {
		t.Fatalf("WriteFileSmall left %q, %v", data, err)
	}
	if st, err := d.Stat(p, "/dir/f"); err != nil || st.Size != 5 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	if err := d.Symlink(p, "f", "/dir/ln"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := d.Readlink(p, "/dir/ln"); err != nil || tgt != "f" {
		t.Fatalf("readlink = %q, %v", tgt, err)
	}
	if st, err := d.Lstat(p, "/dir/ln"); err != nil || st.Type != vfs.TypeSymlink {
		t.Fatalf("lstat = %+v, %v", st, err)
	}
	ents, err := d.ReadDir(p, "/dir")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir = %v, %v", ents, err)
	}
	if err := d.Rename(p, "/dir/f", "/dir/g"); err != nil {
		t.Fatal(err)
	}
	if err := d.Link(p, "/dir/g", "/dir/h"); err != nil {
		t.Fatal(err)
	}
	if err := d.Truncate(p, "/dir/g", 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Chmod(p, "/dir/g", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := d.Unlink(p, "/dir/h"); err != nil {
		t.Fatal(err)
	}
	if err := d.Rmdir(p, "/dir"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty = %v", err)
	}
}

func TestLocalDriverChargesTime(t *testing.T) {
	_, d, p := testEnv(t)
	before := p.Clock().Now()
	d.Stat(p, "/")
	if p.Clock().Now() <= before {
		t.Fatal("driver did not charge virtual time")
	}
}

// TestLocalDriverReadACLChargesAWholeFileRead: ReadACL hands back the
// parse memoised on the ACL file's inode — one parse per version — yet
// charges exactly what reading the file would: the same terms, the same
// byte count, a miss and a malformed file included.
func TestLocalDriverReadACLChargesAWholeFileRead(t *testing.T) {
	k, d, p := testEnv(t)
	m := vclock.Default()
	// expect runs f and demands it advanced p's clock by exactly a
	// whole-file read of path's n bytes, compared as the clock sums it.
	expect := func(path string, n int, f func()) {
		t.Helper()
		want := m.SyscallFixed + m.Open + m.ReadFixed + m.CopyPerByte*vclock.Micros(n) +
			m.DirEntry*vclock.Micros(vfs.PathComponents(path))
		before := p.Clock().Now()
		f()
		if got := p.Clock().Now(); got != before+want {
			t.Errorf("ReadACL for %s charged %v, want %v", path, got-before, want)
		}
	}
	if err := k.FS().Mkdir("/a", 0o755, "dthain"); err != nil {
		t.Fatal(err)
	}
	if err := k.FS().Mkdir("/a/b", 0o755, "dthain"); err != nil {
		t.Fatal(err)
	}

	var err error
	expect("/a/b/"+acl.FileName, 0, func() { _, err = d.ReadACL(p, "/a/b") })
	if !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("missing ACL = %v, want ErrNotExist", err)
	}

	var v1, v2 *acl.Version
	for _, c := range []struct{ dir, text string }{
		{"/", "unix:alice rl\n"},
		{"/a/b", "  unix:alice   rwl  \n"},
		{"/a/b", "unix:alice bogus\n"},
	} {
		path := vfs.Join(c.dir, acl.FileName)
		if err := k.FS().WriteFile(path, []byte(c.text), 0o644, "dthain"); err != nil {
			t.Fatal(err)
		}
		expect(path, len(c.text), func() { v1, err = d.ReadACL(p, c.dir) })
		expect(path, len(c.text), func() { v2, _ = d.ReadACL(p, c.dir) })
		if err != nil || v1.Raw != c.text {
			t.Fatalf("ReadACL(%s) = %v, %v; want the file's bytes %q", c.dir, v1, err, c.text)
		}
		if v2 != v1 {
			t.Errorf("ReadACL(%s) parsed an unchanged file twice", c.dir)
		}
	}
	if len(v1.ACL.Entries) != 0 {
		t.Errorf("malformed ACL parsed to %v, want no entries (fail closed)", v1.ACL)
	}
}

// TestLocalDriverDirACLStepsChargeTheCallsTheyReplace: Mkdir with a
// child ACL and Rmdir of a directory holding only its ACL are one vfs
// step each, yet charge exactly the calls a supervisor makes for them —
// mkdir plus the ACL file's whole-file write; the listing (its entries
// counted), the ACL file's unlink when it goes, and rmdir — so the
// Figure 4/5 clock cannot tell the steps are single.
func TestLocalDriverDirACLStepsChargeTheCallsTheyReplace(t *testing.T) {
	k, d, p := testEnv(t)
	m := vclock.Default()
	cost := func(path string) vclock.Micros { return m.DirEntry * vclock.Micros(vfs.PathComponents(path)) }
	mkdir := func(path string) vclock.Micros { return m.SyscallFixed + m.Open + cost(path) }
	write := func(path string, n int) vclock.Micros {
		return m.SyscallFixed + m.Open + m.WriteFixed + m.CopyPerByte*vclock.Micros(n) + cost(path)
	}
	list := func(path string, n int) vclock.Micros {
		return m.SyscallFixed + m.ReadFixed + m.DirEntry*vclock.Micros(n) + cost(path)
	}
	unlink, rmdir := mkdir, mkdir // all three charge a syscall, an open and the path
	// expect runs f and demands it advanced p's clock by exactly the
	// charges of the calls it stands for, summed one call at a time as
	// the clock sums them.
	expect := func(what string, f func() error, wantErr error, calls ...vclock.Micros) {
		t.Helper()
		want := p.Clock().Now()
		for _, c := range calls {
			want += c
		}
		if err := f(); !errors.Is(err, wantErr) || (wantErr == nil && err != nil) {
			t.Fatalf("%s = %v, want %v", what, err, wantErr)
		}
		if got := p.Clock().Now(); got != want {
			t.Errorf("%s: clock at %v, want %v", what, got, want)
		}
	}
	child := &acl.ACL{}
	child.Set("unix:alice", acl.All, acl.None)
	text := child.String()
	aclOf := func(dir string) string { return vfs.Join(dir, acl.FileName) }

	expect("mkdir with an ACL", func() error { return d.Mkdir(p, "/a", 0o755, child) }, nil,
		mkdir("/a"), write(aclOf("/a"), len(text)))
	if got, err := k.FS().ReadFile(aclOf("/a")); err != nil || string(got) != text {
		t.Fatalf("child ACL = %q, %v; want %q", got, err, text)
	}
	expect("mkdir without an ACL", func() error { return d.Mkdir(p, "/a/b", 0o755, nil) }, nil, mkdir("/a/b"))
	expect("mkdir of an existing directory", func() error { return d.Mkdir(p, "/a", 0o755, child) }, vfs.ErrExist, mkdir("/a"))

	expect("rmdir of an empty directory", func() error { return d.Rmdir(p, "/a/b") }, nil,
		list("/a/b", 0), rmdir("/a/b"))
	if err := k.FS().WriteFile("/a/f", nil, 0o644, "dthain"); err != nil {
		t.Fatal(err)
	}
	expect("rmdir of a directory holding more than its ACL", func() error { return d.Rmdir(p, "/a") }, vfs.ErrNotEmpty,
		list("/a", 2), rmdir("/a"))
	if !k.FS().Exists(aclOf("/a")) {
		t.Fatal("a refused rmdir removed the directory's ACL")
	}
	if err := k.FS().Unlink("/a/f"); err != nil {
		t.Fatal(err)
	}
	expect("rmdir of a directory holding only its ACL", func() error { return d.Rmdir(p, "/a") }, nil,
		list("/a", 1), unlink(aclOf("/a")), rmdir("/a"))
	if k.FS().Exists("/a") {
		t.Fatal("rmdir left the directory")
	}
	expect("rmdir of a missing directory", func() error { return d.Rmdir(p, "/a") }, vfs.ErrNotExist,
		list("/a", 0), rmdir("/a"))
}
