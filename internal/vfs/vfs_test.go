package vfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New("dthain")
}

func TestRootExists(t *testing.T) {
	fs := newFS(t)
	st, err := fs.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDir() || st.Owner != "dthain" {
		t.Fatalf("root stat = %+v", st)
	}
}

func TestMkdirAndStat(t *testing.T) {
	fs := newFS(t)
	if err := fs.Mkdir("/home", 0o755, "dthain"); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/home")
	if err != nil {
		t.Fatal(err)
	}
	if !st.IsDir() || st.Mode != 0o755 {
		t.Fatalf("stat = %+v", st)
	}
	if err := fs.Mkdir("/home", 0o755, "dthain"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate mkdir err = %v, want ErrExist", err)
	}
	if err := fs.Mkdir("/a/b/c", 0o755, "d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("mkdir missing parent err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAll(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/a/b/c", 0o700, "u"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		st, err := fs.Stat(p)
		if err != nil || !st.IsDir() {
			t.Fatalf("%s: %v %+v", p, err, st)
		}
	}
	// Idempotent.
	if err := fs.MkdirAll("/a/b/c", 0o700, "u"); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadFile(t *testing.T) {
	fs := newFS(t)
	data := []byte("the identity box protects this data")
	if err := fs.WriteFile("/secret", data, 0o600, "dthain"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/secret")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q", got)
	}
	st, _ := fs.Stat("/secret")
	if st.Size != int64(len(data)) || st.Owner != "dthain" || st.Mode != 0o600 {
		t.Fatalf("stat = %+v", st)
	}
}

func TestReadWriteAtOffsets(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/f", 0o644, "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/f", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Sparse extension.
	if _, err := fs.WriteAt("/f", []byte("world"), 10); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20)
	n, err := fs.ReadAt("/f", buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("read %d bytes, want 15", n)
	}
	if string(buf[:5]) != "hello" || string(buf[10:15]) != "world" {
		t.Fatalf("contents = %q", buf[:n])
	}
	if buf[7] != 0 {
		t.Fatal("gap should be zero-filled")
	}
	// Read past EOF.
	n, err = fs.ReadAt("/f", buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF read = %d, %v", n, err)
	}
	// Negative offset.
	if _, err := fs.ReadAt("/f", buf, -1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	fs := newFS(t)
	if err := fs.WriteFile("/f", []byte("0123456789"), 0o644, "u"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/f", 4); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/f")
	if string(got) != "0123" {
		t.Fatalf("after shrink = %q", got)
	}
	if err := fs.Truncate("/f", 8); err != nil {
		t.Fatal(err)
	}
	got, _ = fs.ReadFile("/f")
	if len(got) != 8 || got[7] != 0 {
		t.Fatalf("after grow = %q", got)
	}
	if err := fs.Truncate("/f", -1); !errors.Is(err, ErrInvalid) {
		t.Fatal("negative truncate should fail")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := newFS(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := fs.Create("/"+n, 0o644, "u"); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "alpha" || ents[1].Name != "mid" || ents[2].Name != "zeta" {
		t.Fatalf("ReadDir = %v", ents)
	}
	if _, err := fs.ReadDir("/alpha"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir on file err = %v", err)
	}
}

func TestUnlinkAndRmdir(t *testing.T) {
	fs := newFS(t)
	fs.Mkdir("/d", 0o755, "u")
	fs.WriteFile("/d/f", []byte("x"), 0o644, "u")
	if err := fs.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty err = %v", err)
	}
	if err := fs.Unlink("/d"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("unlink dir err = %v", err)
	}
	if err := fs.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/f") {
		t.Fatal("file should be gone")
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("rmdir / err = %v", err)
	}
}

func TestSymlinkFollow(t *testing.T) {
	fs := newFS(t)
	fs.Mkdir("/data", 0o755, "u")
	fs.WriteFile("/data/real", []byte("payload"), 0o644, "u")
	if err := fs.Symlink("/data/real", "/link", "u"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/link")
	if err != nil || string(got) != "payload" {
		t.Fatalf("through-link read = %q, %v", got, err)
	}
	st, err := fs.Stat("/link")
	if err != nil || st.Type != TypeRegular {
		t.Fatalf("Stat follows: %+v, %v", st, err)
	}
	lst, err := fs.Lstat("/link")
	if err != nil || lst.Type != TypeSymlink {
		t.Fatalf("Lstat does not follow: %+v, %v", lst, err)
	}
	target, err := fs.Readlink("/link")
	if err != nil || target != "/data/real" {
		t.Fatalf("Readlink = %q, %v", target, err)
	}
	if _, err := fs.Readlink("/data/real"); !errors.Is(err, ErrInvalid) {
		t.Fatal("Readlink of regular file should fail")
	}
}

func TestRelativeSymlink(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a/b", 0o755, "u")
	fs.WriteFile("/a/target", []byte("rel"), 0o644, "u")
	// /a/b/ln -> ../target  (relative to /a/b)
	if err := fs.Symlink("../target", "/a/b/ln", "u"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b/ln")
	if err != nil || string(got) != "rel" {
		t.Fatalf("relative symlink read = %q, %v", got, err)
	}
}

func TestSymlinkThroughMiddleOfPath(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/real/dir", 0o755, "u")
	fs.WriteFile("/real/dir/f", []byte("deep"), 0o644, "u")
	if err := fs.Symlink("/real", "/alias", "u"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/alias/dir/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("mid-path symlink read = %q, %v", got, err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := newFS(t)
	fs.Symlink("/b", "/a", "u")
	fs.Symlink("/a", "/b", "u")
	if _, err := fs.Stat("/a"); !errors.Is(err, ErrLoop) {
		t.Fatalf("loop err = %v, want ErrLoop", err)
	}
}

func TestDanglingSymlink(t *testing.T) {
	fs := newFS(t)
	fs.Symlink("/nope", "/dangling", "u")
	if _, err := fs.Stat("/dangling"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("dangling stat err = %v", err)
	}
	if _, err := fs.Lstat("/dangling"); err != nil {
		t.Fatalf("lstat of dangling link should work: %v", err)
	}
}

func TestHardLinks(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/f", []byte("shared"), 0o644, "u")
	if err := fs.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	stF, _ := fs.Stat("/f")
	stG, _ := fs.Stat("/g")
	if stF.Ino != stG.Ino {
		t.Fatal("hard link must share the inode")
	}
	if stF.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", stF.Nlink)
	}
	// Write through one name, read through the other.
	if _, err := fs.WriteAt("/g", []byte("SHARED"), 0); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/f")
	if string(got) != "SHARED" {
		t.Fatalf("through-link write not visible: %q", got)
	}
	if err := fs.Unlink("/f"); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/g")
	if err != nil || st.Nlink != 1 {
		t.Fatalf("after unlink: %+v, %v", st, err)
	}
	// Directories cannot be hard-linked.
	fs.Mkdir("/d", 0o755, "u")
	if err := fs.Link("/d", "/d2"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("dir hard link err = %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/a", []byte("A"), 0o644, "u")
	if err := fs.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/a") || !fs.Exists("/b") {
		t.Fatal("rename did not move the file")
	}
	// Replace an existing file.
	fs.WriteFile("/c", []byte("C"), 0o644, "u")
	if err := fs.Rename("/b", "/c"); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/c")
	if string(got) != "A" {
		t.Fatalf("replaced contents = %q", got)
	}
	// Move into a directory.
	fs.Mkdir("/dir", 0o755, "u")
	if err := fs.Rename("/c", "/dir/c"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/dir/c") {
		t.Fatal("move into dir failed")
	}
}

func TestRenameDirRules(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/d1/sub", 0o755, "u")
	fs.Mkdir("/d2", 0o755, "u")
	fs.WriteFile("/f", []byte("x"), 0o644, "u")
	// Dir over non-empty dir fails.
	if err := fs.Rename("/d2", "/d1"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rename over non-empty dir err = %v", err)
	}
	// Dir over empty dir succeeds (/d1 replaces /d2, keeping /sub).
	if err := fs.Rename("/d1", "/d2"); err != nil {
		t.Fatalf("rename dir over empty dir err = %v", err)
	}
	if !fs.Exists("/d2/sub") || fs.Exists("/d1") {
		t.Fatal("rename did not carry the subtree")
	}
	// File over dir fails.
	if err := fs.Rename("/f", "/d2"); !errors.Is(err, ErrIsDir) {
		t.Fatalf("file-over-dir err = %v", err)
	}
	// Dir into its own subtree fails.
	if err := fs.Rename("/d2", "/d2/sub/x"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("dir-into-own-subtree err = %v", err)
	}
}

func TestChmodChown(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/f", nil, 0o644, "alice")
	if err := fs.Chmod("/f", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown("/f", "bob", "staff"); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat("/f")
	if st.Mode != 0o600 || st.Owner != "bob" || st.Group != "staff" {
		t.Fatalf("stat = %+v", st)
	}
}

func TestPathHelpers(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "/"},
		{"/", "/"},
		{"//a//b/", "/a/b"},
		{"/a/./b", "/a/b"},
		{"/a/../b", "/b"},
		{"/../../x", "/x"},
	}
	for _, c := range cases {
		if got := Clean(c.in); got != c.want {
			t.Errorf("Clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Dir("/a/b/c") != "/a/b" || Dir("/a") != "/" || Dir("/") != "/" {
		t.Error("Dir wrong")
	}
	if Base("/a/b/c") != "c" || Base("/") != "/" {
		t.Error("Base wrong")
	}
	if Join("/a", "b", "c") != "/a/b/c" {
		t.Error("Join wrong")
	}
}

func TestCleanIdempotentProperty(t *testing.T) {
	f := func(p string) bool { return Clean(Clean(p)) == Clean(p) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirAllocatesOnlyItsResult: a readdir allocates the slice it
// returns and nothing else; the sort works in place.
func TestReadDirAllocatesOnlyItsResult(t *testing.T) {
	fs := newFS(t)
	if err := fs.Mkdir("/d", 0o755, "u"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f", "b", "e", "a", "d", "c"} {
		if _, err := fs.Create("/d/"+name, 0o644, "u"); err != nil {
			t.Fatal(err)
		}
	}
	var ents []DirEntry
	if got := testing.AllocsPerRun(100, func() { ents, _ = fs.ReadDir("/d") }); got != 1 {
		t.Errorf("ReadDir of 6 entries allocates %.0f, want 1 (its result)", got)
	}
	for i, want := range []string{"a", "b", "c", "d", "e", "f"} {
		if ents[i].Name != want {
			t.Fatalf("ReadDir order = %v, want sorted", ents)
		}
	}
}

// TestPathComponentsMatchesSplitPath: the counting scan agrees with
// the length of SplitPath's slice on every path built from up to five
// of "", ".", "..", "a" and "bc", rooted or relative, with or without a
// trailing slash, and allocates nothing.
func TestPathComponentsMatchesSplitPath(t *testing.T) {
	parts := []string{"", ".", "..", "a", "bc"}
	var paths []string
	var gen func(prefix string, depth int)
	gen = func(prefix string, depth int) {
		for _, lead := range []string{"", "/"} {
			for _, trail := range []string{"", "/"} {
				paths = append(paths, lead+prefix+trail)
			}
		}
		if depth == 5 {
			return
		}
		for _, c := range parts {
			if depth == 0 {
				gen(c, 1)
			} else {
				gen(prefix+"/"+c, depth+1)
			}
		}
	}
	gen("", 0)
	for _, p := range paths {
		if got, want := PathComponents(p), len(SplitPath(p)); got != want {
			t.Errorf("PathComponents(%q) = %d, len(SplitPath) = %d", p, got, want)
		}
	}
	t.Logf("%d paths compared", len(paths))
	for _, p := range []string{"/work/sim.exe", "a/../../b//./c/", ""} {
		if got := testing.AllocsPerRun(100, func() { _ = PathComponents(p) }); got != 0 {
			t.Errorf("PathComponents(%q) allocates %.0f, want 0", p, got)
		}
	}
}

func TestWriteReadRoundTripProperty(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/p", 0o644, "u"); err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, off uint16) bool {
		o := int64(off % 4096)
		if _, err := fs.WriteAt("/p", data, o); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		n, err := fs.ReadAt("/p", buf, o)
		if err != nil {
			return false
		}
		return n == len(data) && bytes.Equal(buf[:n], data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeInvariants(t *testing.T) {
	// Build a random tree of directories and files; TotalInodes must
	// equal 1 (root) + created dirs + created files; every created path
	// must stat back correctly.
	r := rand.New(rand.NewSource(7))
	fs := newFS(t)
	dirs := []string{"/"}
	files := map[string][]byte{}
	nDirs, nFiles := 0, 0
	for i := 0; i < 300; i++ {
		parent := dirs[r.Intn(len(dirs))]
		name := string(rune('a'+r.Intn(26))) + string(rune('0'+i%10))
		p := Join(parent, name)
		if fs.Exists(p) {
			continue
		}
		if r.Intn(2) == 0 {
			if err := fs.Mkdir(p, 0o755, "u"); err != nil {
				t.Fatalf("mkdir %s: %v", p, err)
			}
			dirs = append(dirs, p)
			nDirs++
		} else {
			data := make([]byte, r.Intn(100))
			r.Read(data)
			if err := fs.WriteFile(p, data, 0o644, "u"); err != nil {
				t.Fatalf("write %s: %v", p, err)
			}
			files[p] = data
			nFiles++
		}
	}
	if got, want := fs.TotalInodes(), 1+nDirs+nFiles; got != want {
		t.Fatalf("TotalInodes = %d, want %d", got, want)
	}
	for p, data := range files {
		got, err := fs.ReadFile(p)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("readback %s: %v", p, err)
		}
	}
}

func TestStatErrorIsPathError(t *testing.T) {
	fs := newFS(t)
	_, err := fs.Stat("/missing")
	var pe *PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T, want *PathError", err)
	}
	if pe.Op != "stat" || pe.Path != "/missing" {
		t.Fatalf("PathError = %+v", pe)
	}
}
