package vfs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestMemoOneVersionOneValue pins the invariant FS.MemoIn rests on: a
// stamp (an inode's mtime as read under its lock) names one content
// version. Writers alternate two contents through WriteFile (one
// replace of an existing file) and through a handle (truncate, write),
// while readers collect (stamp, contents) pairs both from Memo's entries
// and from the inode under its read lock. No stamp may ever pair with
// two different contents. (With a writer publishing its tick after
// unlocking the inode, a reader pairs the new contents with the old
// stamp.)
func TestMemoOneVersionOneValue(t *testing.T) {
	fs := New("root")
	const path = "/f"
	contents := [2][]byte{[]byte(strings.Repeat("A", 64)), []byte(strings.Repeat("B", 96))}
	if err := fs.WriteFile(path, contents[0], 0o644, "root"); err != nil {
		t.Fatal(err)
	}
	fs.treeMu.RLock()
	n, _, _, err := fs.resolve(path, true, 0)
	fs.treeMu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	h, err := fs.OpenHandle(path)
	if err != nil {
		t.Fatal(err)
	}

	// The window the test hunts is a few instructions wide: this many
	// rounds find it in most runs on two CPUs.
	rounds := 50000
	if testing.Short() {
		rounds = 5000
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				c := contents[(i+w)%2]
				if w == 0 {
					if err := fs.WriteFile(path, c, 0o644, "root"); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if err := h.Truncate(0); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.WriteAt(c, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// The two contents and the empty file differ in length, so the
	// length stands for the contents.
	derive := func(data []byte) any { return len(data) }
	seen := make([]map[int64]int, 4)
	for r := range seen {
		seen[r] = map[int64]int{}
		readers.Add(1)
		go func(mine map[int64]int) {
			defer readers.Done()
			note := func(stamp int64, val int) {
				if prev, ok := mine[stamp]; ok && prev != val {
					t.Errorf("stamp %d maps to two contents (%d and %d bytes)", stamp, prev, val)
				}
				mine[stamp] = val
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := fs.MemoIn(Dir(path), Base(path), derive); err != nil {
					t.Error(err)
					return
				}
				m := n.memo.Load()
				note(m.mtime, m.val.(int))
				n.mu.RLock()
				stamp, val := n.mtime.Load(), len(n.data)
				n.mu.RUnlock()
				note(stamp, val)
			}
		}(seen[r])
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	all := map[int64]int{}
	for _, mine := range seen {
		for stamp, val := range mine {
			if prev, ok := all[stamp]; ok && prev != val {
				t.Errorf("stamp %d maps to two contents across readers (%d and %d bytes)", stamp, prev, val)
			}
			all[stamp] = val
		}
	}
	// Quiescent: the memo hands back exactly what is in the file.
	want, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.MemoIn(Dir(path), Base(path), derive); err != nil || got.(int) != len(want) {
		t.Fatalf("memo after the writers stopped = %v bytes, %v; file holds %d", got, err, len(want))
	}
}

// TestMemoFollowsTheInode covers what a path-keyed cache would get
// wrong: the value belongs to the inode, so renames and hard links
// carry it and a new file under an old name starts without one.
func TestMemoFollowsTheInode(t *testing.T) {
	fs := New("root")
	derives := 0
	derive := func(data []byte) any { derives++; return string(data) }
	memo := func(path, want string, wantDerives int) {
		t.Helper()
		got, err := fs.MemoIn(Dir(path), Base(path), derive)
		if err != nil || got.(string) != want || derives != wantDerives {
			t.Fatalf("MemoIn(%s, %s) = %v, %v after %d derives; want %q after %d",
				Dir(path), Base(path), got, err, derives, want, wantDerives)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir("/d", 0o755, "root"))
	must(fs.WriteFile("/d/f", []byte("one"), 0o644, "root"))
	memo("/d/f", "one", 1)
	memo("/d/f", "one", 1)
	must(fs.Rename("/d", "/e"))
	memo("/e/f", "one", 1)
	must(fs.Link("/e/f", "/g"))
	must(fs.Symlink("/e", "/s", "root"))
	memo("/g", "one", 1)
	memo("/s/f", "one", 1)
	_, err := fs.WriteAt("/g", []byte("two"), 0)
	must(err)
	memo("/s/f", "two", 2)
	memo("/e/f", "two", 2)
	must(fs.Unlink("/e/f"))
	must(fs.WriteFile("/e/f", []byte("two"), 0o644, "root")) // same name, same bytes, new inode
	memo("/e/f", "two", 3)
	memo("/g", "two", 3)
	must(fs.Symlink("f", "/e/link", "root")) // a symlinked entry is followed, relative to its directory
	memo("/s/link", "two", 3)
	must(fs.Symlink("nowhere", "/e/dangling", "root"))
	for _, c := range []struct {
		dir, name string
		want      error
	}{
		{"/", "e", ErrIsDir},
		{"/e", "missing", ErrNotExist},
		{"/e", "dangling", ErrNotExist},
		{"/missing", "f", ErrNotExist},
		{"/g", "f", ErrNotDir},
	} {
		if _, err := fs.MemoIn(c.dir, c.name, derive); err != c.want {
			t.Errorf("MemoIn(%s, %s) = %v, want %v", c.dir, c.name, err, c.want)
		}
	}
}

// --- reference definitions ----------------------------------------------
//
// The path helpers and resolve as they were defined before they learned
// to skip SplitPath on canonical input; the differential tests below
// hold the fast paths to them.

func refClean(path string) string { return "/" + strings.Join(SplitPath(path), "/") }

func refJoin(elem ...string) string { return refClean(strings.Join(elem, "/")) }

func refDir(path string) string {
	parts := SplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}

func refBase(path string) string {
	parts := SplitPath(path)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

func (fs *FS) refResolve(path string, followLast bool, depth int) (node, parent *Inode, base string, err error) {
	if depth > maxSymlinks {
		return nil, nil, "", ErrLoop
	}
	parts := SplitPath(path)
	cur := fs.root
	var par *Inode
	for i, comp := range parts {
		if cur.ftype != TypeDir {
			return nil, nil, "", ErrNotDir
		}
		child, ok := cur.children[comp]
		if !ok {
			if i == len(parts)-1 {
				return nil, cur, comp, ErrNotExist
			}
			return nil, nil, "", ErrNotExist
		}
		last := i == len(parts)-1
		if child.ftype == TypeSymlink && (!last || followLast) {
			rest := strings.Join(parts[i+1:], "/")
			targ := child.target
			if !strings.HasPrefix(targ, "/") {
				targ = "/" + strings.Join(parts[:i], "/") + "/" + targ
			}
			if rest != "" {
				targ = targ + "/" + rest
			}
			return fs.refResolve(targ, followLast, depth+1)
		}
		par = cur
		cur = child
	}
	if len(parts) == 0 {
		return fs.root, nil, "", nil
	}
	return cur, par, parts[len(parts)-1], nil
}

// randomPath draws a path from a small alphabet rich in the cases that
// matter: "", ".", "..", doubled and trailing slashes, no leading slash.
func randomPath(rng *rand.Rand, names []string) string {
	var b strings.Builder
	if rng.Intn(8) != 0 {
		b.WriteByte('/')
	}
	for i, n := 0, rng.Intn(7); i < n; i++ {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(names[rng.Intn(len(names))])
	}
	if rng.Intn(6) == 0 {
		b.WriteByte('/')
	}
	return b.String()
}

func TestPathHelpersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20051112))
	names := []string{"a", "b", "cc", ".__acl", "x.y", "...", "..", ".", "", "a/b", "../a"}
	for i := 0; i < 20000; i++ {
		p, q := randomPath(rng, names), randomPath(rng, names)
		if got, want := Clean(p), refClean(p); got != want {
			t.Fatalf("Clean(%q) = %q, want %q", p, got, want)
		}
		if got, want := Dir(p), refDir(p); got != want {
			t.Fatalf("Dir(%q) = %q, want %q", p, got, want)
		}
		if got, want := Base(p), refBase(p); got != want {
			t.Fatalf("Base(%q) = %q, want %q", p, got, want)
		}
		rel := strings.TrimPrefix(q, "/")
		for _, elems := range [][]string{{p, q}, {p, rel}, {Clean(p), rel}, {p}, {p, q, rel}, nil} {
			if got, want := Join(elems...), refJoin(elems...); got != want {
				t.Fatalf("Join(%q) = %q, want %q", elems, got, want)
			}
		}
	}
}

func TestResolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fs := New("root")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/a/b/cc", 0o755, "root"))
	must(fs.MkdirAll("/b/a", 0o755, "root"))
	must(fs.WriteFile("/a/b/cc/f", []byte("x"), 0o644, "root"))
	must(fs.WriteFile("/a/f", []byte("y"), 0o644, "root"))
	must(fs.Symlink("/a/b", "/abs", "root"))          // absolute, to a directory
	must(fs.Symlink("b/cc", "/a/rel", "root"))        // relative, mid-path or last
	must(fs.Symlink("../b/./a//", "/a/up", "root"))   // relative, unclean
	must(fs.Symlink("cc/f", "/a/b/tofile", "root"))   // to a regular file
	must(fs.Symlink("/nowhere/x", "/dangle", "root")) // dangling
	must(fs.Symlink("", "/a/empty", "root"))          // empty target
	must(fs.Symlink("/loop2", "/loop1", "root"))
	must(fs.Symlink("/loop1", "/loop2", "root"))
	// A chain one link longer than the walk follows, and one it just
	// manages: /chain0 -> /chain1 -> ... -> /a.
	const chain = maxSymlinks + 2
	for i := 0; i < chain; i++ {
		target := fmt.Sprintf("/chain%d", i+1)
		if i == chain-1 {
			target = "/a"
		}
		must(fs.Symlink(target, fmt.Sprintf("/chain%d", i), "root"))
	}
	names := []string{"a", "b", "cc", "f", "abs", "rel", "up", "tofile", "dangle", "empty",
		"loop1", "chain0", "chain1", "chain2", "chain3", "missing", "..", ".", ""}
	fs.treeMu.RLock()
	defer fs.treeMu.RUnlock()
	for i := 0; i < 40000; i++ {
		p := randomPath(rng, names)
		for _, follow := range []bool{true, false} {
			n1, p1, b1, e1 := fs.resolve(p, follow, 0)
			n2, p2, b2, e2 := fs.refResolve(p, follow, 0)
			if n1 != n2 || p1 != p2 || b1 != b2 || e1 != e2 {
				t.Fatalf("resolve(%q, follow=%v) = (%p, %p, %q, %v), reference (%p, %p, %q, %v)",
					p, follow, n1, p1, b1, e1, n2, p2, b2, e2)
			}
		}
	}
}

// TestPathWalkAllocatesNothing pins the zero: a canonical path is never
// re-split, and a memo hit is two atomic loads after the walk.
func TestPathWalkAllocatesNothing(t *testing.T) {
	fs := New("root")
	if err := fs.MkdirAll("/a/b/c", 0o755, "root"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/f", []byte("x"), 0o644, "root"); err != nil {
		t.Fatal(err)
	}
	const path = "/a/b/c/f"
	derive := func(data []byte) any { return len(data) }
	var sink int
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Stat", func() { st, _ := fs.Stat(path); sink += int(st.Size) }},
		{"Lstat", func() { st, _ := fs.Lstat(path); sink += int(st.Size) }},
		{"Clean", func() { sink += len(Clean(path)) }},
		{"Dir", func() { sink += len(Dir(path)) }},
		{"Base", func() { sink += len(Base(path)) }},
		{"MemoIn hit", func() { v, _ := fs.MemoIn("/a/b/c", "f", derive); sink += v.(int) }},
	} {
		c.fn() // warm: the first MemoIn call is the miss
		if got := testing.AllocsPerRun(100, c.fn); got != 0 {
			t.Errorf("%s on a canonical path: %v allocs/op, want 0", c.name, got)
		}
	}
	_ = sink
}
