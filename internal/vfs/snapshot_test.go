package vfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func buildSample(t *testing.T) *FS {
	t.Helper()
	fs := New("owner")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.MkdirAll("/a/b", 0o750, "alice"))
	must(fs.WriteFile("/a/file.txt", []byte("contents"), 0o640, "alice"))
	must(fs.Link("/a/file.txt", "/a/b/hard"))
	must(fs.Symlink("../file.txt", "/a/b/soft", "alice"))
	must(fs.WriteFile("/top", bytes.Repeat([]byte("x"), 10000), 0o600, "bob"))
	must(fs.Chown("/a", "alice", "staff"))
	return fs
}

func roundTrip(t *testing.T, fs *FS) *FS {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fs2
}

func TestSnapshotRoundTripContent(t *testing.T) {
	fs := buildSample(t)
	fs2 := roundTrip(t, fs)

	data, err := fs2.ReadFile("/a/file.txt")
	if err != nil || string(data) != "contents" {
		t.Fatalf("file = %q, %v", data, err)
	}
	big, err := fs2.ReadFile("/top")
	if err != nil || len(big) != 10000 {
		t.Fatalf("big file = %d bytes, %v", len(big), err)
	}
	st, err := fs2.Stat("/a")
	if err != nil || st.Owner != "alice" || st.Group != "staff" || st.Mode != 0o750 {
		t.Fatalf("dir metadata = %+v, %v", st, err)
	}
	fst, _ := fs2.Stat("/a/file.txt")
	if fst.Mode != 0o640 || fst.Owner != "alice" {
		t.Fatalf("file metadata = %+v", fst)
	}
}

func TestSnapshotPreservesHardLinks(t *testing.T) {
	fs := buildSample(t)
	fs2 := roundTrip(t, fs)
	a, _ := fs2.Stat("/a/file.txt")
	b, _ := fs2.Stat("/a/b/hard")
	if a.Ino != b.Ino {
		t.Fatal("hard link sharing lost across snapshot")
	}
	if a.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", a.Nlink)
	}
	// Writes through one name appear through the other.
	if _, err := fs2.WriteAt("/a/b/hard", []byte("CON"), 0); err != nil {
		t.Fatal(err)
	}
	data, _ := fs2.ReadFile("/a/file.txt")
	if string(data) != "CONtents" {
		t.Fatalf("shared write lost: %q", data)
	}
}

func TestSnapshotPreservesSymlinks(t *testing.T) {
	fs := buildSample(t)
	fs2 := roundTrip(t, fs)
	target, err := fs2.Readlink("/a/b/soft")
	if err != nil || target != "../file.txt" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
	data, err := fs2.ReadFile("/a/b/soft")
	if err != nil || string(data) != "contents" {
		t.Fatalf("through-link read = %q, %v", data, err)
	}
}

func TestSnapshotDirNlink(t *testing.T) {
	fs := buildSample(t)
	fs2 := roundTrip(t, fs)
	orig, _ := fs.Stat("/a")
	got, _ := fs2.Stat("/a")
	if got.Nlink != orig.Nlink {
		t.Fatalf("dir nlink = %d, want %d", got.Nlink, orig.Nlink)
	}
	rootO, _ := fs.Stat("/")
	rootG, _ := fs2.Stat("/")
	if rootG.Nlink != rootO.Nlink {
		t.Fatalf("root nlink = %d, want %d", rootG.Nlink, rootO.Nlink)
	}
}

func TestSnapshotMutableAfterLoad(t *testing.T) {
	fs := buildSample(t)
	fs2 := roundTrip(t, fs)
	if err := fs2.WriteFile("/a/new.txt", []byte("post-restore"), 0o644, "carol"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Rename("/a/new.txt", "/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := fs2.Unlink("/renamed"); err != nil {
		t.Fatal(err)
	}
	// The original is untouched by mutations of the copy.
	if fs.Exists("/a/new.txt") || fs.Exists("/renamed") {
		t.Fatal("snapshot shares state with the original")
	}
}

func TestSnapshotRandomTreeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	fs := New("u")
	dirs := []string{"/"}
	type file struct {
		path string
		data []byte
	}
	var files []file
	for i := 0; i < 200; i++ {
		parent := dirs[r.Intn(len(dirs))]
		name := string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26)))
		p := Join(parent, name)
		if fs.Exists(p) {
			continue
		}
		switch r.Intn(3) {
		case 0:
			if err := fs.Mkdir(p, 0o755, "u"); err == nil {
				dirs = append(dirs, p)
			}
		case 1:
			data := make([]byte, r.Intn(200))
			r.Read(data)
			if err := fs.WriteFile(p, data, 0o644, "u"); err == nil {
				files = append(files, file{p, data})
			}
		case 2:
			if len(files) > 0 {
				fs.Link(files[r.Intn(len(files))].path, p)
			}
		}
	}
	fs2 := roundTrip(t, fs)
	if got, want := fs2.TotalInodes(), fs.TotalInodes(); got != want {
		t.Fatalf("inodes = %d, want %d", got, want)
	}
	for _, f := range files {
		got, err := fs2.ReadFile(f.path)
		if err != nil || !bytes.Equal(got, f.data) {
			t.Fatalf("file %s mismatch: %v", f.path, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsTruncatedSnapshot(t *testing.T) {
	fs := buildSample(t)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	half := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestRestoreUnderConcurrentReaders swaps whole trees under readers:
// every listing and every read through a two-level path sees the old
// tree or the new one, never a mix, and the clock never moves back.
func TestRestoreUnderConcurrentReaders(t *testing.T) {
	image := func(gen string) []byte {
		fs := New("owner")
		if err := fs.MkdirAll("/d/e", 0o755, "owner"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/%s-%d", gen, i), []byte(gen), 0o644, "owner"); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteFile("/d/e/f", []byte(gen), 0o644, "owner"); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fs.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	images := map[string][]byte{"old": image("old"), "new": image("new")}
	fs, err := Load(bytes.NewReader(images["old"]))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ents, err := fs.ReadDir("/")
				if err != nil {
					t.Error(err)
					return
				}
				gen := ""
				for _, e := range ents {
					if e.Name == "d" {
						continue
					}
					g, _, _ := strings.Cut(e.Name, "-")
					if gen != "" && g != gen {
						t.Errorf("one listing mixes trees: %v", ents)
						return
					}
					gen = g
				}
				if len(ents) != 9 {
					t.Errorf("listing has %d entries, want 9: %v", len(ents), ents)
					return
				}
				if data, err := fs.ReadFile("/d/e/f"); err != nil || (string(data) != "old" && string(data) != "new") {
					t.Errorf("read through the swap = %q, %v", data, err)
					return
				}
			}
		}()
	}
	clock := fs.clock.Load()
	for i := 0; i < 200; i++ {
		gen := "new"
		if i%2 == 1 {
			gen = "old"
		}
		from, err := Load(bytes.NewReader(images[gen]))
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			// The live tree is the old one on even rounds. A write ticks
			// its clock past both images', so the restore below must keep
			// the live clock rather than take the image's.
			if err := fs.WriteFile("/d/e/f", []byte("old"), 0o644, "owner"); err != nil {
				t.Fatal(err)
			}
		}
		fs.Restore(from)
		if now := fs.clock.Load(); now < clock {
			t.Fatalf("clock moved back from %d to %d", clock, now)
		}
		clock = fs.clock.Load()
	}
	close(stop)
	wg.Wait()
	if data, err := fs.ReadFile("/old-3"); err != nil || string(data) != "old" {
		t.Fatalf("after the last restore /old-3 = %q, %v", data, err)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the image decoder: it
// never panics, and an image it accepts rebuilds a tree and metadata
// that encode and decode again to an equal tree and metadata.
func FuzzSnapshotDecode(f *testing.F) {
	meta := ImageMeta{LSN: 42, Epoch: 3, Dedupe: map[string][]string{
		"alice\x00tok1": {"ok", "7"},
		"bob\x00tok2":   {"ok"},
		"carol\x00tok3": {},
	}}
	// A small tree keeps minimizing a new input quick.
	fs := New("root")
	for _, err := range []error{
		fs.MkdirAll("/a/b", 0o750, "alice"),
		fs.WriteFile("/a/f", []byte("contents"), 0o640, "alice"),
		fs.WriteFile("/a/.__acl", []byte("unix:alice rwlax\n"), 0o600, "alice"),
		fs.Link("/a/f", "/a/b/hard"),
		fs.Symlink("../f", "/a/b/soft", "alice"),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	var img, empty bytes.Buffer
	if _, err := fs.WriteImage(&img, meta); err != nil {
		f.Fatal(err)
	}
	if err := New("u").Save(&empty); err != nil {
		f.Fatal(err)
	}
	seed := img.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(empty.Bytes())
	f.Add([]byte(imageMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkImageRoundTrip(t, data)
		// Nearly every mutation breaks the checksum; the same bytes
		// resealed with a correct trailer reach the structural decoder.
		if len(data) >= 4 {
			body := data[:len(data)-4]
			checkImageRoundTrip(t, binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body)))
		}
	})
}

func checkImageRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	fs, meta, err := ReadImage(data)
	if err != nil {
		return
	}
	var again bytes.Buffer
	if _, err := fs.WriteImage(&again, meta); err != nil {
		t.Fatal(err)
	}
	fs2, meta2, err := ReadImage(again.Bytes())
	if err != nil {
		t.Fatalf("re-encoded image refused: %v", err)
	}
	if err := sameTree(fs, fs2); err != nil {
		t.Fatal(err)
	}
	if meta.LSN != meta2.LSN || meta.Epoch != meta2.Epoch || !reflect.DeepEqual(meta.Dedupe, meta2.Dedupe) {
		t.Fatalf("metadata changed in a round trip: %+v -> %+v", meta, meta2)
	}
}

// sameTree reports the first difference between two file systems: the
// clock, or, inode by inode, type, mode, owner, group, mtime, link
// count, data, target or entries, with hard links paired one to one.
func sameTree(a, b *FS) error {
	if ca, cb := a.clock.Load(), b.clock.Load(); ca != cb {
		return fmt.Errorf("clock %d != %d", ca, cb)
	}
	fwd, back := map[*Inode]*Inode{}, map[*Inode]*Inode{}
	var walk func(path string, x, y *Inode) error
	walk = func(path string, x, y *Inode) error {
		if px, py := fwd[x], back[y]; px != nil || py != nil {
			if px != y || py != x {
				return fmt.Errorf("%s: hard links differ", path)
			}
			return nil
		}
		fwd[x], back[y] = y, x
		if x.ftype != y.ftype || x.mode != y.mode || x.owner != y.owner || x.group != y.group ||
			x.mtime.Load() != y.mtime.Load() || x.nlink != y.nlink || !bytes.Equal(x.data, y.data) ||
			x.target != y.target || len(x.children) != len(y.children) {
			return fmt.Errorf("%s: inodes differ", path)
		}
		for name, xc := range x.children {
			yc, ok := y.children[name]
			if !ok {
				return fmt.Errorf("%s/%s: missing", path, name)
			}
			if err := walk(path+"/"+name, xc, yc); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", a.root, b.root)
}
