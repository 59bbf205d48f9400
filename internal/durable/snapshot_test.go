package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestCorruptSnapshotRefused: snapshot.img ends in a CRC32 of the whole
// image, so one flipped bit in a file's data or in an ACL file's data, a
// truncated image, or an image in the gob encoding of earlier releases
// fails Open with an error naming the file, instead of loading whatever
// the damage left. A follower handed a corrupt bootstrap image keeps its
// tree, dedupe table and applied LSN.
func TestCorruptSnapshotRefused(t *testing.T) {
	const (
		data    = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
		aclText = "unix:alice rwlax\nhostname:* rl\n"
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s := openStore(t, dir, Options{Owner: "alice"})
	fs := s.FS()
	must(fs.MkdirAll("/home/alice", 0o755, "alice"))
	must(fs.WriteFile("/home/alice/notes", []byte(data), 0o644, "alice"))
	must(fs.WriteFile("/home/alice/.__acl", []byte(aclText), 0o644, "alice"))
	must(s.AppendDedupe("alice\x00tok1", []string{"ok", "1"}))
	must(s.Compact())
	must(s.Close())
	img, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	must(err)
	gobImg, err := os.ReadFile(filepath.Join("testdata", "gob_snapshot.img"))
	must(err)

	// flipIn flips the low bit of the middle byte of marker, which must
	// occur in the image exactly once.
	flipIn := func(marker string) []byte {
		t.Helper()
		i := bytes.Index(img, []byte(marker))
		if i < 0 || bytes.LastIndex(img, []byte(marker)) != i {
			t.Fatalf("%q is not in the image exactly once", marker)
		}
		out := bytes.Clone(img)
		out[i+len(marker)/2] ^= 1
		return out
	}
	for _, c := range []struct {
		name  string
		image []byte
		want  string
	}{
		{"file data bit", flipIn(data), "checksum"},
		{"acl data bit", flipIn(aclText), "checksum"},
		{"truncated", img[:len(img)/2], "checksum"},
		{"gob-era image", gobImg, "gob"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := t.TempDir()
			must(os.WriteFile(filepath.Join(d, SnapshotName), c.image, 0o644))
			s, err := Open(d, Options{})
			if err == nil {
				got, _ := s.FS().ReadFile("/home/alice/notes")
				s.Close()
				t.Fatalf("Open loaded the damaged image (notes = %q)", got)
			}
			if !strings.Contains(err.Error(), SnapshotName) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Open error %q does not name %s and %q", err, SnapshotName, c.want)
			}
		})
	}

	t.Run("replica bootstrap blob", func(t *testing.T) {
		p := openTestPrimary(t)
		p.writeFiles(t, 3)
		must(p.AppendDedupe("bob\x00tok", []string{"ok", "2"}))
		f := openStore(t, t.TempDir(), Options{ReplicaMode: true})
		defer f.Close()
		applyAll(t, f, p.log.since(0))
		p.writeFiles(t, 2)
		blob, _, _, err := p.ReplSnapshot()
		must(err)

		tree, dedupe, applied := dumpFS(t, f.FS()), f.DedupeEntries(), f.AppliedLSN()
		flipped := bytes.Clone(blob)
		flipped[len(flipped)/2] ^= 1
		for name, bad := range map[string][]byte{"flipped": flipped, "truncated": blob[:len(blob)-1]} {
			if err := f.LoadReplicaSnapshot(bad); err == nil {
				t.Fatalf("%s blob loaded", name)
			}
			if got := dumpFS(t, f.FS()); got != tree {
				t.Fatalf("%s blob changed the follower's tree:\n%s\nwant\n%s", name, got, tree)
			}
			if got := f.DedupeEntries(); !reflect.DeepEqual(got, dedupe) {
				t.Fatalf("%s blob changed the dedupe table: %v, want %v", name, got, dedupe)
			}
			if got := f.AppliedLSN(); got != applied {
				t.Fatalf("%s blob moved the applied lsn to %d, want %d", name, got, applied)
			}
		}
		must(f.LoadReplicaSnapshot(blob))
		if got, want := dumpFS(t, f.FS()), dumpFS(t, p.FS()); got != want {
			t.Fatalf("intact blob: follower tree\n%s\nwant\n%s", got, want)
		}
	})
}

// BenchmarkCompact times one compaction of a tree shaped like the
// durable_write workload's: 64 directories of 32 × 4 KiB files with an
// ACL file each, 1 024 empty directories and 300 dedupe entries, about
// 3 200 inodes and 8.1 MiB of data. Its allocs/op is gated: the image
// streams from the inodes through one buffer, so a compaction allocates
// a fixed handful of objects however many inodes the tree holds.
func BenchmarkCompact(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Owner: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	fs := s.FS()
	must := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("d"), 4<<10)
	for i := 0; i < 64; i++ {
		dir := fmt.Sprintf("/w%02d", i)
		must(fs.Mkdir(dir, 0o755, "bench"))
		must(fs.WriteFile(dir+"/.__acl", []byte("unix:bench rwlax\nhostname:* rl\n"), 0o644, "bench"))
		for j := 0; j < 32; j++ {
			must(fs.WriteFile(fmt.Sprintf("%s/f%02d", dir, j), data, 0o644, "bench"))
		}
	}
	for i := 0; i < 1024; i++ {
		must(fs.Mkdir(fmt.Sprintf("/e%04d", i), 0o755, "bench"))
	}
	for i := 0; i < 300; i++ {
		must(s.AppendDedupe("bench\x00tok"+strconv.Itoa(i), []string{"ok", strconv.Itoa(i)}))
	}
	must(s.Compact())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(s.Compact())
	}
}
