package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// A reference-model property test: the VFS is driven with a random
// operation sequence mirrored against a trivial model (flat maps of
// paths), and the externally observable state must agree after every
// step. Symlinks and hard links are exercised separately; this model
// covers the plain-file/directory algebra exhaustively.

type refModel struct {
	files map[string][]byte
	dirs  map[string]bool
}

func newRefModel() *refModel {
	return &refModel{files: map[string][]byte{}, dirs: map[string]bool{"/": true}}
}

func (m *refModel) parentExists(p string) bool { return m.dirs[Dir(p)] }

func (m *refModel) exists(p string) bool {
	if m.dirs[p] {
		return true
	}
	_, ok := m.files[p]
	return ok
}

func (m *refModel) childrenOf(d string) []string {
	prefix := d
	if prefix != "/" {
		prefix += "/"
	}
	var out []string
	seen := map[string]bool{}
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			rest := p[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			if !seen[rest] {
				seen[rest] = true
				out = append(out, rest)
			}
		}
	}
	for p := range m.dirs {
		if p != "/" && strings.HasPrefix(p, prefix) {
			rest := p[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			if !seen[rest] {
				seen[rest] = true
				out = append(out, rest)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (m *refModel) mkdir(p string) bool {
	if m.exists(p) || !m.parentExists(p) {
		return false
	}
	m.dirs[p] = true
	return true
}

func (m *refModel) write(p string, data []byte) bool {
	if m.dirs[p] || !m.parentExists(p) {
		return false
	}
	m.files[p] = append([]byte(nil), data...)
	return true
}

func (m *refModel) unlink(p string) bool {
	if _, ok := m.files[p]; !ok {
		return false
	}
	delete(m.files, p)
	return true
}

func (m *refModel) rmdir(p string) bool {
	if p == "/" || !m.dirs[p] {
		return false
	}
	if len(m.childrenOf(p)) > 0 {
		return false
	}
	delete(m.dirs, p)
	return true
}

// rmdirWithFile is rmdir for a directory that may still hold one file
// called name, which goes with it.
func (m *refModel) rmdirWithFile(p, name string) bool {
	f := Join(p, name)
	if kids := m.childrenOf(p); m.dirs[p] && len(kids) == 1 && kids[0] == name && !m.dirs[f] {
		delete(m.files, f)
	}
	return m.rmdir(p)
}

func (m *refModel) renameFile(a, b string) bool {
	data, ok := m.files[a]
	if a == b {
		// POSIX: renaming a file onto itself succeeds as a no-op.
		return ok
	}
	if !ok || m.dirs[b] || !m.parentExists(b) {
		return false
	}
	delete(m.files, a)
	m.files[b] = data
	return true
}

func TestVFSAgainstReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	fs := New("u")
	model := newRefModel()

	// A small, collision-prone name space keeps operations interacting.
	names := []string{"a", "b", "c", "d"}
	randPath := func() string {
		depth := 1 + r.Intn(3)
		parts := make([]string, depth)
		for i := range parts {
			parts[i] = names[r.Intn(len(names))]
		}
		return "/" + strings.Join(parts, "/")
	}

	for step := 0; step < 4000; step++ {
		p := randPath()
		switch r.Intn(5) {
		case 0: // mkdir, half the time with a file named like any other entry
			var err error
			wantOK := model.mkdir(p)
			if name := names[r.Intn(len(names))]; r.Intn(2) == 0 {
				err = fs.Mkdir(p, 0o755, "u")
			} else {
				data := []byte(fmt.Sprintf("step-%d", step))
				err = fs.MkdirWithFile(p, 0o755, "u", name, data)
				if wantOK {
					model.write(Join(p, name), data)
				}
			}
			if (err == nil) != wantOK {
				t.Fatalf("step %d: mkdir %s: fs err=%v, model ok=%v", step, p, err, wantOK)
			}
		case 1: // write
			data := []byte(fmt.Sprintf("step-%d", step))
			wantOK := model.write(p, data)
			err := fs.WriteFile(p, data, 0o644, "u")
			if (err == nil) != wantOK {
				t.Fatalf("step %d: write %s: fs err=%v, model ok=%v", step, p, err, wantOK)
			}
		case 2: // unlink
			wantOK := model.unlink(p)
			err := fs.Unlink(p)
			if (err == nil) != wantOK {
				t.Fatalf("step %d: unlink %s: fs err=%v, model ok=%v", step, p, err, wantOK)
			}
		case 3: // rmdir, half the time of a directory that may hold one named file
			var err error
			wantOK := false
			if name := names[r.Intn(len(names))]; r.Intn(2) == 0 {
				wantOK = model.rmdir(p)
				err = fs.Rmdir(p)
			} else {
				wantOK = model.rmdirWithFile(p, name)
				_, err = fs.RmdirWithFile(p, name)
			}
			if (err == nil) != wantOK {
				t.Fatalf("step %d: rmdir %s: fs err=%v, model ok=%v", step, p, err, wantOK)
			}
		case 4: // rename file
			q := randPath()
			// Only attempt when the source is a plain file; directory
			// renames have richer semantics the flat model does not
			// capture.
			if _, isFile := model.files[p]; !isFile {
				continue
			}
			wantOK := model.renameFile(p, q)
			err := fs.Rename(p, q)
			if (err == nil) != wantOK {
				t.Fatalf("step %d: rename %s %s: fs err=%v, model ok=%v", step, p, q, err, wantOK)
			}
		}

		// Spot-check observable agreement.
		probe := randPath()
		if model.exists(probe) != fs.Exists(probe) {
			t.Fatalf("step %d: exists(%s): model %v, fs %v", step, probe, model.exists(probe), fs.Exists(probe))
		}
		if data, ok := model.files[probe]; ok {
			got, err := fs.ReadFile(probe)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("step %d: content of %s: %q vs %q (%v)", step, probe, got, data, err)
			}
		}
		if model.dirs[probe] {
			ents, err := fs.ReadDir(probe)
			if err != nil {
				t.Fatalf("step %d: readdir %s: %v", step, probe, err)
			}
			want := model.childrenOf(probe)
			if len(ents) != len(want) {
				t.Fatalf("step %d: readdir %s: %d entries, model %d (%v)", step, probe, len(ents), len(want), want)
			}
			for i := range want {
				if ents[i].Name != want[i] {
					t.Fatalf("step %d: readdir %s: entry %d = %q, want %q", step, probe, i, ents[i].Name, want[i])
				}
			}
		}
	}
}
