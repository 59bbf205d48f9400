package vfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// capturingJournal retains copies of every mutation (Data is copied, as
// the Journal contract requires).
type capturingJournal struct {
	mu   sync.Mutex
	muts []Mutation
}

func (j *capturingJournal) RecordMutation(m Mutation) {
	j.mu.Lock()
	defer j.mu.Unlock()
	m.Data = append([]byte(nil), m.Data...)
	j.muts = append(j.muts, m)
}

func (j *capturingJournal) snapshot() []Mutation {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Mutation(nil), j.muts...)
}

func TestJournalRecordsEveryMutationKind(t *testing.T) {
	fs := New("root")
	j := &capturingJournal{}
	fs.SetJournal(j)

	if err := fs.Mkdir("/d", 0o755, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/d/f", 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteAt("/d/f", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate("/d/f", 3); err != nil {
		t.Fatal(err)
	}
	if err := fs.Symlink("f", "/d/s", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d/g", "/d/h"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chmod("/d/f", 0o600); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown("/d/f", "bob", "staff"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d/h"); err != nil {
		t.Fatal(err)
	}
	h, err := fs.OpenHandle("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("xy"), 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Truncate(2); err != nil {
		t.Fatal(err)
	}

	want := []MutOp{
		MutMkdir, MutCreate, MutWrite, MutTruncate, MutSymlink, MutLink,
		MutRename, MutChmod, MutChown, MutUnlink, MutWrite, MutTruncate,
	}
	got := j.snapshot()
	if len(got) != len(want) {
		t.Fatalf("recorded %d mutations, want %d: %+v", len(got), len(want), got)
	}
	for i, op := range want {
		if got[i].Op != op {
			t.Errorf("mutation %d = %v, want %v", i, got[i].Op, op)
		}
	}
	if string(got[2].Data) != "hello" || got[2].Path != "/d/f" {
		t.Errorf("write record = %+v", got[2])
	}
	if got[10].Path != "/d/f" || string(got[10].Data) != "xy" || got[10].Off != 1 {
		t.Errorf("handle write record = %+v", got[10])
	}
	if got[6].Path != "/d/g" || got[6].Path2 != "/d/h" {
		t.Errorf("rename record = %+v", got[6])
	}
}

// TestWholeFileWriteIsOneRecord pins the journal shape of the
// whole-file steps. WriteFile is one MutCreate carrying its bytes, for
// a new file and over an existing one, so a reader never meets the file
// empty in between. An O_CREAT|O_TRUNC open journals one record:
// MutCreate for a missing file, MutTruncate for an existing one. A
// read-only open journals nothing and does not wait for the journal
// lock. A directory made with its file (the ACL) is one MutMkdir
// carrying the file's name and bytes, and one removed with its lone
// file is one MutRmdir naming it; an rmdir that finds more refuses and
// journals nothing.
func TestWholeFileWriteIsOneRecord(t *testing.T) {
	fs := New("root")
	j := &capturingJournal{}
	fs.SetJournal(j)
	seen := 0
	since := func() []Mutation { // what was journaled since the last call
		all := j.snapshot()
		defer func() { seen = len(all) }()
		return all[seen:]
	}
	expect := func(what string, want ...Mutation) {
		t.Helper()
		got := since()
		if len(got) != len(want) {
			t.Fatalf("%s journaled %d records, want %d: %+v", what, len(got), len(want), got)
		}
		for i, w := range want {
			g := got[i]
			if g.Op != w.Op || g.Path != w.Path || g.Path2 != w.Path2 || string(g.Data) != string(w.Data) || g.Size != w.Size {
				t.Errorf("%s record %d = %v %q %q data %q size %d, want %v %q %q data %q size %d",
					what, i, g.Op, g.Path, g.Path2, g.Data, g.Size, w.Op, w.Path, w.Path2, w.Data, w.Size)
			}
		}
	}

	data := []byte("unix:alice rwlax\n")
	if err := fs.WriteFile("/acl", data, 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	expect("WriteFile of a new file", Mutation{Op: MutCreate, Path: "/acl", Data: []byte("unix:alice rwlax\n")})
	data[0] = 'X' // the file holds its own copy
	if got, _ := fs.ReadFile("/acl"); string(got) != "unix:alice rwlax\n" {
		t.Fatalf("file changed with the caller's buffer: %q", got)
	}
	if err := fs.WriteFile("/acl", []byte("unix:bob rl\n"), 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	expect("WriteFile over an existing file", Mutation{Op: MutCreate, Path: "/acl", Data: []byte("unix:bob rl\n")})

	h, err := fs.OpenFile("/f", OWronly|OCreat|OTrunc, 0o644, "alice")
	if err != nil {
		t.Fatal(err)
	}
	expect("O_CREAT|O_TRUNC of a missing file", Mutation{Op: MutCreate, Path: "/f"})
	if _, err := h.WriteAt([]byte("bytes"), 0); err != nil {
		t.Fatal(err)
	}
	since()
	if _, err := fs.OpenFile("/f", OWronly|OCreat|OTrunc, 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	expect("O_CREAT|O_TRUNC of an existing file", Mutation{Op: MutTruncate, Path: "/f"})
	if st, _ := fs.Stat("/f"); st.Size != 0 {
		t.Fatalf("O_TRUNC left %d bytes", st.Size)
	}

	if err := fs.MkdirWithFile("/d", 0o755, "alice", ".__acl", data); err != nil {
		t.Fatal(err)
	}
	expect("MkdirWithFile", Mutation{Op: MutMkdir, Path: "/d", Path2: ".__acl", Data: data})
	if got, err := fs.ReadFile("/d/.__acl"); err != nil || string(got) != string(data) {
		t.Fatalf("MkdirWithFile's file = %q, %v", got, err)
	}
	if err := fs.WriteFile("/d/other", nil, 0o644, "alice"); err != nil {
		t.Fatal(err)
	}
	since()
	if n, err := fs.RmdirWithFile("/d", ".__acl"); !errors.Is(err, ErrNotEmpty) || n != 2 {
		t.Fatalf("RmdirWithFile of a directory holding more = %d, %v; want 2, ErrNotEmpty", n, err)
	}
	expect("a refused RmdirWithFile")
	if !fs.Exists("/d/.__acl") {
		t.Fatal("a refused RmdirWithFile removed the file")
	}
	if err := fs.Unlink("/d/other"); err != nil {
		t.Fatal(err)
	}
	since()
	if n, err := fs.RmdirWithFile("/d", ".__acl"); err != nil || n != 1 {
		t.Fatalf("RmdirWithFile of a directory holding only its file = %d, %v", n, err)
	}
	expect("RmdirWithFile", Mutation{Op: MutRmdir, Path: "/d", Path2: ".__acl"})
	if fs.Exists("/d") {
		t.Fatal("RmdirWithFile left the directory")
	}

	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go fs.Quiesce(func() error { close(held); <-release; return nil }) // holds the journal lock
	<-held
	opened := make(chan error, 1)
	go func() {
		_, err := fs.OpenFile("/acl", ORdonly, 0, "")
		opened <- err
	}()
	select {
	case err := <-opened:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a read-only open waited for the journal lock")
	}
	expect("O_RDONLY")
}

func TestJournalSkipsFailedMutations(t *testing.T) {
	fs := New("root")
	j := &capturingJournal{}
	fs.SetJournal(j)

	if err := fs.Mkdir("/missing/deep", 0o755, "a"); err == nil {
		t.Fatal("mkdir under missing parent should fail")
	}
	if _, err := fs.WriteAt("/nope", []byte("x"), 0); err == nil {
		t.Fatal("write to missing file should fail")
	}
	if err := fs.Unlink("/nope"); err == nil {
		t.Fatal("unlink of missing file should fail")
	}
	if got := j.snapshot(); len(got) != 0 {
		t.Fatalf("failed mutations were journaled: %+v", got)
	}
}

// TestJournalOrderUnderConcurrency drives concurrent writers and checks
// that replaying the journal onto a fresh FS reproduces the final state
// byte for byte — the property the durable WAL depends on.
func TestJournalOrderUnderConcurrency(t *testing.T) {
	fs := New("root")
	j := &capturingJournal{}
	fs.SetJournal(j)
	if err := fs.Mkdir("/d", 0o755, "a"); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const writes = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/d/f%d", w%3) // deliberate overlap
			for i := 0; i < writes; i++ {
				if _, err := fs.Create(path, 0o644, "a"); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.WriteAt(path, []byte(fmt.Sprintf("w%d i%d", w, i)), int64(i%7)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	replayed := New("root")
	for _, m := range j.snapshot() {
		var err error
		switch m.Op {
		case MutMkdir:
			err = replayed.Mkdir(m.Path, m.Mode, m.Owner)
		case MutCreate:
			_, err = replayed.Create(m.Path, m.Mode, m.Owner)
		case MutWrite:
			_, err = replayed.WriteAt(m.Path, m.Data, m.Off)
		default:
			t.Fatalf("unexpected op %v", m.Op)
		}
		if err != nil {
			t.Fatalf("replaying %+v: %v", m, err)
		}
	}
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("/d/f%d", i)
		a, err1 := fs.ReadFile(path)
		b, err2 := replayed.ReadFile(path)
		if err1 != nil || err2 != nil {
			t.Fatalf("reading %s: %v, %v", path, err1, err2)
		}
		if string(a) != string(b) {
			t.Errorf("%s diverged: live %q, replay %q", path, a, b)
		}
	}
}

// TestQuiesceExcludesMutations checks that a mutation started after
// Quiesce begins cannot commit until it returns.
func TestQuiesceExcludesMutations(t *testing.T) {
	fs := New("root")
	j := &capturingJournal{}
	fs.SetJournal(j)

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		fs.Quiesce(func() error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	go func() {
		fs.Mkdir("/late", 0o755, "a")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("mutation committed while quiesced")
	case <-time.After(20 * time.Millisecond):
		// Still blocked: the expected outcome.
	}
	close(release)
	<-done
	if !fs.Exists("/late") {
		t.Fatal("mutation lost after quiesce released")
	}
}
