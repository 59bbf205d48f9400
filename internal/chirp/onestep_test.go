package chirp

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// A checked request decides and acts in one vfs step, so nothing lands
// between its check and its act. The tests here race what could land
// there against the request, many times, and judge every outcome.

// raceAttempts and raceBudget bound one racing phase: it ends after
// this many attempts or this long, whichever comes first.
const (
	raceAttempts = 2000
	raceBudget   = 2 * time.Second
)

// TestSymlinkRetargetNeverCrossesACL: bob retargets a symlink he owns
// between his own file and a file in a directory whose ACL refuses
// him, on one session, while a second session of his reads, stats and
// writes through it. Every request decides on the target its step
// reaches, so he never reads the refused file's bytes or metadata and
// never changes it.
func TestSymlinkRetargetNeverCrossesACL(t *testing.T) {
	const (
		secret = "the refused file's bytes"
		mine   = "bob's own file"
	)
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		fs := k.FS()
		admin := unixClient(t, srv, "admin", win)
		for _, step := range []error{
			admin.Mkdir("/secret", 0o755),
			admin.SetACL("/secret", "unix:admin rwlax\n"),
			admin.PutFile("/secret/s", []byte(secret), 0o644),
			admin.Mkdir("/freds", 0o755),
			admin.SetACL("/freds", "unix:admin rwlax\nunix:bob rwl\n"),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
		before, err := fs.Stat("/secret/s")
		if err != nil {
			t.Fatal(err)
		}
		retargeter := unixClient(t, srv, "bob", win)
		bob := unixClient(t, srv, "bob", win)
		if err := bob.PutFile("/freds/ok", []byte(mine), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := bob.Symlink("/freds/ok", "/freds/link"); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // retarget by renaming a fresh link over the old
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				target := "/freds/ok"
				if i%2 == 0 {
					target = "/secret/s"
				}
				if err := retargeter.Symlink(target, "/freds/next"); err != nil {
					t.Errorf("symlink: %v", err)
					return
				}
				if err := retargeter.Rename("/freds/next", "/freds/link"); err != nil {
					t.Errorf("rename: %v", err)
					return
				}
			}
		}()
		defer func() {
			close(stop)
			wg.Wait()
		}()

		// intact fails the test once the refused file has changed.
		intact := func(op string, n int) {
			t.Helper()
			st, err := fs.Stat("/secret/s")
			data, _ := fs.ReadFile("/secret/s")
			if err != nil || st.Mtime != before.Mtime || string(data) != secret {
				t.Fatalf("%s through the link changed the refused file after %d attempts: %q", op, n, data)
			}
		}
		leaked := func(data []byte) bool { return bytes.Contains(data, []byte(secret[:8])) }
		buf := make([]byte, 64)
		for _, c := range []struct {
			op      string
			attempt func() error // an error return is a leak
		}{
			{"getfile", func() error {
				if data, err := bob.GetFile("/freds/link"); err == nil && leaked(data) {
					return errors.New("read the refused file's bytes")
				}
				return nil
			}},
			{"open+pread", func() error {
				fd, err := bob.Open("/freds/link", kernel.ORdonly, 0)
				if err != nil {
					return nil
				}
				defer bob.CloseFD(fd)
				if n, err := bob.Pread(fd, buf, 0); err == nil && leaked(buf[:n]) {
					return errors.New("read the refused file's bytes")
				}
				return nil
			}},
			{"stat", func() error {
				if st, err := bob.Stat("/freds/link"); err == nil && st.Ino == before.Ino {
					return errors.New("read the refused file's metadata")
				}
				return nil
			}},
			{"putfile", func() error {
				bob.PutFile("/freds/link", []byte(mine), 0o644)
				return nil
			}},
			{"open(O_TRUNC)+pwrite", func() error {
				fd, err := bob.Open("/freds/link", kernel.OWronly|kernel.OTrunc, 0)
				if err != nil {
					return nil
				}
				bob.Pwrite(fd, []byte(mine), 0)
				return bob.CloseFD(fd)
			}},
			{"truncate", func() error {
				bob.Truncate("/freds/link", 4)
				return nil
			}},
		} {
			n := 0
			for deadline := time.Now().Add(raceBudget); n < raceAttempts && time.Now().Before(deadline); n++ {
				if err := c.attempt(); err != nil {
					t.Fatalf("%s through the link %s after %d attempts", c.op, err, n+1)
				}
				intact(c.op, n+1)
			}
			t.Logf("%s: %d attempts", c.op, n)
		}
	})
}

// TestRevocationOrdersAgainstSteps: an owner's setacl that revokes and
// restores bob's w races bob's putfile, mkdir and rename, and the
// server's file system journals every mutation in commit order. Each
// step bob makes lands after an ACL record that grants him w (or after
// the initial ACL, which does): a step is decided by the ACL in force
// when it lands, never by one a revocation has already replaced.
func TestRevocationOrdersAgainstSteps(t *testing.T) {
	const (
		grant  = "unix:admin rwlax\nunix:bob rwl\n"
		revoke = "unix:admin rwlax\nunix:bob rl\n"
		rounds = 1000
	)
	bothWindows(t, func(t *testing.T, win int) {
		fs := vfs.New("chirpowner")
		log := &mutationLog{}
		fs.SetJournal(log)
		k := kernel.New(fs, vclock.Default())
		rootACL := &acl.ACL{}
		rootACL.Set("unix:admin", acl.All, acl.None)
		srv, err := NewServer(k, ServerOptions{
			Owner:     "chirpowner",
			RootACL:   rootACL,
			Verifiers: map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		admin := unixClient(t, srv, "admin", win)
		bob := unixClient(t, srv, "bob", win)
		if err := admin.Mkdir("/shared", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := admin.SetACL("/shared", grant); err != nil {
			t.Fatal(err)
		}
		log.take() // the history starts with bob holding w

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, text := range []string{revoke, grant} {
					if err := admin.SetACL("/shared", text); err != nil {
						t.Errorf("setacl: %v", err)
						return
					}
				}
			}
		}()
		var made int64
		for i := 0; i < rounds; i++ {
			f, g, d := "/shared/f"+strconv.Itoa(i), "/shared/g"+strconv.Itoa(i), "/shared/d"+strconv.Itoa(i)
			for _, err := range []error{bob.PutFile(f, []byte("x"), 0o644), bob.Mkdir(d, 0o755), bob.Rename(f, g)} {
				switch {
				case err == nil:
					made++
				case !errors.Is(err, vfs.ErrPermission) && !errors.Is(err, vfs.ErrNotExist):
					t.Fatalf("round %d: %v, want success, EPERM or (a rename of a refused put) ENOENT", i, err)
				}
			}
		}
		wg.Wait()

		aclFile := vfs.Join("/shared", acl.FileName)
		holds, steps := true, int64(0)
		for _, m := range log.take() {
			switch {
			case m.Op == vfs.MutCreate && m.Path == aclFile:
				holds = strings.Contains(string(m.Data), "unix:bob rwl")
			case m.Path != aclFile:
				steps++
				if !holds {
					t.Fatalf("%s %s %s journaled while bob's w stood revoked", m.Op, m.Path, m.Path2)
				}
			}
		}
		if steps != made {
			t.Fatalf("journaled %d of bob's steps, he saw %d succeed", steps, made)
		}
		t.Logf("%d of %d steps succeeded", steps, 3*rounds)
	})
}

// TestHugeSizeRefusedSessionLives: a truncate or a pwrite that would
// grow a file past vfs.MaxFileSize is refused before anything is
// allocated, and the session that sent it goes on serving.
func TestHugeSizeRefusedSessionLives(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		if err := cl.PutFile("/big", []byte("small"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{1 << 62, vfs.MaxFileSize + 1} {
			if err := cl.Truncate("/big", size); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("truncate to %d = %v, want EINVAL", size, err)
			}
		}
		fd, err := cl.Open("/big", kernel.OWronly, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{1 << 62, vfs.MaxFileSize - 1} {
			if _, err := cl.Pwrite(fd, []byte("xy"), off); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("pwrite at %d = %v, want EINVAL", off, err)
			}
		}
		st, err := cl.Stat("/big")
		if err != nil || st.Size != 5 {
			t.Fatalf("stat after the refusals = %+v, %v; want the untouched 5-byte file", st, err)
		}
	})
}

// TestMalformedNumbersRefused: a descriptor command whose number does
// not parse is refused EINVAL, never read as 0.
func TestMalformedNumbersRefused(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win, MaxRetries: -1})
		if err := cl.PutFile("/f", []byte("before"), 0o644); err != nil {
			t.Fatal(err)
		}
		fd, err := cl.Open("/f", kernel.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := strconv.Itoa(fd)
		for _, row := range []struct {
			body   []byte
			fields []string
		}{
			{nil, []string{"pread", f, "x", "0"}},
			{[]byte("after"), []string{"pwrite", f, "x", "5"}},
			{nil, []string{"fstat", "x"}},
		} {
			if re := rawCall(t, cl, row.body, row.fields...); re == nil || re.Err != vfs.ErrInvalid {
				t.Errorf("%v = %v, want EINVAL", row.fields, re)
			}
		}
		if data, err := cl.GetFile("/f"); err != nil || string(data) != "before" {
			t.Fatalf("file after the refusals = %q, %v; want it untouched", data, err)
		}
	})
}

// TestDescriptorRightsFollowTheOpenCheck: a descriptor reads only if
// its open was checked for r and writes only if it was checked for w.
// An access mode of 3, which names neither O_RDONLY, O_WRONLY nor
// O_RDWR, is refused with EINVAL before any check (vfs.OpenAccess) and
// leaves the file unchanged; a write-only descriptor does not read.
func TestDescriptorRightsFollowTheOpenCheck(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		admin := unixClient(t, srv, "admin", win)
		for _, step := range []error{
			admin.Mkdir("/drop", 0o755),
			admin.SetACL("/drop", "unix:admin rwlax\nunix:bob w\n"),
			admin.PutFile("/drop/f", []byte("not bob's to read"), 0o644),
			admin.Mkdir("/ro", 0o755),
			admin.SetACL("/ro", "unix:admin rwlax\nunix:bob r\n"),
			admin.PutFile("/ro/f", []byte("bob may only read"), 0o644),
		} {
			if step != nil {
				t.Fatal(step)
			}
		}
		bob := unixClient(t, srv, "bob", win)
		for _, path := range []string{"/drop/f", "/ro/f"} {
			if _, err := bob.Open(path, 3|kernel.OTrunc, 0); !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("open %s with access mode 3 = %v, want EINVAL", path, err)
			}
		}
		if data, err := admin.GetFile("/drop/f"); err != nil || string(data) != "not bob's to read" {
			t.Errorf("/drop/f after the mode-3 open = %q, %v; want it unchanged", data, err)
		}
		fd, err := bob.Open("/drop/f", kernel.OWronly, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bob.Pread(fd, make([]byte, 16), 0); !errors.Is(err, kernel.ErrBadFD) {
			t.Errorf("pread on a write-only descriptor = %v, want EBADF", err)
		}
	})
}
