package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// TestConcurrentClientsMixedOps runs N independent clients against one
// server, each doing a full mkdir/put/read/stat/rename/unlink cycle in
// its own reserved directory. Run with -race this exercises the
// server's per-connection sessions against the shared kernel and VFS.
func TestConcurrentClientsMixedOps(t *testing.T) {
	srv, _, ca := testServer(t)

	const clients = 6
	const iters = 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for n := 0; n < clients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			cred, err := ca.Issue(fmt.Sprintf("/O=UnivNowhere/CN=User%d", n))
			if err != nil {
				errs <- err
				return
			}
			cl, err := Dial(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			dir := fmt.Sprintf("/work%d", n)
			if err := cl.Mkdir(dir, 0o755); err != nil {
				errs <- fmt.Errorf("mkdir %s: %w", dir, err)
				return
			}
			for i := 0; i < iters; i++ {
				path := fmt.Sprintf("%s/f%d", dir, i)
				payload := bytes.Repeat([]byte{byte(n), byte(i)}, 200)
				if err := cl.PutFile(path, payload, 0o644); err != nil {
					errs <- fmt.Errorf("put %s: %w", path, err)
					return
				}
				got, err := cl.GetFile(path)
				if err != nil || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("get %s: %d bytes, %v", path, len(got), err)
					return
				}
				st, err := cl.Stat(path)
				if err != nil || st.Size != int64(len(payload)) {
					errs <- fmt.Errorf("stat %s: %+v, %v", path, st, err)
					return
				}
				if _, err := cl.ReadDir(dir); err != nil {
					errs <- fmt.Errorf("readdir %s: %w", dir, err)
					return
				}
				moved := path + ".bak"
				if err := cl.Rename(path, moved); err != nil {
					errs <- fmt.Errorf("rename %s: %w", path, err)
					return
				}
				if err := cl.Unlink(moved); err != nil {
					errs <- fmt.Errorf("unlink %s: %w", moved, err)
					return
				}
			}
			errs <- nil
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if srv.RequestCount() == 0 {
		t.Fatal("server counted no requests")
	}
	if got := srv.SessionCount(); got < clients {
		t.Fatalf("server counted %d sessions, want >= %d", got, clients)
	}
}

// TestSharedClientConcurrentUse exercises one Client from many
// goroutines at once — the configuration the wire mutex exists for.
// Every RPC shape is covered, including the counted-payload exchanges
// (pread, pwrite, getacl) that must not interleave on the wire.
func TestSharedClientConcurrentUse(t *testing.T) {
	srv, _, ca := testServer(t)
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Shared")

	if err := cl.Mkdir("/shared", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile("/shared/common", bytes.Repeat([]byte("x"), 1024), 0o644); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("/shared/g%d", g)
			payload := bytes.Repeat([]byte{byte('a' + g)}, 300)
			if err := cl.PutFile(mine, payload, 0o644); err != nil {
				errs <- fmt.Errorf("put %s: %w", mine, err)
				return
			}
			fd, err := cl.Open(mine, kernel.ORdwr, 0o644)
			if err != nil {
				errs <- fmt.Errorf("open %s: %w", mine, err)
				return
			}
			buf := make([]byte, 300)
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					if _, err := cl.Pwrite(fd, payload[:100], int64(i%3)*50); err != nil {
						errs <- fmt.Errorf("pwrite: %w", err)
						return
					}
				case 1:
					if _, err := cl.Pread(fd, buf, 0); err != nil {
						errs <- fmt.Errorf("pread: %w", err)
						return
					}
					if buf[0] != byte('a'+g) {
						errs <- fmt.Errorf("goroutine %d read byte %q: wire exchanges interleaved", g, buf[0])
						return
					}
				case 2:
					if _, err := cl.GetACL("/shared"); err != nil {
						errs <- fmt.Errorf("getacl: %w", err)
						return
					}
				case 3:
					got, err := cl.GetFile("/shared/common")
					if err != nil || len(got) != 1024 || got[0] != 'x' {
						errs <- fmt.Errorf("getfile common: %d bytes, %v", len(got), err)
						return
					}
				default:
					if p, err := cl.Whoami(); err != nil || p != "globus:/O=UnivNowhere/CN=Shared" {
						errs <- fmt.Errorf("whoami = %q, %v", p, err)
						return
					}
					if _, err := cl.Stat(mine); err != nil {
						errs <- fmt.Errorf("stat %s: %w", mine, err)
						return
					}
				}
			}
			if err := cl.CloseFD(fd); err != nil {
				errs <- fmt.Errorf("closefd: %w", err)
				return
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every per-goroutine file must hold exactly its own byte pattern.
	for g := 0; g < goroutines; g++ {
		got, err := cl.GetFile(fmt.Sprintf("/shared/g%d", g))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range got {
			if c != byte('a'+g) {
				t.Fatalf("goroutine %d file corrupted: found %q", g, c)
			}
		}
	}
}

// TestOpenExclusiveOneWinner races four sessions through
// open(O_CREAT|O_EXCL) on each of 2 000 fresh paths. Exactly one must
// win each round and the others must see EEXIST: an exclusive create
// is how a client claims a name (a lock file, a job's unique output),
// so a second winner would hand one name to two owners.
func TestOpenExclusiveOneWinner(t *testing.T) {
	const sessions, rounds = 4, 2000
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		var cls [sessions]*Client
		for i := range cls {
			cls[i] = unixClient(t, srv, "admin", win)
		}
		if err := cls[0].Mkdir("/excl", 0o755); err != nil {
			t.Fatal(err)
		}
		bad := 0
		for r := 0; r < rounds && !t.Failed(); r++ {
			path := fmt.Sprintf("/excl/f%d", r)
			start := make(chan struct{})
			var wins atomic.Int32
			var wg sync.WaitGroup
			for _, cl := range cls {
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					<-start
					fd, err := cl.Open(path, kernel.OWronly|kernel.OCreat|kernel.OExcl, 0o644)
					switch {
					case err == nil:
						wins.Add(1)
						if err := cl.CloseFD(fd); err != nil {
							t.Error(err)
						}
					case !errors.Is(err, vfs.ErrExist):
						t.Errorf("open %s: %v, want success or EEXIST", path, err)
					}
				}(cl)
			}
			close(start)
			wg.Wait()
			if wins.Load() != 1 {
				bad++
			}
		}
		if bad > 0 {
			t.Fatalf("%d of %d rounds had other than one winner", bad, rounds)
		}
	})
}
