package chirp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/kernel"
	"identitybox/internal/vfs"
)

// aliasCallers is how many goroutines share the one session.
const aliasCallers = 16

// aliasFixture gives every caller a directory of its own in which
// nothing looks like anyone else's: file size and content, entry names
// and count, ACL text, and the path an error reply quotes back.
type aliasFixture struct {
	dir, file, acl string
	content        []byte
	entries        []string // sorted, as getdir lists them
}

func newAliasFixture(t *testing.T, cl *Client, g int) aliasFixture {
	t.Helper()
	fx := aliasFixture{dir: fmt.Sprintf("/caller %02d", g)}
	fx.file = fx.dir + "/data"
	fx.content = bytes.Repeat([]byte{byte('a' + g)}, 100+g)
	if err := cl.Mkdir(fx.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutFile(fx.file, fx.content, 0o644); err != nil {
		t.Fatal(err)
	}
	fx.entries = []string{".__acl", "data"}
	for i := 0; i <= g; i++ {
		name := fmt.Sprintf("entry %02d of %02d", i, g)
		if err := cl.PutFile(fx.dir+"/"+name, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		fx.entries = append(fx.entries, name)
	}
	fx.acl = fmt.Sprintf("unix:admin rwlax\nunix:reader%02d rl\n", g)
	if err := cl.SetACL(fx.dir, fx.acl); err != nil {
		t.Fatal(err)
	}
	return fx
}

// verify runs one round of the caller's calls and checks every reply is
// its own. fd is the caller's open descriptor on its file, or 0 to leave
// the descriptor-bound pread out (it cannot be re-sent after a fault).
func (fx aliasFixture) verify(cl *Client, fd int) error {
	st, err := cl.Stat(fx.file)
	if err != nil || st.Size != int64(len(fx.content)) || st.Owner != "chirpowner" {
		return fmt.Errorf("stat %s = %+v, %v", fx.file, st, err)
	}
	ents, err := cl.ReadDir(fx.dir)
	if err != nil || len(ents) != len(fx.entries) {
		return fmt.Errorf("getdir %s = %d entries, %v; want %d", fx.dir, len(ents), err, len(fx.entries))
	}
	for i, e := range ents {
		if e.Name != fx.entries[i] {
			return fmt.Errorf("getdir %s entry %d = %q, want %q", fx.dir, i, e.Name, fx.entries[i])
		}
	}
	if fd != 0 {
		buf := make([]byte, 4096)
		n, err := cl.Pread(fd, buf, 0)
		if err != nil || !bytes.Equal(buf[:n], fx.content) {
			return fmt.Errorf("pread %s = %q, %v", fx.file, buf[:n], err)
		}
	}
	if text, err := cl.GetACL(fx.dir); err != nil || text != fx.acl {
		return fmt.Errorf("getacl %s = %q, %v", fx.dir, text, err)
	}
	missing := fx.dir + "/missing"
	var re *RemoteError
	if _, err := cl.Stat(missing); !errors.As(err, &re) || re.Err != vfs.ErrNotExist || !strings.Contains(re.Message, missing) {
		return fmt.Errorf("stat %s = %v, want ENOENT naming the path", missing, err)
	}
	return nil
}

// TestReplyBuffersNeverShared is the test of buffer reuse on the wire
// path, whose failure mode is a well-formed reply to someone else's
// request. Sixteen callers pipeline stat, getdir, pread, getacl and a
// failing stat through one session — one lane worker and eight, both
// framings — and every reply must be the caller's own: reply lines are
// encoded in per-worker buffers, request lines in pooled ones, calls are
// recycled, and none of it may be visible.
func TestReplyBuffersNeverShared(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		for _, workers := range []int{1, 8} {
			srv, _, _ := testServer(t)
			srv.opts.Workers = workers
			cl := adminClient(t, srv, ClientOptions{Protocol: proto})
			runAliasCallers(t, cl, true, 40, nil)
		}
	})
}

// TestRetainedLineResentAfterFault loses replies under the same callers
// (retries on, pread left out): each lost reply kills the session, and
// every caller in flight re-sends its request from the line buffer do
// kept for it, on a fresh session, while the dead session's writer may
// still hold the old attempt. Every answer must still be the caller's.
func TestRetainedLineResentAfterFault(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		loser := &replyLoser{}
		cl := adminClient(t, srv, ClientOptions{
			Protocol: proto, Dialer: loser.dial,
			MaxRetries: 50, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
			BreakerThreshold: 1 << 20,
		})
		runAliasCallers(t, cl, false, 25, func(stop <-chan struct{}) {
			tick := time.NewTicker(15 * time.Millisecond) // a redial takes a few reads: leave it room to finish
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					loser.loseNext()
				}
			}
		})
		if n := cl.LocalMetrics().Counter(MetricClientRetries).Value(); n == 0 {
			t.Fatal("no call was ever re-sent: the fault schedule never bit")
		}
	})
}

// runAliasCallers sets up the fixtures, runs rounds of verify on every
// caller at once, and reports the first wrong reply. chaos, when set,
// runs beside the callers until they are done.
func runAliasCallers(t *testing.T, cl *Client, withPread bool, rounds int, chaos func(stop <-chan struct{})) {
	t.Helper()
	fixtures := make([]aliasFixture, aliasCallers)
	fds := make([]int, aliasCallers)
	for g := range fixtures {
		fixtures[g] = newAliasFixture(t, cl, g)
		if withPread {
			fd, err := cl.Open(fixtures[g].file, kernel.ORdonly, 0)
			if err != nil {
				t.Fatal(err)
			}
			fds[g] = fd
		}
	}
	stop := make(chan struct{})
	var chaosWG, wg sync.WaitGroup
	if chaos != nil {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			chaos(stop)
		}()
	}
	var failed atomic.Bool
	for g := range fixtures {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds && !failed.Load(); r++ {
				if err := fixtures[g].verify(cl, fds[g]); err != nil {
					failed.Store(true)
					t.Errorf("caller %d round %d: %v", g, r, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
}
