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
// failing stat through one session, at either window — at window 1 one
// worker serves them all, at the default one a worker per request in
// flight — and every reply must be the caller's own: reply lines and
// pread bodies are encoded in pooled requests, request lines in pooled
// buffers, calls are recycled, and none of it may be visible.
func TestReplyBuffersNeverShared(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win})
		runAliasCallers(t, cl, true, 80, nil)
	})
}

// TestRetainedLineResentAfterFault loses replies under the same callers
// (retries on, pread left out): each lost reply kills the session, and
// every caller in flight re-sends its request on a fresh session from
// the line buffer do keeps until the call is over, whose previous
// attempt's frame left it before submit returned. A loss is armed each
// time the client has sent lossEvery more requests, so however fast a
// run goes, its 25 rounds lose replies. Every answer must still be the
// caller's.
func TestRetainedLineResentAfterFault(t *testing.T) {
	// A redial takes a few requests (the version exchange among them):
	// leave it room to finish between losses.
	const lossEvery = 64
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		loser := &replyLoser{}
		// On a fake clock the backoffs take no time.
		cl := adminClientOn(t, srv, ClientOptions{
			Window: win, Dialer: loser.dial,
			MaxRetries: 50, BreakerThreshold: 1 << 20,
		}, newFakeClock())
		runAliasCallers(t, cl, false, 25, func(stop <-chan struct{}) {
			next := cl.RequestCount() + lossEvery
			tick := time.NewTicker(100 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if n := cl.RequestCount(); n >= next {
					loser.loseNext()
					next = n + lossEvery
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
