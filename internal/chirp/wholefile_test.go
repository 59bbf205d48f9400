package chirp

import (
	"bytes"
	"errors"
	"net"
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

// TestPutFileV1SendsPutfile: a session whose credit window is one call
// (the lock-step exchange of the retired v1 framing, whose name the test
// keeps) stages a file of up to MaxPayload in one putfile, not by the
// serial chunk path, whether the client or the server caps the window,
// and the file, its mode and its owner land as a pipelined session's
// would.
func TestPutFileV1SendsPutfile(t *testing.T) {
	for _, tc := range []struct {
		name              string
		client, serverMax int
	}{
		{"client-pinned", 1, 0},
		{"server-pinned", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, k, _ := testServer(t)
			srv.opts.Window = tc.serverMax
			rec := &wireRecorder{}
			cl := adminClient(t, srv, ClientOptions{Window: tc.client, Dialer: rec.dial})
			if ws := cl.WindowStats(); ws.Window != 1 {
				t.Fatalf("session negotiated window %d, want 1", ws.Window)
			}
			data := patterned(3*transferChunk + 5)
			if err := cl.PutFile("/f", data, 0o640); err != nil {
				t.Fatal(err)
			}
			got, err := cl.GetFile("/f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("GetFile = %d bytes, %v", len(got), err)
			}
			if st, err := k.FS().Stat("/f"); err != nil || st.Mode != 0o640 || st.Owner != "chirpowner" {
				t.Fatalf("/f = %+v, %v", st, err)
			}
			sent := rec.transcript(0)
			if n, m := strings.Count(sent, `putfile \"/f\" `), strings.Count(sent, `getfile \"/f\"`); n != 1 || m != 1 {
				t.Fatalf("%d putfiles and %d getfiles on the wire, want one of each", n, m)
			}
			if strings.Contains(sent, "open ") || strings.Contains(sent, "pwrite ") {
				t.Fatal("a window-1 PutFile took the chunk path")
			}
		})
	}
}

// TestPutFileReplacesInPlace: putfile makes open(O_TRUNC)'s promise — an
// existing file keeps its inode, mode and owner, only its bytes change —
// and creates a missing one with the given mode. Either way it is one
// journal record and one durability wait: the barrier, or a tokened
// request's own dedupe append.
func TestPutFileReplacesInPlace(t *testing.T) {
	fs := vfs.New("owner")
	log := &mutationLog{}
	fs.SetJournal(log)
	var order callOrder
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := NewServer(kernel.New(fs, vclock.Default()), ServerOptions{
		Owner:         "owner",
		RootACL:       rootACL,
		Verifiers:     map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		Durability:    &order,
		DedupeJournal: &order,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := adminClient(t, srv, ClientOptions{MaxRetries: -1})
	if err := fs.WriteFile("/kept", []byte("old contents, longer"), 0o600, "someone"); err != nil {
		t.Fatal(err)
	}
	before, _ := fs.Stat("/kept")
	log.take()
	oneStep := func(what, wait string) {
		t.Helper()
		if muts := log.take(); len(muts) != 1 || muts[0].Op != vfs.MutCreate {
			t.Fatalf("%s journaled %+v, want one MutCreate", what, muts)
		}
		if calls := order.take(); len(calls) != 1 || calls[0] != wait {
			t.Fatalf("%s made the durability calls %v, want [%s]", what, calls, wait)
		}
	}
	if err := cl.PutFile("/kept", []byte("new"), 0o755); err != nil {
		t.Fatal(err)
	}
	oneStep("putfile over a file", "barrier")
	after, err := fs.Stat("/kept")
	if err != nil || after.Ino != before.Ino || after.Mode != 0o600 || after.Owner != "someone" || after.Size != 3 {
		t.Fatalf("after putfile /kept = %+v, %v; before %+v", after, err, before)
	}
	if re := rawCall(t, cl, []byte("fresh"), "token", q(NewRequestToken()), "putfile", q("/made"), "640", "5"); re != nil {
		t.Fatal(re)
	}
	oneStep("a tokened putfile", "dedupe")
	if st, err := fs.Stat("/made"); err != nil || st.Mode != 0o640 || st.Owner != "owner" || st.Size != 5 {
		t.Fatalf("/made = %+v, %v", st, err)
	}
}

// TestGetFileOverMaxPayload: getfile refuses a file no reply can carry
// with EFBIG, and GetFile reads it through the chunk path instead.
func TestGetFileOverMaxPayload(t *testing.T) {
	srv, k, _ := testServer(t)
	cl := adminClient(t, srv, ClientOptions{MaxRetries: -1})
	data := patterned(MaxPayload + 1)
	if err := k.FS().WriteFile("/huge", data, 0o644, "chirpowner"); err != nil {
		t.Fatal(err)
	}
	if re := rawCall(t, cl, nil, "getfile", q("/huge")); re == nil || !errors.Is(re, vfs.ErrTooBig) {
		t.Fatalf("getfile of a %d-byte file = %v, want EFBIG", len(data), re)
	}
	got, err := cl.GetFile("/huge")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetFile over MaxPayload = %d bytes, %v", len(got), err)
	}
	if _, err := cl.GetFile("/missing"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("GetFile of a missing file = %v", err)
	}
}

// TestReplyBodySkipsScratch: a reply body — getfile's, getacl's — is read
// straight into a buffer the caller keeps, so a large one neither grows
// the client codec's scratch, which the connection would pin for its
// life, nor passes through it.
func TestReplyBodySkipsScratch(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, _, _ := testServer(t)
		cl := adminClient(t, srv, ClientOptions{Window: win})
		data := patterned(256 << 10)
		if err := cl.PutFile("/staged", data, 0o644); err != nil {
			t.Fatal(err)
		}
		cl.mu.Lock()
		scratch := cl.mux.c.scratch
		cl.mu.Unlock()
		before := cap(scratch.buf)
		got, err := cl.GetFile("/staged")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("GetFile = %d bytes, %v", len(got), err)
		}
		if after := cap(scratch.buf); after != before {
			t.Fatalf("client scratch went from %d to %d bytes for a %d-byte body", before, after, len(data))
		}
	})
}

// pwriteLoserConn runs lose, once, as it carries the first pwrite;
// lose arms a replyLoser, so the request runs on the server and the
// connection dies.
type pwriteLoserConn struct {
	net.Conn
	lose func()
	once *sync.Once
}

func (c *pwriteLoserConn) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("pwrite")) {
		c.once.Do(c.lose)
	}
	return c.Conn.Write(p)
}

// TestChunkTransferOneDeadline: a chunked transfer spends one deadline
// budget, stamped at its start, and its restarts obey the same retry
// rule as a single call's. When its pwrite reply is lost with less of
// the budget left than the shortest backoff, the transfer fails with
// EDEADLINE at once: it neither sleeps toward a certain miss nor
// restarts under a fresh budget.
func TestChunkTransferOneDeadline(t *testing.T) {
	const budget = 2 * time.Second
	srv, _, _ := testServer(t)
	var loser replyLoser
	clk := newFakeClock()
	spend := func() {
		loser.loseNext()
		clk.advance(budget - retryBase/4) // the backoff is at least retryBase/2
	}
	var once sync.Once
	cl := adminClientOn(t, srv, ClientOptions{
		DeadlineBudget: budget,
		Dialer: func(addr string) (net.Conn, error) {
			c, err := loser.dial(addr)
			if err != nil {
				return nil, err
			}
			return &pwriteLoserConn{Conn: c, lose: spend, once: &once}, nil
		},
	}, clk)
	err := cl.PutFile("/huge", patterned(MaxPayload+1), 0o644)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("chunked putfile after a lost pwrite reply = %v, want EDEADLINE", err)
	}
	if slept := clk.sleeps(); len(slept) != 0 {
		t.Fatalf("the transfer slept %v, want no sleep past its budget", slept)
	}
}
