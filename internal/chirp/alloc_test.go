package chirp

import (
	"bytes"
	"testing"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/kernel"
)

// wireAllocBudget is the one table of heap-allocation budgets for an
// operation, client and server together (they share the test's
// process). A row holds at either window, and with
// admission control plus a deadline budget on the wire: tickets are
// pooled and the deadline prefix is written into the call. A round trip
// allocates the request line's string at the server, whose fields are
// substrings of it split into the pooled request's argument array, and
// the reply's rest-of-line string at the client, which a bare ok does
// without; the rest is what the operation hands its caller. A budget is
// the measured count plus one.
var wireAllocBudget = []struct {
	op     string
	budget float64
}{
	{"stat", 3},             // 2: the server's line, the client's rest of line
	{"open+pread+close", 7}, // 6: three lines, pread's rest (a one-digit fd and a bare ok cost none), the descriptor and its handle
	{"getdir", 8},           // 7: + vfs.ReadDir's listing and the client's entry slice (names are substrings of the rest)
	{"getacl", 6},           // 5: + the body at the server, read into the client's own buffer, and its string
	{"putfile 4k", 3},       // 2: the server's line and the payload it reads into; the file's buffer is reused, and a bare ok costs none
	{"getfile", 5},          // 4: the server's line and vfs.ReadFile's snapshot, the client's rest of line and the body read straight into its own buffer
}

// TestWireAllocBudget pins the wire path's allocations per operation.
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bothWindows(t, func(t *testing.T, win int) {
		for _, admitted := range []bool{false, true} {
			srv, _, _ := testServer(t)
			opts := ClientOptions{Window: win}
			if admitted {
				srv.opts.Admission = admission.New(admission.Options{})
				opts.DeadlineBudget = time.Minute
			}
			cl := adminClient(t, srv, opts)
			if err := cl.Mkdir("/d", 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"/d/a", "/d/b", "/d/c"} {
				if err := cl.PutFile(name, []byte("sixteen bytes...\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			buf := make([]byte, 16)
			page := bytes.Repeat([]byte("4"), 4<<10)
			ops := map[string]func() error{
				"stat": func() error { _, err := cl.Stat("/d/a"); return err },
				"open+pread+close": func() error {
					fd, err := cl.Open("/d/a", kernel.ORdonly, 0)
					if err != nil {
						return err
					}
					if _, err := cl.Pread(fd, buf, 0); err != nil {
						return err
					}
					return cl.CloseFD(fd)
				},
				"getdir":     func() error { _, err := cl.ReadDir("/d"); return err },
				"getacl":     func() error { _, err := cl.GetACL("/d"); return err },
				"putfile 4k": func() error { return cl.PutFile("/d/p", page, 0o644) },
				"getfile":    func() error { _, err := cl.GetFile("/d/a"); return err },
			}
			for _, b := range wireAllocBudget {
				op := ops[b.op]
				got := testing.AllocsPerRun(200, func() {
					if err := op(); err != nil {
						t.Fatal(err)
					}
				})
				if got > b.budget {
					t.Errorf("%s (admission %v): %v allocs per operation, budget %v", b.op, admitted, got, b.budget)
				}
				t.Logf("%-17s admission=%-5v %v allocs", b.op, admitted, got)
			}
		}
	})
}

// TestReplicaPushAllocs pins a follower's receive path: one Next on a
// replication push, with a replack reply to skip ahead of it, parses
// both lines where they lie in the codec's scratch and allocates only
// the push's frames buffer, which the batch hands on.
func TestReplicaPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 100
	var wire bytes.Buffer
	w := &frameWriter{c: newCodec(&wire)}
	var line lineBuf
	for i := 1; i <= runs+1; i++ {
		frames := []byte("0123456789abcdef")
		if err := w.write(uint64(i), nil, line.start("ok").b, nil); err != nil {
			t.Fatal(err)
		}
		line.start("replpush").uint(7).uint(uint64(10 * i)).uint(uint64(10*i + 9)).int(10).int(int64(len(frames)))
		if err := w.write(replPushTag, nil, line.b, frames); err != nil {
			t.Fatal(err)
		}
	}
	w.release()
	rs := &ReplicaSession{c: newCodec(&wire)}
	defer rs.c.release()
	var last uint64
	got := testing.AllocsPerRun(runs, func() {
		b, err := rs.Next()
		if err != nil || b.Epoch != 7 || b.First != last+10 || b.Last != b.First+9 || b.Records != 10 || len(b.Frames) != 16 {
			t.Fatalf("push = %+v, %v (after first %d)", b, err, last)
		}
		last = b.First
	})
	if got > 1 {
		t.Errorf("Next allocates %v per push, want only the frames buffer", got)
	}
	t.Logf("%v allocs per push", got)
}
