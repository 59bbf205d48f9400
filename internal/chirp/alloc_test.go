package chirp

import (
	"testing"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/kernel"
)

// wireAllocBudget is the one table of heap-allocation budgets for an
// operation, client and server together (they share the test's
// process). The same budget holds on both framings, and with admission
// control plus a deadline budget on the wire: tickets are pooled and the
// deadline prefix is written into the call. What a round trip has to
// allocate is the line's string and its exactly-sized field slice at
// each end; the rest is what the operation hands its caller. A budget
// is the measured count plus one.
var wireAllocBudget = []struct {
	op     string
	budget float64
}{
	{"stat", 5},              // 4: two lines, two field slices
	{"open+pread+close", 15}, // 14: three round trips, the descriptor and its handle
	{"getdir", 10},           // 9: + vfs.ReadDir's listing and the client's entry slice (names are substrings of the line)
	{"getacl", 8},            // 7: + the body at the server, copied out of the client's scratch, and its string
}

// TestWireAllocBudget pins the wire path's allocations per operation.
func TestWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	bothFramings(t, func(t *testing.T, proto int) {
		for _, admitted := range []bool{false, true} {
			srv, _, _ := testServer(t)
			opts := ClientOptions{Protocol: proto}
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
				"getdir": func() error { _, err := cl.ReadDir("/d"); return err },
				"getacl": func() error { _, err := cl.GetACL("/d"); return err },
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
