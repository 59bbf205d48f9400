package chirp

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"identitybox/internal/acl"
	"identitybox/internal/auth"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

// memJournal is an in-memory DedupeJournal; failNext makes the next
// append fail once.
type memJournal struct {
	mu       sync.Mutex
	entries  map[string][]string
	failNext bool
}

func newMemJournal() *memJournal { return &memJournal{entries: make(map[string][]string)} }

func (j *memJournal) AppendDedupe(key string, reply []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failNext {
		j.failNext = false
		return errors.New("journal full")
	}
	j.entries[key] = append([]string(nil), reply...)
	return nil
}

func (j *memJournal) snapshot() map[string][]string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]string, len(j.entries))
	for k, v := range j.entries {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// dedupeServer starts a server whose kernel counts sim executions, with
// the given journal, seed and registry.
func dedupeServer(t *testing.T, j DedupeJournal, seed map[string][]string, reg *obs.Registry, logf func(string, ...any)) (*Server, *atomic.Int64) {
	t.Helper()
	fs := vfs.New("owner")
	k := kernel.New(fs, vclock.Default())
	var execs atomic.Int64
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		execs.Add(1)
		return 0
	})
	if err := fs.WriteFile("/sim.exe", kernel.ExecutableBytes("sim"), 0o755, "owner"); err != nil {
		t.Fatal(err)
	}
	rootACL := &acl.ACL{}
	rootACL.Set("unix:admin", acl.All, acl.None)
	srv, err := NewServer(k, ServerOptions{
		Owner:         "owner",
		RootACL:       rootACL,
		Verifiers:     map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		DedupeJournal: j,
		DedupeSeed:    seed,
		Metrics:       reg,
		Logf:          logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &execs
}

// TestDedupeJournalReceivesTokenedReplies: every tokened reply reaches
// the journal under the principal-scoped key.
func TestDedupeJournalReceivesTokenedReplies(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		j := newMemJournal()
		srv, _ := dedupeServer(t, j, nil, nil, nil)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto})
		token := NewRequestToken()
		if _, err := cl.ExecToken(token, "/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
		got := j.snapshot()
		key := dedupeKey("unix:admin", token)
		reply, ok := got[key]
		if !ok {
			t.Fatalf("journal has no entry for %q: %v", key, got)
		}
		if len(reply) == 0 || reply[0] != "ok" {
			t.Fatalf("journaled reply = %v", reply)
		}
	})
}

// TestDedupeSeedAnswersRetryWithoutExecution is the exactly-once story
// across a restart: a retry of an already-journaled token against a
// freshly seeded server replays the reply and never runs the program.
func TestDedupeSeedAnswersRetryWithoutExecution(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		j := newMemJournal()
		srv1, execs1 := dedupeServer(t, j, nil, nil, nil)
		cl1 := adminClient(t, srv1, ClientOptions{Protocol: proto})
		token := NewRequestToken()
		res1, err := cl1.ExecToken(token, "/", "/sim.exe")
		if err != nil {
			t.Fatal(err)
		}
		if execs1.Load() != 1 {
			t.Fatalf("first server ran sim %d times, want 1", execs1.Load())
		}

		// "Restart": a brand-new server seeded from the journal.
		srv2, execs2 := dedupeServer(t, nil, j.snapshot(), nil, nil)
		cl2 := adminClient(t, srv2, ClientOptions{Protocol: proto})
		res2, err := cl2.ExecToken(token, "/", "/sim.exe")
		if err != nil {
			t.Fatal(err)
		}
		if execs2.Load() != 0 {
			t.Fatalf("retry re-executed on the recovered server %d times, want 0", execs2.Load())
		}
		if res2.Code != res1.Code {
			t.Fatalf("replayed result %+v, original %+v", res2, res1)
		}
	})
}

// TestDedupeJournalFailureDoesNotBlockReply: a failing journal degrades
// durability (counted, logged), never availability.
func TestDedupeJournalFailureDoesNotBlockReply(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		j := newMemJournal()
		j.failNext = true
		reg := obs.NewRegistry()
		var lines []string
		var mu sync.Mutex
		logf := func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, format)
		}
		srv, _ := dedupeServer(t, j, nil, reg, logf)
		cl := adminClient(t, srv, ClientOptions{Protocol: proto})
		if _, err := cl.ExecToken(NewRequestToken(), "/", "/sim.exe"); err != nil {
			t.Fatalf("reply must still be delivered: %v", err)
		}
		if got := reg.Counter(MetricDedupeJournalErrs).Value(); got != 1 {
			t.Fatalf("journal error counter = %d, want 1", got)
		}
		mu.Lock()
		defer mu.Unlock()
		found := false
		for _, l := range lines {
			if strings.Contains(l, "dedupe journal") {
				found = true
			}
		}
		if !found {
			t.Fatal("journal failure not logged")
		}
	})
}

// callOrder is a fake Durability and DedupeJournal that records the
// order the server calls them in.
type callOrder struct {
	mu    sync.Mutex
	calls []string
}

func (o *callOrder) record(call string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls = append(o.calls, call)
	return nil
}

func (o *callOrder) Barrier() error                      { return o.record("barrier") }
func (o *callOrder) AppendDedupe(string, []string) error { return o.record("dedupe") }
func (o *callOrder) take() (calls []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	calls, o.calls = o.calls, nil
	return
}

// TestBarrierPrecedesDedupeAppend: a tokened mutation's own writes are
// barriered durable before its reply is journaled. The dedupe append
// waits only on its own key's WAL shard, so it cannot stand in for the
// barrier; skipping the barrier acknowledged mutations a crash could
// still lose.
func TestBarrierPrecedesDedupeAppend(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		var order callOrder
		srv, execs := dedupeServer(t, &order, nil, nil, nil)
		srv.opts.Durability = &order
		cl := adminClient(t, srv, ClientOptions{Protocol: proto})
		if _, err := cl.ExecToken(NewRequestToken(), "/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
		if got := order.take(); len(got) != 2 || got[0] != "barrier" || got[1] != "dedupe" {
			t.Fatalf("tokened exec made the calls %v, want [barrier dedupe]", got)
		}
		// An untokened mutation barriers and journals nothing.
		if _, err := cl.Exec("/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
		if got := order.take(); len(got) != 1 || got[0] != "barrier" {
			t.Fatalf("untokened exec made the calls %v, want [barrier]", got)
		}
		if execs.Load() != 2 {
			t.Fatalf("sim ran %d times, want 2", execs.Load())
		}
	})
}
