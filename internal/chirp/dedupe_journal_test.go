package chirp

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func (j *memJournal) LookupDedupe(key string) ([]string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	reply, ok := j.entries[key]
	return reply, ok
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
	bothWindows(t, func(t *testing.T, win int) {
		j := newMemJournal()
		srv, _ := dedupeServer(t, j, nil, nil, nil)
		cl := adminClient(t, srv, ClientOptions{Window: win})
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
	bothWindows(t, func(t *testing.T, win int) {
		j := newMemJournal()
		srv1, execs1 := dedupeServer(t, j, nil, nil, nil)
		cl1 := adminClient(t, srv1, ClientOptions{Window: win})
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
		cl2 := adminClient(t, srv2, ClientOptions{Window: win})
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
	bothWindows(t, func(t *testing.T, win int) {
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
		cl := adminClient(t, srv, ClientOptions{Window: win})
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
// order the server calls them in; lookups always miss and are not
// recorded.
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

func (o *callOrder) Barrier() error                       { return o.record("barrier") }
func (o *callOrder) AppendDedupe(string, []string) error  { return o.record("dedupe") }
func (o *callOrder) LookupDedupe(string) ([]string, bool) { return nil, false }
func (o *callOrder) take() (calls []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	calls, o.calls = o.calls, nil
	return
}

// TestBarrierPrecedesDedupeAppend: a request makes one durability
// wait. A tokened request's is its own dedupe append, which the journal
// returns only once the entry and every record before it is as durable
// as a barrier would make them, so it never barriers as well; an
// untokened mutation barriers and journals nothing. A server with
// Durability but no journal would have no durable append to wait on,
// so NewServer refuses it.
func TestBarrierPrecedesDedupeAppend(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		var order callOrder
		srv, execs := dedupeServer(t, &order, nil, nil, nil)
		srv.opts.Durability = &order
		cl := adminClient(t, srv, ClientOptions{Window: win})
		if _, err := cl.ExecToken(NewRequestToken(), "/", "/sim.exe"); err != nil {
			t.Fatal(err)
		}
		if got := order.take(); len(got) != 1 || got[0] != "dedupe" {
			t.Fatalf("tokened exec made the calls %v, want [dedupe]", got)
		}
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
	t.Run("durability without journal", func(t *testing.T) {
		k := kernel.New(vfs.New("owner"), vclock.Default())
		if _, err := NewServer(k, ServerOptions{Owner: "owner", Durability: &callOrder{}}); err == nil {
			t.Fatal("NewServer accepted a Durability without a DedupeJournal")
		}
	})
}

// parkedJournal is a DedupeJournal that publishes an entry as it
// appends, as durable.Store does before its record's fsync, and a
// Durability whose Barrier, once parked, blocks until released.
type parkedJournal struct {
	*memJournal
	parked           atomic.Bool
	entered, release chan struct{}
}

func (j *parkedJournal) Barrier() error {
	if j.parked.Load() {
		j.entered <- struct{}{}
		<-j.release
	}
	return nil
}

// TestDedupeReplayWaitsForDurability: a retry answered from the dedupe
// table is acked no sooner than the original could be. The table
// publishes an entry before its record is durable, so a retry on a
// second connection could otherwise be acked while the original still
// waits out its fsync and follower ack, and a crash in that window
// would lose a write the client saw acknowledged.
func TestDedupeReplayWaitsForDurability(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		j := &parkedJournal{memJournal: newMemJournal(), entered: make(chan struct{}, 1), release: make(chan struct{})}
		srv, execs := dedupeServer(t, j, nil, nil, nil)
		srv.opts.Durability = j
		token := NewRequestToken()
		first, err := adminClient(t, srv, ClientOptions{Window: win}).ExecToken(token, "/", "/sim.exe")
		if err != nil {
			t.Fatal(err)
		}
		j.parked.Store(true)
		retry := adminClient(t, srv, ClientOptions{Window: win})
		type outcome struct {
			res ExecResult
			err error
		}
		replied := make(chan outcome, 1)
		go func() {
			res, err := retry.ExecToken(token, "/", "/sim.exe")
			replied <- outcome{res, err}
		}()
		select {
		case o := <-replied:
			close(j.release)
			t.Fatalf("retry acked (%+v, %v) without waiting for durability", o.res, o.err)
		case <-j.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("retry neither replied nor waited for durability")
		}
		select {
		case o := <-replied:
			t.Fatalf("retry acked (%+v, %v) while its durability wait was parked", o.res, o.err)
		case <-time.After(20 * time.Millisecond):
		}
		close(j.release)
		o := <-replied
		if o.err != nil || o.res.Code != first.Code {
			t.Fatalf("retry = %+v, %v; original %+v", o.res, o.err, first)
		}
		if execs.Load() != 1 {
			t.Fatalf("sim ran %d times, want 1", execs.Load())
		}
	})
}

// slowJournal is a memJournal whose appends take delay, as a journal's
// do while its record's fsync and follower ack are under way.
type slowJournal struct {
	*memJournal
	delay time.Duration
}

func (j slowJournal) AppendDedupe(key string, reply []string) error {
	time.Sleep(j.delay)
	return j.memJournal.AppendDedupe(key, reply)
}

// TestTokenedAppendIsBarrierWaitPhase: a traced tokened exec's one
// durability wait, its dedupe append, is the server span's barrier.wait
// phase, so a trace and the cost ledger see it.
func TestTokenedAppendIsBarrierWaitPhase(t *testing.T) {
	const delay = 20 * time.Millisecond
	srv, _ := dedupeServer(t, slowJournal{newMemJournal(), delay}, nil, nil, nil)
	srv.opts.Spans = obs.NewSpanRing(64)
	cl := adminClient(t, srv, ClientOptions{Spans: obs.NewSpanRing(64)})
	id := obs.NewTraceID()
	cl.SetTrace(id)
	_, err := cl.ExecToken(NewRequestToken(), "/", "/sim.exe")
	cl.SetTrace(0)
	if err != nil {
		t.Fatal(err)
	}
	// The server records its span once the reply is flushed, which may
	// be after the client holds the reply: poll.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		spans, err := cl.TraceSpans(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range spans {
			if sp.Name != "server" {
				continue
			}
			for _, ph := range sp.Phases {
				if ph.Name == "barrier.wait" {
					if ph.Dur < delay {
						t.Fatalf("barrier.wait = %v, want at least the %v append", ph.Dur, delay)
					}
					return
				}
			}
			t.Fatalf("tokened exec's server span has no barrier.wait phase: %+v", sp.Phases)
		}
		if time.Now().After(deadline) {
			t.Fatal("no server span for the traced exec")
		}
	}
}

// TestReadOnlyOpenSkipsBarrier: an open whose flags are read-only
// without create changes nothing (O_TRUNC truncates only a writable
// open), so its reply waits for no durability barrier. A writable open,
// one that may create or truncate, and any other mutation, still
// barriers once.
func TestReadOnlyOpenSkipsBarrier(t *testing.T) {
	bothWindows(t, func(t *testing.T, win int) {
		srv, k, _ := testServer(t)
		if err := k.FS().WriteFile("/f", []byte("x"), 0o644, "chirpowner"); err != nil {
			t.Fatal(err)
		}
		var order callOrder
		srv.opts.Durability = &order
		cl := adminClient(t, srv, ClientOptions{Window: win})
		barriers := func() (n int) {
			for _, c := range order.take() {
				if c == "barrier" {
					n++
				}
			}
			return n
		}
		barriers()
		for _, c := range []struct {
			name  string
			flags int
			want  int
		}{
			{"O_RDONLY", kernel.ORdonly, 0},
			{"O_RDONLY|O_TRUNC", kernel.ORdonly | kernel.OTrunc, 0},
			{"O_RDONLY|O_CREAT", kernel.ORdonly | kernel.OCreat, 1},
			{"O_WRONLY", kernel.OWronly, 1},
			{"O_RDWR", kernel.ORdwr, 1},
			{"O_WRONLY|O_TRUNC", kernel.OWronly | kernel.OTrunc, 1},
		} {
			fd, err := cl.Open("/f", c.flags, 0o644)
			if err != nil {
				t.Fatalf("open %s: %v", c.name, err)
			}
			if got := barriers(); got != c.want {
				t.Errorf("open %s made %d barriers, want %d", c.name, got, c.want)
			}
			if err := cl.CloseFD(fd); err != nil {
				t.Fatal(err)
			}
			barriers()
		}
		if err := cl.Mkdir("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if got := barriers(); got != 1 {
			t.Errorf("mkdir made %d barriers, want 1", got)
		}
	})
}
