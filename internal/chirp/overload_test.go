package chirp

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/faultnet"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
)

// gsiClientOpts is gsiClient with explicit ClientOptions, for overload
// tests that need deadline budgets or custom retry behavior.
func gsiClientOpts(t *testing.T, srv *Server, ca *auth.CA, subject string, opts ClientOptions) *Client {
	t.Helper()
	cred, err := ca.Issue(subject)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOpts(srv.Addr(), []auth.Authenticator{&auth.GSIClient{Cred: cred}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// stageWork creates a per-principal directory and stages the named
// program in it, returning (dir, path) for Exec.
func stageWork(t *testing.T, cl *Client, dir, prog string) (string, string) {
	t.Helper()
	if err := cl.Mkdir(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	path := dir + "/" + prog + ".exe"
	if err := cl.PutFile(path, kernel.ExecutableBytes(prog), 0o755); err != nil {
		t.Fatalf("stage %s: %v", path, err)
	}
	return dir, path
}

// TestOverloadGoodputFairnessAndShedding is the seeded overload chaos
// suite: four victim principals run a closed loop of short exec jobs to
// establish a pre-saturation baseline, then two flooder principals pile
// on roughly 10x the offered load with tight deadline budgets while a
// control-plane client heartbeats throughout. Under saturation the
// server must shed expired work before executing it, keep goodput at or
// above 80% of the baseline, keep every victim at or above half its
// fair share, and never fail a control-plane request.
//
// Set CHIRP_OVERLOAD_SOAK to a duration (e.g. 30s) to stretch the
// saturation window for soak runs.
//
// v2 only: the flooders' tight budgets ride the deadline capability,
// which the v1 framing cannot negotiate. TestV1FlooderShedLikeV2 covers
// what admission does for a v1 peer.
func TestOverloadGoodputFairnessAndShedding(t *testing.T) {
	srv, k, ca := testServer(t)
	reg := obs.NewRegistry()
	adm := admission.New(admission.Options{
		MaxQueue:  32,
		ExecSlots: 4,
		FairShare: 2,
		Metrics:   reg,
	})
	srv.opts.Admission = adm

	var executed atomic.Int64
	// 15ms of "work" keeps service capacity (ExecSlots/15ms ~ 265/s) far
	// below what the flooders can offer, so saturation is unambiguous even
	// under the race detector's overhead.
	k.RegisterProgram("work", func(p *kernel.Proc, args []string) int {
		executed.Add(1)
		time.Sleep(15 * time.Millisecond)
		return 0
	})

	const victims = 4
	const flooders = 2
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Victims: closed loop, one request in flight each, no budget.
	victimSuccess := make([]*atomic.Int64, victims)
	victimSubjects := make([]string, victims)
	var attempts, successes atomic.Int64
	for i := 0; i < victims; i++ {
		victimSuccess[i] = new(atomic.Int64)
		victimSubjects[i] = fmt.Sprintf("globus:/O=UnivNowhere/CN=Victim%d", i)
		cl := gsiClient(t, srv, ca, fmt.Sprintf("/O=UnivNowhere/CN=Victim%d", i))
		dir, path := stageWork(t, cl, fmt.Sprintf("/v%d", i), "work")
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				attempts.Add(1)
				if _, err := cl.Exec(dir, path); err == nil {
					victimSuccess[n].Add(1)
					successes.Add(1)
				}
			}
		}(i)
	}

	// Baseline: victims alone, after a short warmup.
	time.Sleep(100 * time.Millisecond)
	baseStart := successes.Load()
	baseWindow := 400 * time.Millisecond
	time.Sleep(baseWindow)
	baseRate := float64(successes.Load()-baseStart) / baseWindow.Seconds()
	if baseRate <= 0 {
		t.Fatal("no baseline throughput")
	}

	// Flooders: many concurrent calls per principal, tight budgets, no
	// retries — shed or rejected work is re-offered immediately, so the
	// offered load stays far above capacity. Staging rides a separate
	// unbudgeted client so setup cannot itself be shed.
	for f := 0; f < flooders; f++ {
		subject := fmt.Sprintf("/O=UnivNowhere/CN=Flood%d", f)
		stager := gsiClient(t, srv, ca, subject)
		dir, path := stageWork(t, stager, fmt.Sprintf("/f%d", f), "work")
		// Two sessions per flooder principal: attempt throughput is bounded
		// by how fast one session's server reader can reject work, so the
		// goroutines spread across sessions to keep the offered load high.
		for s := 0; s < 2; s++ {
			cl := gsiClientOpts(t, srv, ca, subject,
				ClientOptions{DeadlineBudget: 25 * time.Millisecond, DisableRetries: true})
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						attempts.Add(1)
						if _, err := cl.Exec(dir, path); err == nil {
							successes.Add(1)
						} else {
							time.Sleep(500 * time.Microsecond)
						}
					}
				}()
			}
		}
	}

	// Control plane: heartbeats that must never shed or fail.
	ctrl := adminClient(t, srv, ClientOptions{})
	var ctrlErrs atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ctrl.Stats(); err != nil {
				ctrlErrs.Add(1)
			}
			if _, err := ctrl.Whoami(); err != nil {
				ctrlErrs.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Let the flood saturate the queue, then measure the overload window.
	time.Sleep(150 * time.Millisecond)
	overWindow := 600 * time.Millisecond
	if s := os.Getenv("CHIRP_OVERLOAD_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("CHIRP_OVERLOAD_SOAK = %q: %v", s, err)
		}
		overWindow = d
	}
	overStartSucc, overStartAtt := successes.Load(), attempts.Load()
	compBefore := adm.Stats().Completions
	time.Sleep(overWindow)
	compAfter := adm.Stats().Completions
	goodRate := float64(successes.Load()-overStartSucc) / overWindow.Seconds()
	offeredRate := float64(attempts.Load()-overStartAtt) / overWindow.Seconds()

	close(stop)
	wg.Wait()
	// Quiesce: every admitted ticket released before the final audit.
	waitFor(t, "admission queue to drain", func() bool {
		st := adm.Stats()
		return st.Queued == 0 && st.ExecBusy == 0
	})
	st := adm.Stats()

	// Saturation was real: the offered load dwarfed what was served.
	if offeredRate < 10*goodRate {
		t.Errorf("offered load %.0f/s is under 10x goodput %.0f/s; the flood never saturated", offeredRate, goodRate)
	}
	// Goodput held: shedding absorbed the overload instead of collapsing
	// throughput.
	if goodRate < 0.8*baseRate {
		t.Errorf("goodput %.0f/s under overload, want >= 80%% of baseline %.0f/s", goodRate, baseRate)
	}
	// Expired work was shed, and shed strictly before execution: every
	// handler run produced exactly one successful reply.
	if st.ShedAdmit+st.ShedDispatch == 0 {
		t.Error("no requests were shed during saturation")
	}
	if st.Busy == 0 {
		t.Error("no requests were rejected EBUSY during saturation")
	}
	if got, want := executed.Load(), successes.Load(); got != want {
		t.Errorf("handler executions = %d, successful replies = %d; shed work must never execute", got, want)
	}
	// Fairness: over the saturation window no victim fell below half of
	// an equal share of the executed work.
	var totalDelta int64
	for name, after := range compAfter {
		totalDelta += after - compBefore[name]
	}
	active := int64(victims + flooders)
	for i, subj := range victimSubjects {
		delta := compAfter[subj] - compBefore[subj]
		if min := totalDelta / (2 * active); delta < min {
			t.Errorf("victim %d completed %d of %d during overload, below half fair share %d", i, delta, totalDelta, min)
		}
	}
	// The control plane rode through untouched.
	if n := ctrlErrs.Load(); n != 0 {
		t.Errorf("%d control-plane requests failed under overload", n)
	}
	if st.Control == 0 {
		t.Error("control-plane requests never exercised the exempt class")
	}
}

// TestV1FlooderShedLikeV2: admission and fairness apply to a session
// whatever framing it speaks. A flooder principal piles a dozen
// sessions of exec traffic onto a two-slot server next to two
// one-session victims; whether the flooder negotiates v2 or never sends
// "version" at all, it is rejected EBUSY with a retry-after hint, every
// victim keeps at least half a fair share of what executes, and
// nothing that was rejected ever ran.
func TestV1FlooderShedLikeV2(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, ca := testServer(t)
		adm := admission.New(admission.Options{MaxQueue: 8, ExecSlots: 2, FairShare: 2})
		srv.opts.Admission = adm
		var executed atomic.Int64
		k.RegisterProgram("work", func(p *kernel.Proc, args []string) int {
			executed.Add(1)
			time.Sleep(5 * time.Millisecond)
			return 0
		})

		const victims, floodSessions = 2, 12
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var successes, busy, hinted atomic.Int64
		// run loops Exec on cl until stop, classifying each outcome.
		run := func(cl *Client, dir, path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := cl.Exec(dir, path)
				switch {
				case err == nil:
					successes.Add(1)
				case errors.Is(err, ErrBusy):
					busy.Add(1)
					if RetryAfterFromError(err) > 0 {
						hinted.Add(1)
					}
					time.Sleep(500 * time.Microsecond)
				default:
					t.Errorf("exec: %v (want success or EBUSY)", err)
					return
				}
			}
		}
		victimSubjects := make([]string, victims)
		for i := range victimSubjects {
			subject := fmt.Sprintf("/O=UnivNowhere/CN=Victim%d", i)
			victimSubjects[i] = "globus:" + subject
			cl := gsiClient(t, srv, ca, subject)
			dir, path := stageWork(t, cl, fmt.Sprintf("/v%d", i), "work")
			wg.Add(1)
			go run(cl, dir, path)
		}
		const flooder = "/O=UnivNowhere/CN=Flood"
		dir, path := stageWork(t, gsiClient(t, srv, ca, flooder), "/f", "work")
		for s := 0; s < floodSessions; s++ {
			cl := gsiClientOpts(t, srv, ca, flooder, ClientOptions{Protocol: proto, DisableRetries: true})
			if cl.Protocol() != proto {
				t.Fatalf("flooder session speaks v%d, want v%d", cl.Protocol(), proto)
			}
			wg.Add(1)
			go run(cl, dir, path)
		}

		time.Sleep(100 * time.Millisecond) // let the flood fill the queue
		before := adm.Stats().Completions
		time.Sleep(400 * time.Millisecond)
		after := adm.Stats().Completions
		close(stop)
		wg.Wait()

		if busy.Load() == 0 || adm.Stats().Busy == 0 {
			t.Fatalf("the flooder was never rejected EBUSY (client saw %d, controller %d): its sessions bypass admission", busy.Load(), adm.Stats().Busy)
		}
		if hinted.Load() != busy.Load() {
			t.Errorf("%d of %d EBUSY rejections carried a retry-after hint, want all", hinted.Load(), busy.Load())
		}
		if got, want := executed.Load(), successes.Load(); got != want {
			t.Errorf("handler executions = %d, successful replies = %d; rejected work must never execute", got, want)
		}
		var total int64
		for name, n := range after {
			total += n - before[name]
		}
		for _, subj := range victimSubjects {
			if delta, min := after[subj]-before[subj], total/(2*(victims+1)); delta < min {
				t.Errorf("%s completed %d of %d under the flood, below half its fair share %d", subj, delta, total, min)
			}
		}
	})
}

// TestBusyRetryAfterHintHonored: a client whose call is rejected EBUSY
// retries with the server's retry-after hint as a backoff floor and
// succeeds once capacity frees up — without tripping the breaker.
func TestBusyRetryAfterHintHonored(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, k, ca := testServer(t)
		adm := admission.New(admission.Options{MaxQueue: 1, ExecSlots: 1, FairShare: 100})
		srv.opts.Admission = adm
		k.RegisterProgram("block", func(p *kernel.Proc, args []string) int {
			time.Sleep(250 * time.Millisecond)
			return 0
		})

		blocker := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Blocker", ClientOptions{Protocol: proto})
		bdir, bpath := stageWork(t, blocker, "/blk", "block")
		// A second blocker principal fills the light-principal overflow
		// headroom (hard bound 2x MaxQueue), so the patient's admit is a
		// genuine EBUSY rejection rather than an overflow seat.
		blocker2 := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Blocker2", ClientOptions{Protocol: proto})
		b2dir, b2path := stageWork(t, blocker2, "/blk2", "block")
		// Stage the patient's files before the slot is hogged: staging
		// traffic is admission-controlled too.
		var sleeps []time.Duration
		var mu sync.Mutex
		cl := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Patient", ClientOptions{
			Protocol:   proto,
			MaxRetries: 8,
			Sleep: func(d time.Duration) {
				mu.Lock()
				sleeps = append(sleeps, d)
				mu.Unlock()
				time.Sleep(d)
			},
		})
		dir, path := stageWork(t, cl, "/pat", "block")
		// Prime the service-time estimate so the busy hint is meaningful.
		if _, err := blocker.Exec(bdir, bpath); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 2)
		go func() {
			_, err := blocker.Exec(bdir, bpath)
			done <- err
		}()
		waitFor(t, "blocker to hold the exec slot", func() bool { return adm.Stats().ExecBusy == 1 })
		go func() {
			_, err := blocker2.Exec(b2dir, b2path)
			done <- err
		}()
		waitFor(t, "second blocker to fill the overflow seat", func() bool { return adm.Stats().Queued == 2 })

		if _, err := cl.Exec(dir, path); err != nil {
			t.Fatalf("exec after EBUSY retries = %v, want success", err)
		}
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatalf("blocker exec = %v", err)
			}
		}
		if got := cl.LocalMetrics().Counter(MetricClientBusy).Value(); got == 0 {
			t.Fatal("busy counter never advanced; the call was not rejected EBUSY")
		}
		mu.Lock()
		defer mu.Unlock()
		if len(sleeps) == 0 {
			t.Fatal("no backoff sleeps recorded")
		}
		// The EWMA-primed hint (roughly the 250ms service time) floors the
		// first backoff far above the 50ms RetryBase schedule.
		var longest time.Duration
		for _, d := range sleeps {
			if d > longest {
				longest = d
			}
		}
		if longest < 100*time.Millisecond {
			t.Fatalf("longest backoff %v; the retry-after hint (~250ms+) never floored the schedule", longest)
		}
	})
}

// TestDeadlineShedAtDispatchNeverExecutes: a budgeted request queued
// behind a slot hog is shed with EDEADLINE when its budget expires in
// the dispatch queue — before its handler runs, and well before the hog
// finishes. v2 only: the budget rides the deadline capability.
func TestDeadlineShedAtDispatchNeverExecutes(t *testing.T) {
	srv, k, ca := testServer(t)
	adm := admission.New(admission.Options{MaxQueue: 8, ExecSlots: 1})
	srv.opts.Admission = adm
	k.RegisterProgram("block", func(p *kernel.Proc, args []string) int {
		time.Sleep(400 * time.Millisecond)
		return 0
	})
	var ran atomic.Int64
	k.RegisterProgram("never", func(p *kernel.Proc, args []string) int {
		ran.Add(1)
		return 0
	})

	blocker := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Hog")
	bdir, bpath := stageWork(t, blocker, "/hog", "block")
	// Stage before the slot is hogged: staging waits on the same slot.
	cl := gsiClientOpts(t, srv, ca, "/O=UnivNowhere/CN=Budgeted",
		ClientOptions{DeadlineBudget: 60 * time.Millisecond, DisableRetries: true})
	stager := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Budgeted")
	dir, path := stageWork(t, stager, "/bud", "never")
	done := make(chan error, 1)
	go func() {
		_, err := blocker.Exec(bdir, bpath)
		done <- err
	}()
	waitFor(t, "hog to hold the exec slot", func() bool { return adm.Stats().ExecBusy == 1 })

	start := time.Now()
	_, err := cl.Exec(dir, path)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("budgeted exec = %v, want EDEADLINE", err)
	}
	if elapsed >= 350*time.Millisecond {
		t.Fatalf("EDEADLINE took %v; the shed must not wait out the slot hog", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatalf("hog exec = %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("shed request executed %d times, want 0", n)
	}
	if st := adm.Stats(); st.ShedDispatch == 0 {
		t.Fatalf("dispatch-shed counter = 0, want > 0 (stats %+v)", st)
	}
	if got := cl.LocalMetrics().Counter(MetricClientDeadlineExpired).Value(); got == 0 {
		t.Fatal("client deadline counter never advanced")
	}
}

// TestSeverWakesParkedReader (the acquireSlot teardown fix): with the
// session's credit window full of slow execs, the reader goroutine is
// parked in acquireSlot. Close must wake it and drop the queued work
// instead of executing the whole backlog toward a dead socket. v2 only:
// a v1 session's window is 1, so its reader never parks on it.
func TestSeverWakesParkedReader(t *testing.T) {
	srv, k, ca := testServer(t)
	srv.opts.Window = 4
	k.RegisterProgram("slow", func(p *kernel.Proc, args []string) int {
		time.Sleep(500 * time.Millisecond)
		return 0
	})
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Parker")
	dir, path := stageWork(t, cl, "/park", "slow")

	const calls = 8
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Exec(dir, path) // severed mid-flight; errors are expected
		}()
	}
	// Window 4 fills, the reader parks on the 5th admit.
	waitFor(t, "window to fill", func() bool { return cl.RequestCount() >= calls })
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	elapsed := time.Since(start)
	// Draining the whole window through 500ms execs would take ~2s;
	// severing must only wait out the one in flight.
	if elapsed > 1200*time.Millisecond {
		t.Fatalf("Close took %v; severing must drop queued work, not execute it", elapsed)
	}

	// The client's parked submitters unwind too: the calls all return.
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("client calls still parked after the server severed the session")
	}
}

// TestDrainCompletesUnderBackpressure (shutdown vs v2 backpressure):
// a graceful drain racing a client that has the credit window pinned
// full must finish the admitted work, unwind the reader without
// executing the backlog, and come back well inside the drain budget —
// with an idle second session nudged out rather than severed. v2 only,
// like TestSeverWakesParkedReader.
func TestDrainCompletesUnderBackpressure(t *testing.T) {
	srv, k, ca := testServer(t)
	srv.opts.Window = 2
	k.RegisterProgram("slow", func(p *kernel.Proc, args []string) int {
		time.Sleep(40 * time.Millisecond)
		return 0
	})
	cl := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Pusher")
	dir, path := stageWork(t, cl, "/push", "slow")
	idle := gsiClient(t, srv, ca, "/O=UnivNowhere/CN=Idler")
	if _, err := idle.Whoami(); err != nil {
		t.Fatal(err)
	}

	var ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Exec(dir, path); err == nil {
				ok.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // window full, submits backed up

	start := time.Now()
	err := srv.Shutdown(5 * time.Second)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("shutdown = %v, want clean drain (no severing)", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("drain took %v with only ~80ms of admitted work", elapsed)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no in-flight exec survived the drain; admitted work must finish")
	}
}

// TestSlowLorisSeveredNotServed (bandwidth-shaping injector): a client
// trickling a request a byte at a time is severed by the per-request
// wire deadline instead of pinning server resources, while a healthy
// session on the same server stays fully served throughout.
func TestSlowLorisSeveredNotServed(t *testing.T) {
	bothFramings(t, func(t *testing.T, proto int) {
		srv, _, _ := testServer(t)
		srv.opts.RequestTimeout = 100 * time.Millisecond

		healthy := adminClient(t, srv, ClientOptions{Protocol: proto})
		if _, err := healthy.Whoami(); err != nil {
			t.Fatal(err)
		}

		inj := faultnet.New(1)
		slow := adminClient(t, srv, ClientOptions{Protocol: proto, DisableRetries: true, Dialer: inj.Dialer("tcp")})
		if _, err := slow.Whoami(); err != nil {
			t.Fatal(err) // handshake and negotiation run at full speed
		}
		// From here one write trickles at a byte per 5ms tick, so that
		// request cannot arrive inside the 100ms request deadline. On v2
		// the deadline runs from the frame header, so the very next frame
		// (PutFile's open) is cut. v1 has no header to anchor on — the
		// deadline runs from the command line's arrival — so the trickle
		// skips the payload-less open and lands on the pwrite, whose 2 KiB
		// payload cannot follow its line in time.
		skip := 0
		if proto == ProtocolV1 {
			skip = 1
		}
		inj.InjectOnce(faultnet.OpWrite, skip, faultnet.Trickle, 5*time.Millisecond)
		lorisErr := make(chan error, 1)
		go func() {
			err := slow.PutFile("/loris.dat", make([]byte, 2<<10), 0o644)
			lorisErr <- err
		}()

		// The healthy session must not feel the loris: every probe during
		// the attack completes promptly.
		deadline := time.Now().Add(400 * time.Millisecond)
		for time.Now().Before(deadline) {
			s := time.Now()
			if _, err := healthy.Whoami(); err != nil {
				t.Fatalf("healthy whoami during slow-loris: %v", err)
			}
			if d := time.Since(s); d > time.Second {
				t.Fatalf("healthy whoami took %v during slow-loris", d)
			}
			time.Sleep(10 * time.Millisecond)
		}
		select {
		case err := <-lorisErr:
			if err == nil {
				t.Fatal("trickled request succeeded; the wire deadline should have severed it")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("slow-loris call never returned after the server severed it")
		}
	})
}

// TestDedupeTableByteBound (byte-bounded dedupe): the table evicts by
// byte footprint as well as entry count, keeps the exactly-once promise
// for a single oversized entry, and reports its footprint for the
// chirp_dedupe_bytes gauge and eviction counter.
func TestDedupeTableByteBound(t *testing.T) {
	fat := []string{"ok", strings.Repeat("x", 100)}
	perEntry := entrySize(dedupeKey("u", "t0"), fat)
	tbl := newDedupeTable(100, 2*perEntry)
	for i := 0; i < 4; i++ {
		tbl.store(dedupeKey("u", fmt.Sprintf("t%d", i)), fat)
	}
	if _, size := tbl.stats(); size != 2 {
		t.Fatalf("entries = %d, want 2 (byte bound, not entry cap, governs)", size)
	}
	if _, hit := tbl.lookup(dedupeKey("u", "t0")); hit {
		t.Fatal("oldest entry survived byte-bound eviction")
	}
	if _, hit := tbl.lookup(dedupeKey("u", "t3")); !hit {
		t.Fatal("newest entry missing")
	}
	bytes, evictions := tbl.byteStats()
	if bytes > 2*perEntry || bytes <= 0 {
		t.Fatalf("footprint = %d bytes, want (0, %d]", bytes, 2*perEntry)
	}
	if evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}

	// A single entry larger than the whole budget is still stored:
	// dropping it would re-execute a retried mutation.
	tiny := newDedupeTable(100, 8)
	if n := tiny.store(dedupeKey("u", "big"), fat); n != 0 {
		t.Fatalf("evicted %d from an empty table", n)
	}
	if _, hit := tiny.lookup(dedupeKey("u", "big")); !hit {
		t.Fatal("oversized entry must survive until the next store")
	}
}

// TestDedupeByteMetricsExposed: the server keeps the dedupe footprint
// gauge and eviction counter current as tokened replies are recorded.
func TestDedupeByteMetricsExposed(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := testServerWithRegistry(t, reg)
	srv.dedupe.store(dedupeKey("u", "t"), []string{"ok", "1"})
	srv.syncDedupeMetrics()
	text := reg.Text()
	if !strings.Contains(text, MetricDedupeBytes) {
		t.Fatalf("exposition missing %s:\n%s", MetricDedupeBytes, text)
	}
	if !strings.Contains(text, MetricDedupeEvictions) {
		t.Fatalf("exposition missing %s:\n%s", MetricDedupeEvictions, text)
	}
	if reg.Gauge(MetricDedupeBytes).Value() <= 0 {
		t.Fatal("dedupe byte gauge did not track the stored entry")
	}
}
