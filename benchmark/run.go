package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"identitybox/internal/admission"
	"identitybox/internal/chirp"
	"identitybox/internal/durable"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
)

// Nominal durations: the issue's 15 s window with its 2 s warm-up,
// 5 s compaction interval and 2000 recovery mutations. A run given
// another window scales all four together.
const (
	nominalWindow    = 15 * time.Second
	nominalWarmup    = 2 * time.Second
	recoverMutations = 2000
	// An end-to-end run sets up at least endToEndSetups times, and goes on
	// until setupBudget has gone into it, so a cheap set-up's median is
	// over more repetitions; setup_s is the median. A per-layer run sets
	// up once.
	endToEndSetups = 7
	setupBudget    = 2.0 // seconds
)

// openRates are mixed_open's fixed arrival-rate steps in ops/s, and
// refStep the one the end-to-end metrics are read at. Calibrated once on
// the reference sandbox (the mix saturates near 7500 ops/s there) and
// frozen: see README.md.
var openRates = [4]float64{2000, 4000, 8000, 16000}

const (
	refStep = 0
	// Callers per connection (the issue allows up to 32). A session's
	// ordered lane serves one barriered request at a time, so every
	// further caller's request spends its 2 s deadline budget queued
	// behind the others': with 32, the burst after a one-second disk
	// stall was shed EDEADLINE; with 8, what a stall delays waits in the
	// driver's queue, its clock running from its due time all the same.
	openPool     = 8
	openLatLimit = 20 * time.Millisecond // due-time p99 limit for max_rate_ok
	// After a step its queues may drain for as long as the step lasted;
	// the reference step's for a minute. The system keeps up with the
	// reference rate, so what a disk stall queued there is served late,
	// not dropped: the run reports operations that failed, and the
	// driver giving up on an arrival is not the system failing it.
	refDrain = time.Minute
)

// options select one run.
type options struct {
	workload  string
	seed      uint64
	window    time.Duration // timed window
	trace     bool          // false: end-to-end metrics; true: per-layer metrics
	stateRoot string
	scale     float64 // working-set scale (1 except in smoke tests)
	setups    int     // how many times to set up at least (median → setup_s)
}

// result is what one run reports.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64 // end_to_end names (trace off) or per_layer names (trace on)
	extra     map[string]float64 // further numbers for the suite report
	notes     []string           // why correct is false, or what failed
}

func (res *result) fail(format string, args ...any) {
	res.correct = false
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// run is one workload run's state.
type run struct {
	opt options
	cfg prodConfig
	geo geometry

	dir       string
	cluster   *cluster
	world     *world
	sess      *sessions
	wire      wireCounters
	clientReg *obs.Registry
	callers   []*caller
	gens      []*opGen
}

func geometryFor(workload string, conns int, scale float64) geometry {
	g := geometry{
		conns:        conns,
		callers:      1,
		metaDirs:     max(int(256*scale), 2*conns) / conns * conns,
		filesPerDir:  16,
		metaFileSize: 1024,
		sharedACL:    64,
		subtrees:     max(int(64*scale), 8),
		slotsPerTree: 32,
		writeSize:    4096,
		jobSize:      max(int(256*1024*scale), 4096),
		renameSlots:  2,
	}
	switch workload {
	case "durable_write":
		g.callers = 4
	case "mixed_open":
		// All three sets at a quarter of their size: set-up is bound by the
		// follower's one-fsync-per-group apply loop, and populating three
		// full sets would cost more than the window.
		g.callers = openPool
		g.metaDirs = max(int(64*scale), 2*conns) / conns * conns
		g.subtrees = max(int(16*scale), 8)
	}
	return g
}

var setupSeq int

func (r *run) setup(spans *obs.SpanRing) error {
	setupSeq++
	r.dir = filepath.Join(r.opt.stateRoot, fmt.Sprintf("run-%d-%d", os.Getpid(), setupSeq))
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	var err error
	if r.cluster, err = startCluster(r.dir, r.cfg, spans); err != nil {
		return err
	}
	r.clientReg = obs.NewRegistry()
	r.world = newWorld(r.opt.seed, r.opt.workload, r.geo)

	if r.sess, err = r.cluster.dialSessions(&r.wire, r.clientReg, nil); err != nil {
		return err
	}
	ld := loader{fs: r.cluster.primary.store.FS(), owner: r.cfg.Owner}
	if err := r.world.populate(r.sess.bench, ld); err != nil {
		return err
	}
	if err := r.cluster.primary.node.Barrier(); err != nil {
		return fmt.Errorf("barrier after populating: %w", err)
	}
	return nil
}

func (r *run) teardown() {
	r.sess.close()
	r.sess = nil
	if r.cluster != nil {
		r.cluster.stop()
		r.cluster = nil
	}
	os.RemoveAll(r.dir)
}

func (r *run) makeCallers() {
	n := r.geo.conns * r.geo.callers
	// The largest payload the workload compares or sends: the callers'
	// buffers are live at the window's end, in heap_inuse_mb.
	size := max(r.geo.metaFileSize, r.geo.writeSize)
	if r.opt.workload == "stage_exec" {
		size = r.geo.jobSize
	}
	r.callers = make([]*caller, n)
	r.gens = make([]*opGen, n)
	for i := range r.callers {
		conn := i % r.geo.conns
		if r.opt.workload == "mixed_open" {
			conn = i / r.geo.callers // runOpen numbers a connection's pool contiguously
		}
		r.callers[i] = &caller{
			id:   i,
			conn: conn,
			buf:  make([]byte, r.geo.metaFileSize),
			want: make([]byte, size),
			rng:  newRNG(r.opt.seed, streamID("caller"), uint64(i)),
		}
		r.gens[i] = newOpGen(r.opt.seed, r.opt.workload, i, r.geo)
	}
	r.useSessions(r.sess)
}

// useSessions points every caller at one set of sessions.
func (r *run) useSessions(s *sessions) {
	for _, c := range r.callers {
		c.cls, c.admin = s.bench, s.admin
	}
}

func (r *run) exec(i int, o op) error { return r.world.do(r.callers[i], o) }

// route sends a private-home read to its owner's connection and spreads
// everything else round-robin.
func (r *run) route(i int, o op) int {
	if o.tgt == tgtPrivate {
		return o.c
	}
	return i % r.geo.conns
}

func (r *run) setCallTiming(on bool) {
	for _, c := range r.callers {
		if on {
			c.calls = new(callSamples)
		} else {
			c.calls = nil
		}
	}
}

// counters are the always-on (A) readings, taken before and after a
// pass; the per-op metrics are their differences over the ops done.
type counters struct {
	wireReads, wireWrites, wireBytes int64
	fileWrites, fileBytes, fileSyncs int64
	shipGroups, shipBytes            int64
	dedupeAppends                    int64
	walRecords, walGroups            int64
	syncTimeouts                     int64
	windowStalls                     int64
	admBusy, admShed                 int64
	srvRequests, clientSent          int64
	userBytes                        int64
	slotWaits                        []int64
	bytesByPath                      map[string]int64
}

func (r *run) readCounters() counters {
	p := r.cluster.primary
	adm := p.adm.Stats()
	c := counters{
		wireReads:     r.wire.reads.Load(),
		wireWrites:    r.wire.writes.Load(),
		wireBytes:     r.wire.bytes.Load(),
		fileWrites:    p.files.writes.Load(),
		fileBytes:     p.files.bytes.Load(),
		fileSyncs:     p.files.syncs.Load(),
		shipGroups:    p.ship.groups.Load(),
		shipBytes:     p.ship.bytes.Load(),
		dedupeAppends: p.dd.appends.Load(),
		walRecords:    p.reg.Counter(durable.MetricWALRecords).Value(),
		walGroups:     p.reg.Counter(durable.MetricCommitGroups).Value(),
		syncTimeouts:  p.reg.Counter(replica.MetricSyncTimeouts).Value(),
		windowStalls:  r.clientReg.Counter(chirp.MetricClientWindowStalls).Value(),
		admBusy:       adm.Busy,
		admShed:       adm.ShedAdmit + adm.ShedDispatch + adm.ShedBarrier,
		srvRequests:   p.srv.RequestCount(),
		userBytes:     r.world.userOut.Load(),
		slotWaits:     p.reg.Histogram(admission.MetricWait, obs.LatencyBuckets()).BucketCounts(),
		bytesByPath:   p.files.writtenByPath(),
	}
	for _, cl := range append(r.callers[0].cls, r.callers[0].admin) {
		c.clientSent += cl.RequestCount()
	}
	return c
}

// pass is one timed pass over the workload: the window(s) it measured
// and the counter readings around the part the metrics are read from.
type pass struct {
	ref    *window   // the closed-loop window, or mixed_open's reference step
	steps  []*window // mixed_open: every step, in openRates order
	before counters
	after  counters
	heapMB float64
}

// runPass drives the workload for total. For mixed_open, total is split
// over the four rate steps with the reference step taking half; with
// refOnly the whole of it goes to the reference step (the traced pass).
func (r *run) runPass(total time.Duration, refOnly bool) *pass {
	p := &pass{}
	if r.opt.workload != "mixed_open" {
		p.before = r.readCounters()
		p.ref = runClosed(r.gens, r.exec, total)
		p.heapMB = heapInuseMB(p.ref.ownBytes())
		p.after = r.readCounters()
		return p
	}
	for i, rate := range openRates {
		settle, dur := total/24, total/8
		drain := dur
		if i == refStep {
			settle, dur, drain = total/12, total*5/12, refDrain
			if refOnly {
				dur = total - settle
			}
		} else if refOnly {
			continue
		}
		step := openStep{
			arrivals: poissonArrivals(r.gens[0], rate, int64(settle+dur)),
			settle:   settle, dur: dur, drain: drain, conns: r.geo.conns, pool: r.geo.callers,
		}
		if i == refStep {
			p.before = r.readCounters()
		}
		w := runOpen(step, r.route, r.exec)
		if i == refStep {
			p.ref = w
			p.heapMB = heapInuseMB(w.ownBytes())
			p.after = r.readCounters()
		}
		p.steps = append(p.steps, w)
	}
	return p
}

// warmup lets caches fill and lazy set-up (box homes, pooled buffers)
// finish before anything is timed.
func (r *run) warmup(d time.Duration) {
	if r.opt.workload != "mixed_open" {
		runClosed(r.gens, r.exec, d)
		return
	}
	runOpen(openStep{
		arrivals: poissonArrivals(r.gens[0], openRates[refStep], int64(d)),
		dur:      d, drain: refDrain, conns: r.geo.conns, pool: r.geo.callers,
	}, r.route, r.exec)
}

// runWorkload is one complete run: set-up, warm-up, the timed pass or
// passes, the oracle, and (traced) the probes.
func runWorkload(opt options) (res *result, err error) {
	cfg := defaultConfig()
	scale := float64(opt.window) / float64(nominalWindow)
	cfg.CompactEvery = time.Duration(float64(cfg.CompactEvery) * scale)
	r := &run{opt: opt, cfg: cfg, geo: geometryFor(opt.workload, cfg.Conns, opt.scale)}
	res = &result{correct: true, metrics: make(map[string]float64), extra: make(map[string]float64)}
	defer r.teardown()

	// Set-up, several times over: its median is setup_s.
	var spans *obs.SpanRing
	if opt.trace {
		spans = obs.NewSpanRing(spanCapacity)
	}
	var setupS []float64
	var setupTotal float64
	for i := 0; i < opt.setups || (opt.setups > 1 && setupTotal < setupBudget); i++ {
		if i > 0 {
			r.teardown()
		}
		t0 := time.Now()
		if err := r.setup(spans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupTotal += setupS[i]
	}
	r.makeCallers()
	r.cluster.startCompaction()
	r.warmup(time.Duration(float64(nominalWarmup) * scale))
	inodes := r.cluster.primary.store.FS().TotalInodes()

	var main, traced *pass
	var lag []int64
	if !opt.trace {
		// The end-to-end metrics are read at the reference step only, so
		// the whole window goes to it; the other steps run in the
		// per-layer run.
		main = r.runPass(opt.window, true)
	} else {
		// Counters pass: tracing off on the clients, per-call timing and
		// the lag sampler on. Then the traced pass on a second set of
		// sessions that negotiated the trace capability.
		r.setCallTiming(true)
		stopLag := r.sampleLag(&lag)
		main = r.runPass(opt.window/2, false)
		stopLag()
		calls := r.takeCallSamples()
		r.setCallTiming(false)

		tsess, err := r.cluster.dialSessions(&r.wire, r.clientReg, spans)
		if err != nil {
			return nil, err
		}
		defer tsess.close()
		r.useSessions(tsess)
		r.cluster.primary.files.timed.Store(true)
		r.cluster.follower.files.timed.Store(true)
		traced = r.runPass(opt.window/2, true)
		r.cluster.primary.files.timed.Store(false)
		r.cluster.follower.files.timed.Store(false)
		r.useSessions(r.sess)
		r.layerMetrics(res, main, traced, calls, lag, spans)
	}

	// The working set is bounded: a window leaves as many inodes as it
	// found, so a faster build does more ops on the same state.
	if got := r.cluster.primary.store.FS().TotalInodes(); got != inodes {
		res.fail("working set changed over the window: %d inodes before, %d after", inodes, got)
	}
	r.cluster.stopCompaction()
	pauses := r.cluster.takePauses()

	st := main.ref.stats()
	res.attempted, res.failed = main.ref.attempted, main.ref.failed
	if res.attempted == 0 {
		res.fail("no operation was attempted")
	}
	for _, e := range main.ref.errs {
		res.fail("op failed: %s", e)
	}
	if dropped := main.ref.failed - int64(len(main.ref.errs)); main.steps != nil && dropped > 0 && len(main.ref.errs) < maxErrsKept {
		res.notes = append(res.notes, fmt.Sprintf("%d arrivals were still queued a minute after the reference step ended, and were dropped as failed", dropped))
	}
	if traced != nil {
		for _, e := range traced.ref.errs {
			res.fail("op failed in the traced pass: %s", e)
		}
	}
	res.extra["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	if !opt.trace {
		res.metrics["setup_s"] = median(setupS)
		res.metrics["allocs_per_op"] = st.allocsOp
		res.metrics["heap_inuse_mb"] = main.heapMB
	}
	res.extra["goodput_ops_s"] = st.goodput
	res.extra["lat_p50_us"] = st.p50us
	res.extra["lat_p99_us"] = st.p99us
	res.extra["cpu_us_per_op"] = st.cpuUsOp
	if len(main.steps) == len(openRates) {
		res.extra["max_rate_ok"] = maxRateOK(main.steps)
	}

	// Oracle: with every caller idle the model is exact.
	lost, known, err := r.checkDurability(res)
	if err != nil {
		return nil, err
	}
	res.extra["acked_lost"], res.extra["acked_lost_known"] = float64(lost), float64(known)
	if u := main.after.userBytes - main.before.userBytes; u > 0 {
		res.extra["wal_bytes_per_user_byte"] = float64(main.after.fileBytes-main.before.fileBytes) / float64(u)
	}
	if err := r.cluster.primary.store.Err(); err != nil {
		res.fail("primary store degraded: %v", err)
		res.extra["degraded"] = 1
	}
	if n := main.after.syncTimeouts; n > 0 {
		// A run that degraded to local-only durability is invalid, not fast.
		res.fail("%d semi-sync barriers timed out", n)
	}

	if opt.trace {
		m := res.metrics
		m["durable.acked_lost"] = res.extra["acked_lost"]
		m["durable.wal_bytes_per_user_byte"] = res.extra["wal_bytes_per_user_byte"]
		m["durable.degraded"] = res.extra["degraded"]
		m["durable.compactions"] = float64(len(pauses))
		sorted := sortedCopy(pauses)
		m["durable.compact_pause_ms_p50"] = float64(percentile(sorted, 0.5)) / 1e6
		m["durable.compact_pause_ms_max"] = float64(percentile(sorted, 1)) / 1e6
		m["durable.segments_end"] = float64(r.cluster.primary.store.Segments())
		m["durable.wal_bytes_end"] = float64(r.cluster.primary.store.WALSize())
		m["driver.goodput_ops_s"] = st.goodput
		m["driver.lat_p50_us"] = st.p50us
		m["driver.lat_p99_us"] = st.p99us
		m["driver.cpu_us_per_op"] = st.cpuUsOp
		m["driver.failed_frac"] = res.extra["failed_frac"]
		m["driver.max_rate_ok"] = res.extra["max_rate_ok"]
		m["driver.lat_p999_us"] = st.p999us
		m["driver.samples"] = float64(st.ok)
		if opt.workload == "durable_write" {
			n := int(float64(recoverMutations)*scale*opt.scale) / len(r.callers) * len(r.callers)
			rs, err := r.cluster.recoverTest(r.world, r.callers, opt.seed, n)
			if err != nil {
				return nil, fmt.Errorf("recovery test: %w", err)
			}
			m["durable.recover_ms"], m["durable.recover_replayed"] = rs.ms, float64(rs.replayed)
		}
		if err := r.runProbes(m); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok {
				m[d.name] = 0 // does not apply to this workload
			}
		}
	}
	return res, nil
}

// checkDurability runs the post-window oracle: the crash-reopened copy
// must hold every acknowledged write, and the follower must converge on
// the primary's tree. It reports how many acknowledged writes were lost,
// and how many of those are the seed commit's known failure (below).
//
// stage_exec first leaves one staged-and-executed job per caller in
// place and crashes at the instant the exec replies arrived, so the copy
// has an acknowledged exec's output to hold. KNOWN FAILURE at the commit
// that added the benchmark: a tokened reply waits for its dedupe record,
// which the sharded WAL commits on the shard of its key, while out.dat
// commits on /work's shard, and nothing orders the two fsyncs; in two to
// four runs of ten an out.dat is missing. Those losses are counted in
// acked_lost and noted, but do not fail the run; the change that orders
// the two commits deletes this exemption. Any other loss fails it.
func (r *run) checkDurability(res *result) (lost, known int, err error) {
	var residue []jobResidue
	if r.opt.workload == "stage_exec" {
		for _, c := range r.callers {
			dir, in, err := r.world.stageAndRun(c)
			if err != nil {
				res.fail("epilogue job %s: %v", dir, err)
				continue
			}
			residue = append(residue, jobResidue{dir: dir, in: append([]byte(nil), in...)})
		}
	}
	if r.world.uses(tgtWrite) || r.world.uses(tgtJob) {
		loss, err := r.cluster.ackedLost(r.world, residue)
		if err != nil {
			return 0, 0, fmt.Errorf("crash check: %w", err)
		}
		lost, known = loss.lost, loss.execOutputs
		for _, d := range loss.details {
			res.fail("acknowledged write lost: %s", d)
		}
		for _, d := range loss.execOutputDetails {
			res.notes = append(res.notes, "acknowledged exec lost its output (known failure, see checkDurability): "+d)
		}
	}
	if err := r.cluster.waitConverged(); err != nil {
		res.fail("follower: %v", err)
	}
	return lost, known, nil
}

// maxRateOK is the highest step whose due-time p99 met the limit with at
// most 1 % failures and an end-of-step backlog of at most 1 % of its
// arrivals (0 when no step did).
func maxRateOK(steps []*window) float64 {
	var best float64
	for i, w := range steps {
		st := w.stats()
		ok := st.p99us <= float64(openLatLimit/time.Microsecond) &&
			float64(w.failed) <= 0.01*float64(w.attempted) &&
			float64(w.backlog) <= 0.01*float64(w.arrivals)
		if ok && openRates[i] > best {
			best = openRates[i]
		}
	}
	return best
}

// sampleLag samples primary DurableLSN − follower AppliedLSN every
// 100 ms until the returned stop function is called.
func (r *run) sampleLag(out *[]int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d := int64(r.cluster.primary.store.DurableLSN()) - int64(r.cluster.follower.store.AppliedLSN())
				if d < 0 {
					d = 0
				}
				*out = append(*out, d)
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (r *run) takeCallSamples() *callSamples {
	all := new(callSamples)
	for _, c := range r.callers {
		if c.calls == nil {
			continue
		}
		for k := range all.ns {
			all.ns[k] = append(all.ns[k], c.calls.ns[k]...)
		}
	}
	return all
}

// layerMetrics fills the per-layer metrics that come from the counters
// pass (A) and the traced pass (T).
func (r *run) layerMetrics(res *result, main, traced *pass, calls *callSamples, lag []int64, spans *obs.SpanRing) {
	m := res.metrics
	mst, tst := main.ref.stats(), traced.ref.stats()
	ops := float64(max(mst.ok, 1))
	b, a := main.before, main.after
	perOp := func(d int64) float64 { return float64(d) / ops }

	m["chirp.rpcs_per_op"] = perOp(a.clientSent - b.clientSent)
	m["chirp.wire_bytes_per_op"] = perOp(a.wireBytes - b.wireBytes)
	m["chirp.wire_writes_per_op"] = perOp(a.wireWrites - b.wireWrites)
	m["chirp.wire_reads_per_op"] = perOp(a.wireReads - b.wireReads)
	m["chirp.window_stalls_per_kop"] = 1000 * perOp(a.windowStalls-b.windowStalls)
	m["chirp.dedupe_appends_per_op"] = perOp(a.dedupeAppends - b.dedupeAppends)
	m["durable.file_writes_per_op"] = perOp(a.fileWrites - b.fileWrites)
	m["durable.file_bytes_per_op"] = perOp(a.fileBytes - b.fileBytes)
	m["durable.fsyncs_per_op"] = perOp(a.fileSyncs - b.fileSyncs)
	if g := a.walGroups - b.walGroups; g > 0 {
		m["durable.recs_per_group"] = float64(a.walRecords-b.walRecords) / float64(g)
	}
	m["durable.shard_skew"] = shardSkew(b.bytesByPath, a.bytesByPath, r.cfg.WALShards)
	m["replica.groups_shipped_per_op"] = perOp(a.shipGroups - b.shipGroups)
	m["replica.bytes_shipped_per_op"] = perOp(a.shipBytes - b.shipBytes)
	m["replica.sync_timeouts"] = float64(a.syncTimeouts)
	sortedLag := sortedCopy(lag)
	m["replica.lag_lsn_p99"] = float64(percentile(sortedLag, 0.99))
	attempted := float64(max(main.ref.attempted, 1))
	m["admission.busy_frac"] = float64(a.admBusy-b.admBusy) / attempted
	m["admission.shed_frac"] = float64(a.admShed-b.admShed) / attempted
	m["admission.slot_wait_p99_us"] = slotWaitP99(b.slotWaits, a.slotWaits, a.srvRequests-b.srvRequests)

	for k := call(0); k < numCalls; k++ {
		s := sortedCopy(calls.ns[k])
		m["driver."+callNames[k]+"_p50_us"] = float64(percentile(s, 0.5)) / 1e3
		m["driver."+callNames[k]+"_p99_us"] = float64(percentile(s, 0.99)) / 1e3
	}
	if len(main.steps) == len(openRates) {
		late := sortedCopy(main.ref.lateNs)
		var over int
		for _, d := range late {
			if d > int64(time.Millisecond) {
				over++
			}
		}
		if len(late) > 0 {
			m["driver.late_frac"] = float64(over) / float64(len(late))
		}
		m["driver.late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
		m["driver.backlog_end"] = float64(main.ref.backlog)
		for i, w := range main.steps {
			m[stepMetric(i)] = w.stats().p99us
		}
	}

	// The traced pass: the program's own spans, plus the File wrappers'
	// clock pairs.
	ts := summarize(spans.Spans())
	for name, key := range map[string]string{
		"chirp.client_submit_stall_us":  phStall,
		"chirp.client_send_us":          phSend,
		"chirp.client_await_us":         phAwait,
		"chirp.server_lane_queue_us":    phQueue,
		"chirp.server_handler_us":       phHandler,
		"chirp.server_barrier_wait_us":  phBarrier,
		"chirp.server_wal_group_us":     phWALGroup,
		"chirp.server_reply_us":         phReply,
		"chirp.wire_us":                 phWire,
		"chirp.exec_rpc_us":             phExecRPC,
		"durable.commit_queue_us":       phCommitQ,
		"durable.commit_write_fsync_us": phCommitW,
	} {
		m[name] = ts.median[key]
	}
	pw, ps := r.cluster.primary.files.takeSamples()
	_, fsync := r.cluster.follower.files.takeSamples()
	m["durable.file_write_us"] = float64(percentile(sortedCopy(pw), 0.5)) / 1e3
	m["durable.file_sync_us"] = float64(percentile(sortedCopy(ps), 0.5)) / 1e3
	m["replica.follower_file_sync_us"] = float64(percentile(sortedCopy(fsync), 0.5)) / 1e3

	// Ledger: how much of an op's mean latency the spans account for.
	if mst.goodput > 0 {
		m["trace.overhead_frac"] = 1 - tst.goodput/mst.goodput
	}
	var explained float64
	for name, key := range map[string]string{
		"ledger.wire_us_per_op":         phWire,
		"ledger.lane_queue_us_per_op":   phQueue,
		"ledger.handler_us_per_op":      phHandler,
		"ledger.barrier_wait_us_per_op": phBarrier,
		"ledger.reply_us_per_op":        phReply,
	} {
		m[name] = m["chirp.rpcs_per_op"] * ts.mean[key]
		explained += m[name]
	}
	m["ledger.explained_us_per_op"] = explained
	if mean := meanLatUs(traced.ref); mean > 0 {
		m["ledger.unexplained_frac"] = 1 - explained/mean
	}
}

func stepMetric(i int) string { return fmt.Sprintf("driver.lat_p99_us_r%d", int(openRates[i])) }

func meanLatUs(w *window) float64 {
	var sum, n float64
	for _, s := range w.samples {
		if s.ok {
			sum += float64(s.latNs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n / 1e3
}

// shardSkew is max ÷ mean of the bytes each shard's segment chain took
// during the pass (1 is perfectly even; 0 when nothing was written).
func shardSkew(before, after map[string]int64, shards int) float64 {
	per := make([]float64, shards)
	var total float64
	for path, n := range after {
		// wal.cNN.sMM.SSSSSS.seg: the shard is the third dot-field.
		f := strings.Split(filepath.Base(path), ".")
		if len(f) != 5 || len(f[2]) < 2 {
			continue
		}
		var shard int
		if _, err := fmt.Sscanf(f[2], "s%d", &shard); err != nil || shard >= shards {
			continue
		}
		d := float64(n - before[path])
		per[shard] += d
		total += d
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(per)
	return per[shards-1] / (total / float64(shards))
}

// slotWaitP99 is the 99th percentile of the time requests waited for an
// execution slot. The program's histogram only sees requests that
// waited; the rest of the n requests waited zero.
func slotWaitP99(before, after []int64, n int64) float64 {
	bounds := obs.LatencyBuckets()
	var waited int64
	delta := make([]int64, len(after))
	for i := range after {
		delta[i] = after[i]
		if i < len(before) {
			delta[i] -= before[i]
		}
		waited += delta[i]
	}
	if n < waited {
		n = waited
	}
	rank := int64(0.99*float64(n)) - (n - waited)
	if rank <= 0 {
		return 0
	}
	var cum int64
	for i, d := range delta {
		cum += d
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1]
		}
	}
	return 0
}
