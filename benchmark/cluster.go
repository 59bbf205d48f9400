package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
)

// prodConfig is the production configuration under test. Every field
// corresponds to a chirpd flag (named in the comment and echoed in the
// output); zero means "the built-in default", exactly as on the chirpd
// command line.
type prodConfig struct {
	Owner          string
	WALShards      int           // -wal-shards
	Fsync          int           // -fsync
	CommitWindow   time.Duration // -commit-window (0: built-in default)
	CommitBatch    int           // -commit-batch (0: built-in default)
	CompactEvery   time.Duration // -compact-every
	AdmitQueue     int           // -admit-queue
	ExecSlots      int           // -exec-slots (0: built-in default)
	Window         int           // -window (0: built-in default)
	Workers        int           // -workers (0: built-in default)
	ReqTimeout     time.Duration // -req-timeout
	LeaseTTL       time.Duration // -lease-ttl
	DeadlineBudget time.Duration // chirp -deadline-budget
	Conns          int           // client connections, C = min(nproc, 4)
}

func defaultConfig() prodConfig {
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}
	return prodConfig{
		Owner:          "chirp",
		WALShards:      8,
		Fsync:          1,
		CompactEvery:   5 * time.Second,
		AdmitQueue:     256,
		ReqTimeout:     30 * time.Second,
		LeaseTTL:       3 * time.Second,
		DeadlineBudget: 2 * time.Second,
		Conns:          conns,
	}
}

// member is one replica-set member, assembled through the same exported
// constructors, in the same order, as cmd/chirpd/main.go.
type member struct {
	dir   string
	reg   *obs.Registry
	pub   *replica.Publisher
	store *durable.Store
	node  *replica.Node
	srv   *chirp.Server
	adm   *admission.Controller
	files *fileTracker
	ship  shipCounters
	dd    *countingDedupe
}

// cluster is the system under test: a primary with one semi-sync
// follower, plus the harness-owned compaction ticker.
type cluster struct {
	cfg      prodConfig
	dir      string
	primary  *member
	follower *member

	// compactMu excludes the crash check's copy of the state directory
	// from a concurrent compaction (which rewrites the snapshot and
	// prunes segments).
	compactMu   sync.Mutex
	compactStop chan struct{}
	compactDone chan struct{}
	pausesNs    []int64 // store.Compact() durations, guarded by compactMu
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startCluster builds both stores and servers under dir and subscribes
// the follower. spans, when non-nil, is the one ring the servers, the
// stores and (later) the clients record into.
func startCluster(dir string, cfg prodConfig, spans *obs.SpanRing) (*cluster, error) {
	cl := &cluster{cfg: cfg, dir: dir}
	var err error
	if cl.primary, err = startMember(filepath.Join(dir, "primary"), cfg, spans, ""); err != nil {
		return nil, err
	}
	if cl.follower, err = startMember(filepath.Join(dir, "follower"), cfg, spans, cl.primary.srv.Addr()); err != nil {
		cl.primary.stop()
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.primary.pub.Subscribers() != 1 {
		if time.Now().After(deadline) {
			cl.stop()
			return nil, errors.New("follower did not subscribe")
		}
		time.Sleep(time.Millisecond)
	}
	return cl, nil
}

func startMember(dir string, cfg prodConfig, spans *obs.SpanRing, replicaOf string) (*member, error) {
	m := &member{dir: dir, reg: obs.NewRegistry(), files: newFileTracker()}
	m.pub = replica.NewPublisher(m.reg, 0)
	syncN := cfg.Fsync
	if syncN <= 0 {
		syncN = -1
	}
	store, err := durable.Open(dir, durable.Options{
		Owner:        cfg.Owner,
		SyncEveryN:   syncN,
		CommitWindow: cfg.CommitWindow,
		CommitBatch:  cfg.CommitBatch,
		Metrics:      m.reg,
		Spans:        spans,
		ReplicaMode:  replicaOf != "",
		Shards:       cfg.WALShards,
		OnShip:       m.ship.wrap(m.pub.Ship),
		RetainLSN:    m.pub.MinAcked,
		OpenAppend:   m.files.open,
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	m.store = store
	m.pub.Bind(store)

	clientAuths := []auth.Authenticator{&auth.UnixClient{User: cfg.Owner}}
	var firstStream *chirp.ReplicaSession
	if replicaOf != "" {
		rs, err := chirp.DialReplica(replicaOf, clientAuths, store.AppliedLSN(), cfg.LeaseTTL+5*time.Second)
		if err != nil {
			store.Close()
			return nil, fmt.Errorf("bootstrapping from %s: %w", replicaOf, err)
		}
		rs.IdleTimeout = cfg.LeaseTTL
		if rs.Snap != nil {
			if err := store.LoadReplicaSnapshot(rs.Snap); err != nil {
				rs.Close()
				store.Close()
				return nil, err
			}
		}
		firstStream = rs
	}
	k := kernel.New(store.FS(), vclock.Default())
	registerSim(k)

	addr, err := freeAddr()
	if err != nil {
		store.Close()
		return nil, err
	}
	dial := func(target string, fromLSN uint64) (replica.Stream, error) {
		if s := firstStream; s != nil {
			firstStream = nil
			return s, nil
		}
		rs, err := chirp.DialReplica(target, clientAuths, fromLSN, cfg.LeaseTTL)
		if err != nil {
			return nil, err
		}
		rs.IdleTimeout = cfg.LeaseTTL
		if rs.Snap != nil {
			rs.Close()
			return nil, errors.New("primary demands a snapshot bootstrap")
		}
		return rs, nil
	}
	m.node, err = replica.Start(replica.Config{
		Addr:        addr,
		TTL:         cfg.LeaseTTL,
		Store:       store,
		Publisher:   m.pub,
		PrimaryAddr: replicaOf,
		Dial:        dial,
		Metrics:     m.reg,
	})
	if err != nil {
		store.Close()
		return nil, err
	}

	rootACL := &acl.ACL{}
	rootACL.Set("unix:"+adminUser, acl.All, acl.None)
	// Visitors may list the root and hold the reserve right: a mkdir
	// mints a directory whose ACL names only its creator.
	rootACL.Set("unix:*", acl.Read|acl.List|acl.Reserve, acl.All)
	m.adm = admission.New(admission.Options{MaxQueue: cfg.AdmitQueue, ExecSlots: cfg.ExecSlots, Metrics: m.reg})
	m.dd = &countingDedupe{DedupeJournal: m.node}
	m.srv, err = chirp.NewServer(k, chirp.ServerOptions{
		Owner:          cfg.Owner,
		RootACL:        rootACL,
		Metrics:        m.reg,
		Verifiers:      map[auth.Method]auth.Verifier{auth.MethodUnix: &auth.UnixVerifier{}},
		RequestTimeout: cfg.ReqTimeout,
		Window:         cfg.Window,
		Workers:        cfg.Workers,
		Spans:          spans,
		Admission:      m.adm,
		DedupeJournal:  m.dd,
		DedupeSeed:     store.DedupeEntries(),
		Durability:     m.node,
		Repl:           m.pub,
		Role:           m.node,
	})
	if err == nil {
		err = m.srv.Listen(addr)
	}
	if err != nil {
		m.node.Stop()
		m.pub.Close()
		store.Close()
		return nil, err
	}
	return m, nil
}

// registerSim installs chirpd's "sim" demo program: out.dat is
// input.dat XOR 0x5a after a second of virtual computation.
func registerSim(k *kernel.Kernel) {
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		out := make([]byte, len(in))
		for i, b := range in {
			out[i] = b ^ 0x5a
		}
		p.Compute(1e6)
		if err := p.WriteFile("out.dat", out, 0o644); err != nil {
			return 2
		}
		return 0
	})
}

// stop severs the member's sessions and closes its store (no final
// compaction: the harness discards the state directory). Close on a
// server is idempotent.
func (m *member) stop() {
	m.srv.Close()
	m.node.Stop()
	m.pub.Close()
	m.store.Close()
}

// startCompaction runs store.Compact() on the primary every
// cfg.CompactEvery, as chirpd's ticker does, timing each pause.
func (cl *cluster) startCompaction() {
	cl.compactStop = make(chan struct{})
	cl.compactDone = make(chan struct{})
	go func() {
		defer close(cl.compactDone)
		t := time.NewTicker(cl.cfg.CompactEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				cl.compactMu.Lock()
				t0 := time.Now()
				err := cl.primary.store.Compact()
				cl.pausesNs = append(cl.pausesNs, int64(time.Since(t0)))
				cl.compactMu.Unlock()
				if err != nil {
					fmt.Fprintf(os.Stderr, "chirpbench: compaction: %v\n", err)
				}
			case <-cl.compactStop:
				return
			}
		}
	}()
}

func (cl *cluster) stopCompaction() {
	if cl.compactStop != nil {
		close(cl.compactStop)
		<-cl.compactDone
		cl.compactStop = nil
	}
}

// takePauses returns and clears the recorded compaction pauses.
func (cl *cluster) takePauses() []int64 {
	cl.compactMu.Lock()
	defer cl.compactMu.Unlock()
	p := cl.pausesNs
	cl.pausesNs = nil
	return p
}

// stop tears the whole cluster down. The primary's server goes first:
// severing its sessions ends the follower's replication stream, which is
// what lets the follower's apply loop (blocked reading that stream, and
// the only goroutine allowed to close it) see its stop signal at once.
func (cl *cluster) stop() {
	cl.stopCompaction()
	if cl.primary != nil {
		cl.primary.srv.Close()
	}
	if cl.follower != nil {
		cl.follower.stop()
	}
	if cl.primary != nil {
		cl.primary.stop()
	}
}

// dial opens n v2 sessions for one user, all through the counting
// dialer. A non-nil spans makes the sessions negotiate the trace
// capability and record client spans.
func (cl *cluster) dial(user string, n int, wire *wireCounters, reg *obs.Registry, spans *obs.SpanRing) ([]*chirp.Client, error) {
	opts := chirp.ClientOptions{
		DeadlineBudget: cl.cfg.DeadlineBudget,
		Dialer:         wire.dialer,
		Metrics:        reg,
		Spans:          spans,
	}
	var out []*chirp.Client
	for i := 0; i < n; i++ {
		c, err := chirp.DialOpts(cl.primary.srv.Addr(), []auth.Authenticator{&auth.UnixClient{User: user}}, opts)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// sessions are the connections a workload runs over: one per bench
// principal, plus the administrator's (stage_exec's directory reaper).
type sessions struct {
	bench []*chirp.Client
	admin *chirp.Client
}

func (cl *cluster) dialSessions(wire *wireCounters, reg *obs.Registry, spans *obs.SpanRing) (*sessions, error) {
	s := &sessions{}
	admin, err := cl.dial(adminUser, 1, wire, reg, spans)
	if err != nil {
		return nil, err
	}
	s.admin = admin[0]
	for c := 0; c < cl.cfg.Conns; c++ {
		one, err := cl.dial(benchUser(c), 1, wire, reg, spans)
		if err != nil {
			s.close()
			return nil, err
		}
		s.bench = append(s.bench, one...)
	}
	return s, nil
}

func (s *sessions) close() {
	if s == nil {
		return
	}
	s.admin.Close()
	closeAll(s.bench)
}

func closeAll(cls []*chirp.Client) {
	for _, c := range cls {
		c.Close()
	}
}
