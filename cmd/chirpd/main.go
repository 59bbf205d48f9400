// Command chirpd runs a Chirp file server: a personal file server for
// grid computing that any ordinary user can deploy, exporting
// ACL-protected space and remote execution inside identity boxes.
//
// Usage:
//
//	chirpd [-addr host:port] [-owner name] [-root-acl "pattern rights;..."]
//	       [-catalog addr] [-name label] [-state dir] [-metrics host:port]
//	       [-compact-every d] [-fsync 0|1]
//	       [-replicate] [-replica-of addr] [-lease-ttl d]
//	       [-req-timeout d] [-drain d] [-admit-queue n]
//	       [-trace-spans n] [-trace-log file] [-trace-slow d] [-v]
//
// -state names a durable state directory: every mutation is journaled
// to a checksummed write-ahead log (fsynced per -fsync) and compacted
// into snapshots every -compact-every and at shutdown, so a crash — a
// kill -9 at any byte of the log — recovers to the exact pre-crash
// state, tokened-request dedupe table included. Without -state the
// volume is volatile. Log appends are group-committed: concurrent
// mutations coalesce into one write and one fsync per group, and a
// mutating request is acknowledged on the wire only after its group is
// durable. The log is one chain of bounded, checksummed segments,
// pruned once a snapshot (and every follower) has passed them.
//
// -replicate turns a stateful server into a replica-set member: every
// committed WAL group is published to subscribed followers, mutating
// replies wait (semi-sync, bounded) for a follower acknowledgement,
// and with -catalog and -name the server contends for the set's write
// lease (-lease-ttl the term). -replica-of starts this server as a
// follower of the named primary instead (implies -replicate): it
// serves from the start and catches up from the primary's WAL tail or
// a snapshot, at its first dial or any later one (an unreachable
// primary is retried, not fatal), applies the replicated stream into
// its own -state, serves reads (with waitlsn read barriers), refuses
// writes with ENOTPRIMARY, and, once it has followed the primary,
// stands for election when its stream breaks — winning promotes it to
// primary within roughly one lease TTL, with tokened retries exactly-once
// across the switch because the dedupe journal replicates with the
// WAL. A fenced former primary refuses writes until restarted as a
// follower of the new one.
//
// -req-timeout bounds the wire I/O of each request once its frame
// header arrives, so a stalled client cannot pin a session goroutine.
// On SIGINT the server drains gracefully: in-flight RPCs finish, new
// connections are refused, and after -drain stragglers are severed.
// A second SIGINT during the drain escalates: the drain is abandoned
// and every session severed immediately (the escalation is logged).
//
// Every session negotiates the v2 tagged protocol: requests are
// multiplexed out of order under a per-session credit window and served
// by the session's workers, one started for each request in flight that
// would otherwise wait. A client whose first line after
// authentication is not the version exchange (an old v1 client) gets
// one error line and is disconnected, its request never run.
//
// -admit-queue turns on overload protection: requests are admitted
// against a queue of that depth and a payload byte budget (EBUSY with a
// retry-after hint beyond either), scheduled onto execution slots
// fairly per principal, and shed with EDEADLINE once a client-supplied
// deadline budget expires.
//
// -metrics serves the server's telemetry over HTTP: Prometheus text
// exposition at /metrics (JSON with ?format=json), expvar at
// /debug/vars, pprof under /debug/pprof/, and recent request traces at
// /debug/traces (one trace with ?trace=<hexid>, JSON with
// ?format=json). The same counters are also reachable over the Chirp
// wire ("chirp stats" / "chirp metrics").
//
// Request tracing is on by default: clients that ask for the
// "trace" capability get per-request server spans — lane queue wait,
// handler, WAL group-commit and durability-barrier timing, reply
// flush — retained in a bounded ring (-trace-spans) and fetchable by
// trace ID over the wire ("chirp trace"). -trace-slow with -trace-log
// appends every traced request at least that slow to a JSONL file
// (0 logs every traced request). -trace-spans 0 disables tracing
// entirely; untraced requests never pay for any of this.
//
// The exported file system is a fresh in-memory volume; a handful of
// demo programs (echo, sum, sim) are pre-registered for remote exec.
// Authentication methods offered: unix and hostname (GSI requires
// sharing a CA with clients; see examples/gridjob for an end-to-end GSI
// deployment in one process).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"time"

	"identitybox/internal/acl"
	"identitybox/internal/admission"
	"identitybox/internal/auth"
	"identitybox/internal/chirp"
	"identitybox/internal/core"
	"identitybox/internal/durable"
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/replica"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9094", "listen address")
	owner := flag.String("owner", "chirp", "local account the server runs as")
	rootACL := flag.String("root-acl", "unix:* rwlax; hostname:* rl", "semicolon-separated root ACL entries")
	catalog := flag.String("catalog", "", "catalog address for heartbeats")
	name := flag.String("name", "", "advertised server name")
	state := flag.String("state", "", "durable state directory (WAL + snapshots); empty: volatile volume")
	compactEvery := flag.Duration("compact-every", time.Minute, "snapshot compaction interval with -state (0: compact only at shutdown)")
	fsyncEvery := flag.Int("fsync", 1, "WAL fsync policy with -state, 0 or 1 (1: fsync every commit group; 0: never, the OS decides)")
	replicate := flag.Bool("replicate", false, "publish the WAL to followers and contend for the write lease (needs -state)")
	replicaOf := flag.String("replica-of", "", "start as a follower streaming from this primary (implies -replicate)")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "write-lease term; failover completes within roughly one TTL")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/traces on this address")
	traceSpans := flag.Int("trace-spans", obs.DefaultSpanCapacity, "retained request spans (0: disable request tracing)")
	traceLog := flag.String("trace-log", "", "append slow traced requests to this JSONL file")
	traceSlow := flag.Duration("trace-slow", 100*time.Millisecond, "log traced requests at least this slow to -trace-log (0: log every traced request)")
	reqTimeout := flag.Duration("req-timeout", 30*time.Second, "per-request wire deadline after the frame header arrives (0: none)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain budget before severing sessions")
	admitQueue := flag.Int("admit-queue", 0, "bounded admit-queue depth for overload protection (0: admission control off)")
	verbose := flag.Bool("v", false, "log every request")
	flag.Parse()

	a, err := parseACLFlag(*rootACL)
	if err != nil {
		log.Fatalf("chirpd: -root-acl: %v", err)
	}

	reg := obs.NewRegistry()
	// One span ring shared by the Chirp server and the durable store, so
	// a trace's server spans and WAL group-commit spans land together.
	var spans *obs.SpanRing
	if *traceSpans > 0 {
		spans = obs.NewSpanRing(*traceSpans)
	}
	if *replicaOf != "" {
		*replicate = true
		if *replicaOf == *addr {
			log.Fatalf("chirpd: -replica-of must name another server")
		}
	}
	if *replicate && *state == "" {
		log.Fatalf("chirpd: replication (-replicate / -replica-of) needs -state")
	}
	if *replicate && *catalog != "" && *name == "" {
		log.Fatalf("chirpd: lease contention needs -name (the replica-set name)")
	}
	if *leaseTTL <= 0 {
		*leaseTTL = 3 * time.Second
	}
	if *fsyncEvery != 0 && *fsyncEvery != 1 {
		log.Fatalf("chirpd: -fsync takes 0 or 1, not %d", *fsyncEvery)
	}

	// The publisher exists before the store so the group-commit pipeline
	// can ship into it from its first group; Bind below closes the loop.
	var pub *replica.Publisher
	if *replicate {
		pub = replica.NewPublisher(reg, 0)
	}
	fs := vfs.New(*owner)
	var store *durable.Store
	if *state != "" {
		syncN := *fsyncEvery
		if syncN == 0 {
			syncN = -1 // never
		}
		dopts := durable.Options{
			Owner:       *owner,
			SyncEveryN:  syncN,
			Metrics:     reg,
			Spans:       spans,
			Logf:        log.Printf,
			ReplicaMode: *replicaOf != "",
		}
		if pub != nil {
			dopts.OnShip = pub.Ship
			// A sealed segment stays on disk until the slowest follower
			// has acked past it, so Subscribe can serve the tail without
			// a snapshot transfer.
			dopts.RetainLSN = pub.MinAcked
		}
		store, err = durable.Open(*state, dopts)
		if err != nil {
			log.Fatalf("chirpd: recovering %s: %v", *state, err)
		}
		fs = store.FS()
		fmt.Printf("chirpd: recovered state from %s (%s)\n", *state, store.Recovery())
	}
	if pub != nil {
		pub.Bind(store)
	}

	k := kernel.New(fs, vclock.Default())
	registerDemoPrograms(k)

	// The replication node runs this server's role: lease renewal as a
	// primary, stream-apply and election as a follower. It is created
	// before the server, whose options point at it. A follower's state
	// comes through the node alone, at its first dial or any later one.
	var node *replica.Node
	if *replicate {
		clientAuths := []auth.Authenticator{&auth.UnixClient{User: *owner}, &auth.HostnameClient{}}
		// Any dial may bring a snapshot, so each has the time one takes.
		dial := func(target string, fromLSN uint64) (replica.Stream, error) {
			rs, err := chirp.DialReplica(target, clientAuths, fromLSN, *leaseTTL+5*time.Second)
			if err != nil {
				return nil, err
			}
			rs.IdleTimeout = *leaseTTL
			return rs, nil
		}
		node, err = replica.Start(replica.Config{
			Name:        *name,
			Addr:        *addr,
			CatalogAddr: *catalog,
			TTL:         *leaseTTL,
			Store:       store,
			Publisher:   pub,
			PrimaryAddr: *replicaOf,
			Dial:        dial,
			OnFenced: func(epoch uint64, holder string) {
				log.Printf("chirpd: *** FENCED at epoch %d: lease held by %s; refusing writes (restart with -replica-of %s to rejoin) ***", epoch, holder, holder)
			},
			Logf:    log.Printf,
			Metrics: reg,
		})
		if err != nil {
			log.Fatalf("chirpd: starting replication: %v", err)
		}
	}

	opts := chirp.ServerOptions{
		Name:        *name,
		Owner:       *owner,
		RootACL:     a,
		CatalogAddr: *catalog,
		Metrics:     reg,
		Verifiers: map[auth.Method]auth.Verifier{
			auth.MethodUnix:     &auth.UnixVerifier{},
			auth.MethodHostname: &auth.HostnameVerifier{},
		},
		RequestTimeout: *reqTimeout,
		Spans:          spans,
		TraceSlow:      *traceSlow,
	}
	if *admitQueue > 0 {
		opts.Admission = admission.New(admission.Options{MaxQueue: *admitQueue, Metrics: reg})
	}
	var slowLog *core.JSONLSink
	if *traceLog != "" && spans != nil {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("chirpd: -trace-log: %v", err)
		}
		slowLog = core.NewFileJSONLSink(f, false)
		slowLog.SetAutoFlush(16)
		opts.TraceLog = slowLog
	}
	if store != nil {
		// The store is the dedupe table: retries replay what it recovered.
		opts.DedupeJournal = store
		// Mutating replies wait for their commit group (a tokened one
		// for its journaled reply, which follows it on the log): an
		// acknowledged op is on disk before the client hears "ok".
		opts.Durability = store
	}
	if *catalog != "" {
		// Periodic heartbeats keep the catalog's last-seen ages inside
		// its staleness budget; a replica-set member refreshes on the
		// lease cadence so role/epoch/lsn views stay current.
		opts.HeartbeatEvery = time.Minute
	}
	if node != nil {
		opts.Repl = pub
		opts.Role = node
		// The node folds the semi-sync follower wait into the durability
		// barrier and dedupe journal, so an acked mutation exists on a
		// follower (when one is subscribed) before the client hears "ok".
		opts.Durability = node
		opts.DedupeJournal = node
		if *catalog != "" {
			opts.HeartbeatEvery = *leaseTTL / 3
		}
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	srv, err := chirp.NewServer(k, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	if *metricsAddr != "" {
		reg.PublishExpvar("chirpd")
		// The default mux already carries expvar and pprof handlers.
		http.Handle("/metrics", reg.Handler())
		http.Handle("/debug/traces", obs.TracesHandler(spans))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				log.Printf("chirpd: metrics server: %v", err)
			}
		}()
		fmt.Printf("chirpd: metrics on http://%s/metrics\n", *metricsAddr)
	}
	fmt.Printf("chirpd: serving on %s as %s (root ACL: %s)\n", srv.Addr(), *owner,
		strings.ReplaceAll(strings.TrimSpace(a.String()), "\n", "; "))
	if node != nil {
		role, epoch := node.Role()
		fmt.Printf("chirpd: replication role %s, epoch %d, lease ttl %s\n", role, epoch, *leaseTTL)
	}

	// Periodic snapshot compaction keeps the WAL (and recovery time)
	// bounded. The final compaction happens at shutdown below.
	compactDone := make(chan struct{})
	if store != nil && *compactEvery > 0 {
		ticker := time.NewTicker(*compactEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := store.Compact(); err != nil {
						log.Printf("chirpd: compaction: %v", err)
					}
				case <-compactDone:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("chirpd: draining (in-flight RPCs finish, new connections refused; interrupt again to force)")
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(*drain) }()
	select {
	case err := <-drained:
		if err != nil {
			log.Printf("chirpd: %v", err)
		}
	case <-sig:
		log.Printf("chirpd: second interrupt during drain: forcing immediate shutdown, severing all sessions")
		srv.Close()
		<-drained
	}
	close(compactDone)
	if node != nil {
		node.Stop()
	}
	if pub != nil {
		pub.Close()
	}
	if slowLog != nil {
		if err := slowLog.Close(); err != nil {
			log.Printf("chirpd: closing trace log: %v", err)
		}
	}
	if store != nil {
		if err := store.Compact(); err != nil {
			log.Printf("chirpd: final compaction: %v", err)
		}
		if err := store.Close(); err != nil {
			log.Printf("chirpd: closing state: %v", err)
		}
		fmt.Printf("chirpd: state compacted to %s\n", *state)
	}
}

func parseACLFlag(s string) (*acl.ACL, error) {
	return acl.Parse(strings.ReplaceAll(s, ";", "\n"))
}

// registerDemoPrograms installs a few programs that staged executables
// can dispatch to with "#!prog <name>".
func registerDemoPrograms(k *kernel.Kernel) {
	k.RegisterProgram("echo", func(p *kernel.Proc, args []string) int {
		out := strings.Join(args, " ") + "\n"
		if err := p.WriteFile("echo.out", []byte(out), 0o644); err != nil {
			return 1
		}
		return 0
	})
	k.RegisterProgram("sum", func(p *kernel.Proc, args []string) int {
		data, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		var sum uint64
		for _, b := range data {
			sum += uint64(b)
		}
		if err := p.WriteFile("sum.out", []byte(fmt.Sprintf("%d\n", sum)), 0o644); err != nil {
			return 2
		}
		return 0
	})
	k.RegisterProgram("sim", func(p *kernel.Proc, args []string) int {
		in, err := p.ReadFile("input.dat")
		if err != nil {
			return 1
		}
		out := make([]byte, len(in))
		for i, b := range in {
			out[i] = b ^ 0x5a
		}
		p.Compute(1e6) // a second of virtual computation
		if err := p.WriteFile("out.dat", out, 0o644); err != nil {
			return 2
		}
		return 0
	})
}
