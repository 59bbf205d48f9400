package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"identitybox/internal/durable"
	"identitybox/internal/obs"
)

// Config wires a Node into its process.
type Config struct {
	// Name is the replica-set name — the catalog name every member
	// advertises, and the lease all of them contend for.
	Name string
	// Addr is this server's advertised Chirp address (the lease
	// identity: grants and denials name holders by it).
	Addr string
	// CatalogAddr is the catalog's UDP endpoint (leases ride the same
	// socket as heartbeats). Empty disables leasing: the node keeps its
	// starting role forever (a solo primary, or a follower that never
	// stands for election).
	CatalogAddr string
	// TTL is the lease term. The primary renews every TTL/3; a follower
	// whose stream died claims on the same cadence, so writes resume
	// within roughly one TTL of a primary failure. 0 means 3s.
	TTL time.Duration
	// Store is this node's durable store (replica mode for followers).
	Store *durable.Store
	// Publisher fans committed groups out to followers; required (a
	// follower's publisher idles until promotion).
	Publisher *Publisher
	// PrimaryAddr is the upstream to stream from when starting as a
	// follower (the -replica-of flag). Updated by lease denials, which
	// name the current holder.
	PrimaryAddr string
	// Dial opens a replication stream to a primary from the given
	// applied LSN. Required for followers (chirp.DialReplica wrapped to
	// this shape); nil on a solo primary.
	Dial func(addr string, fromLSN uint64) (Stream, error)
	// OnFenced, when set, runs when a lease denial fences this primary.
	OnFenced func(epoch uint64, holder string)
	// Logf receives one line per role transition and stream fault.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the node's gauges and counters.
	Metrics *obs.Registry
}

// Node runs one server's replication role: primary (renewing the
// lease, semi-sync shipping), follower (applying the stream, standing
// for election when it breaks), or fenced (a deposed primary refusing
// writes). It implements the chirp server's Durability and
// DedupeJournal extension points so mutating acknowledgements pick up
// the semi-sync wait transparently.
type Node struct {
	cfg   Config
	lease *LeaseClient

	mu sync.Mutex
	lv leaseView // the role, the epoch the lease last answered, and the upstream

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	promotions *obs.Counter
}

// Start brings the node up in the role its store recovered: replica
// mode means follower, anything else primary. The background loops
// (lease renewal, stream apply) run until Stop.
func Start(cfg Config) (*Node, error) {
	if cfg.Store == nil || cfg.Publisher == nil {
		return nil, errors.New("replica: node needs a store and a publisher")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultLeaseTTL
	}
	n := &Node{
		cfg:  cfg,
		lv:   leaseView{role: RolePrimary, epoch: cfg.Store.Epoch(), upstream: cfg.Addr},
		stop: make(chan struct{}),
	}
	if cfg.Store.IsReplica() {
		n.lv.role, n.lv.upstream = RoleFollower, cfg.PrimaryAddr
	}
	if cfg.CatalogAddr != "" {
		n.lease = &LeaseClient{
			CatalogAddr: cfg.CatalogAddr,
			Name:        cfg.Name,
			Addr:        cfg.Addr,
			// A claim may wait out the catalog's election window (TTL/4),
			// so give it the whole TTL before calling the catalog lost.
			Timeout: cfg.TTL,
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Help(MetricPromotions, "Follower promotions to primary on this node.")
	reg.Help(MetricAppliedLSN, "Highest LSN applied to this node's state (sampled at read).")
	n.promotions = reg.Counter(MetricPromotions)
	reg.GaugeFunc(MetricAppliedLSN, func() int64 { return int64(cfg.Store.AppliedLSN()) })

	if n.lv.role == RoleFollower && cfg.Dial == nil {
		return nil, errors.New("replica: follower needs a Dial function")
	}
	n.wg.Add(1)
	go n.run()
	return n, nil
}

// Stop ends the background loops. The node keeps answering role
// queries (for a clean server shutdown) but no longer renews or
// claims.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Role reports the node's role and fencing epoch (chirp.RoleSource).
func (n *Node) Role() (string, uint64) {
	v := n.view()
	return v.role, v.epoch
}

// AppliedLSN reports the highest LSN applied to this node's state
// (chirp.RoleSource).
func (n *Node) AppliedLSN() uint64 { return n.cfg.Store.AppliedLSN() }

// WaitApplied blocks until this node's state reflects lsn, for
// bounded-staleness reads against a follower (chirp.RoleSource). On a
// primary it returns immediately — the state is authoritative.
func (n *Node) WaitApplied(lsn uint64, timeout time.Duration) error {
	return n.cfg.Store.WaitApplied(lsn, timeout)
}

// PrimaryAddr reports where writes should go: this node's own address
// when primary, the last-known lease holder otherwise
// (chirp.RoleSource; servers put it in not-primary error replies so
// clients can re-target).
func (n *Node) PrimaryAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lv.upstream
}

// Barrier implements the chirp server's Durability hook: local
// durability first, then the semi-sync wait — the reply may reach the
// wire only once the mutation's group is on stable storage here AND
// acknowledged by a follower (when one is subscribed).
func (n *Node) Barrier() error {
	return n.shipped(n.cfg.Store.Barrier())
}

// BarrierTraced is Barrier for traced requests: the durable store's
// commit-group latency, then the semi-sync wait.
func (n *Node) BarrierTraced() (commit time.Duration, err error) {
	commit, err = n.cfg.Store.BarrierTraced()
	return commit, n.shipped(err)
}

// shipped follows a local durability wait that returned err with the
// semi-sync wait for the store's durable horizon, which covers the
// caller's records.
func (n *Node) shipped(err error) error {
	if err != nil {
		return err
	}
	return n.cfg.Publisher.WaitShipped(n.cfg.Store.DurableLSN())
}

// LookupDedupe implements the chirp server's DedupeJournal hook by
// asking the store, whose table a follower keeps current as it applies
// the replicated log: a retry reaching a follower, or the node once
// promoted, replays what the primary recorded.
func (n *Node) LookupDedupe(key string) ([]string, bool) {
	return n.cfg.Store.LookupDedupe(key)
}

// AppendDedupe implements the chirp server's DedupeJournal hook: the
// tokened reply is journaled (locally durable — the store waits) and
// then semi-sync shipped, so the dedupe entry exists on the follower
// before the client can see the answer. That is what keeps tokened
// retries exactly-once ACROSS a promotion: the promoted follower's
// dedupe table already holds every acknowledged reply.
func (n *Node) AppendDedupe(key string, reply []string) error {
	return n.shipped(n.cfg.Store.AppendDedupe(key, reply))
}

// run is the node's lease state machine, one loop for every role. A
// follower streams from its upstream and, once it has followed a primary
// in this process (before, its state may be stale), claims whenever its
// stream ends; it re-dials TTL/4 later unless promoted. A primary, or a
// fenced node tracking the holder, claims at once and then every TTL/3.
func (n *Node) run() {
	defer n.wg.Done()
	var followed bool
	var dials dialLog
	var wait time.Duration
	for {
		select {
		case <-n.stop:
			return
		case <-time.After(wait):
		}
		v := n.view()
		if v.role != RoleFollower {
			if n.lease == nil {
				return
			}
			n.claim()
			wait = n.cfg.TTL / 3
			continue
		}
		if v.upstream != "" && v.upstream != n.cfg.Addr {
			followed = n.streamFrom(v.upstream, &dials) || followed
		}
		select {
		case <-n.stop:
			return
		default:
		}
		wait = n.cfg.TTL / 4
		if followed && n.lease != nil && n.claim() {
			wait = 0 // promoted: renew at once
		}
	}
}

// claim sends one claim (a renewal, for a primary) and folds the answer
// into the node, once the store agrees: a promotion starts the store
// accepting writes under the new epoch, continuing the primary's LSN
// sequence, and a primary's higher epoch is made durable first. A
// fenced node refuses writes (the server answers ENOTPRIMARY). Reports
// whether this node is now the primary.
func (n *Node) claim() bool {
	was := n.view()
	res, err := n.lease.Claim(n.cfg.Store.AppliedLSN(), was.epoch)
	if err != nil {
		n.logf("replica: lease claim as %s: %v", was.role, err)
		return was.role == RolePrimary
	}
	next := was.fold(n.cfg.Addr, res)
	switch {
	case was.role == RoleFenced && res.Granted:
		// Operators restart a deposed primary as a follower
		// (-replica-of the new primary) to rejoin.
		n.logf("replica: fenced node offered epoch %d; refusing (restart as follower to rejoin)", res.Epoch)
	case was.role == RoleFollower && next.role == RolePrimary:
		if err = n.cfg.Store.Promote(next.epoch); err == nil {
			n.promotions.Inc()
		}
	case next.role == RolePrimary && next.epoch > was.epoch:
		err = n.cfg.Store.SetEpochDurable(next.epoch)
	}
	if err != nil {
		n.logf("replica: taking epoch %d as %s: %v", next.epoch, next.role, err)
		return was.role == RolePrimary
	}
	if next.role == RolePrimary && next.epoch > was.epoch {
		n.cfg.Publisher.SetEpoch(next.epoch)
		n.logf("replica: %s primary of %q at epoch %d (applied lsn %d)", was.role, n.cfg.Name, next.epoch, n.cfg.Store.AppliedLSN())
	}
	n.mu.Lock()
	n.lv = next
	n.mu.Unlock()
	if was.role == RolePrimary && next.role == RoleFenced {
		n.logf("replica: fenced at epoch %d (lease held by %s)", res.Epoch, res.Holder)
		if n.cfg.OnFenced != nil {
			n.cfg.OnFenced(res.Epoch, res.Holder)
		}
	}
	return next.role == RolePrimary
}

// view is the node's lease state as it claims with it.
func (n *Node) view() leaseView {
	n.mu.Lock()
	v := n.lv
	n.mu.Unlock()
	if v.role != RoleFollower {
		return v // the store's epoch is the node's
	}
	return v.withStore(n.cfg.Store.Epoch())
}

// dialLog keeps a follower's re-dials of a primary it cannot reach to
// two log lines: a failure is logged when its text first appears, its
// identical repeats are only counted, and the dial that succeeds logs
// how many failed before it.
type dialLog struct {
	last  string // text of the last failure logged; "" after a success
	fails int    // failed dials since the last success
}

// streamFrom applies the primary's feed until it breaks, loading a
// snapshot batch only when it is ahead of the applied horizon. It
// reports whether a batch was taken in: whether this node followed addr.
func (n *Node) streamFrom(addr string, dials *dialLog) (followed bool) {
	stream, err := n.cfg.Dial(addr, n.cfg.Store.AppliedLSN())
	if err != nil {
		dials.fails++
		if text := fmt.Sprintf("replica: streaming from %s: %v", addr, err); text != dials.last {
			dials.last = text
			n.logf("%s", text)
		}
		return false
	}
	if dials.fails > 0 {
		n.logf("replica: dialled %s after %d failed attempts", addr, dials.fails)
		*dials = dialLog{}
	}
	defer stream.Close()
	n.logf("replica: following %s from lsn %d", addr, n.cfg.Store.AppliedLSN())
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		b, err := stream.Next()
		if err != nil {
			n.logf("replica: stream from %s ended: %v", addr, err)
			return
		}
		switch {
		case b.Snap == nil:
			_, err = n.cfg.Store.ApplyReplicated(b.Epoch, b.First, b.Last, b.Frames)
		case b.Last > n.cfg.Store.AppliedLSN():
			if err = n.cfg.Store.LoadReplicaSnapshot(b.Snap); err == nil {
				n.logf("replica: loaded %s's snapshot at lsn %d (epoch %d)", addr, b.Last, b.Epoch)
			}
		}
		if err != nil {
			n.logf("replica: applying batch [%d,%d] epoch %d: %v", b.First, b.Last, b.Epoch, err)
			if errors.Is(err, durable.ErrStaleEpoch) {
				// The stream's source is a fenced primary; drop it and let
				// the election machinery find the real one.
				return
			}
			if errors.Is(err, durable.ErrReplicaGap) {
				return // resubscribe from the applied LSN
			}
			continue
		}
		followed = true
		if err := stream.Ack(n.cfg.Store.AppliedLSN()); err != nil {
			n.logf("replica: acking %s: %v", addr, err)
			return
		}
	}
}
