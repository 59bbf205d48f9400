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

	mu          sync.Mutex
	role        string
	epoch       uint64
	primaryAddr string

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
		cfg.TTL = 3 * time.Second
	}
	n := &Node{
		cfg:         cfg,
		role:        RolePrimary,
		epoch:       cfg.Store.Epoch(),
		primaryAddr: cfg.Addr,
		stop:        make(chan struct{}),
	}
	if cfg.Store.IsReplica() {
		n.role = RoleFollower
		n.primaryAddr = cfg.PrimaryAddr
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

	if n.role == RoleFollower {
		if cfg.Dial == nil {
			return nil, errors.New("replica: follower needs a Dial function")
		}
		n.wg.Add(1)
		go n.followerLoop()
	} else {
		n.wg.Add(1)
		go n.primaryLoop()
	}
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.epoch
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
	return n.primaryAddr
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

// --- primary ------------------------------------------------------------

// primaryLoop claims the lease immediately, then renews every TTL/3.
// A denial naming a higher epoch fences this node: it stops accepting
// writes (Role reports fenced; the server refuses mutating commands)
// and keeps claiming only to track who the holder is.
func (n *Node) primaryLoop() {
	defer n.wg.Done()
	if n.lease == nil {
		return // no catalog: static solo primary
	}
	n.claimAsPrimary()
	t := time.NewTicker(n.cfg.TTL / 3)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.claimAsPrimary()
		}
	}
}

// claimAsPrimary sends one claim/renewal and folds the answer into the
// node's state.
func (n *Node) claimAsPrimary() {
	n.mu.Lock()
	epoch := n.epoch
	fenced := n.role == RoleFenced
	n.mu.Unlock()
	res, err := n.lease.Claim(n.cfg.Store.AppliedLSN(), epoch)
	if err != nil {
		n.logf("replica: lease renewal: %v", err)
		return
	}
	if res.Granted {
		if fenced {
			// A deposed primary must not resume on a re-grant: its log may
			// have diverged from the epoch that fenced it. Operators
			// restart it as a follower (-replica-of the new primary).
			n.logf("replica: fenced node offered epoch %d; refusing (restart as follower to rejoin)", res.Epoch)
			return
		}
		if res.Epoch > epoch {
			if err := n.cfg.Store.SetEpochDurable(res.Epoch); err != nil {
				n.logf("replica: persisting epoch %d: %v", res.Epoch, err)
				return
			}
			n.cfg.Publisher.SetEpoch(res.Epoch)
			n.mu.Lock()
			n.epoch = res.Epoch
			n.mu.Unlock()
			n.logf("replica: holding lease %q at epoch %d", n.cfg.Name, res.Epoch)
		}
		return
	}
	// Denied: someone else holds the lease. A higher epoch is the fence.
	n.mu.Lock()
	if res.Epoch > n.epoch || (res.Holder != "" && res.Holder != n.cfg.Addr) {
		if n.role == RolePrimary {
			n.role = RoleFenced
			n.mu.Unlock()
			n.logf("replica: fenced at epoch %d (lease held by %s)", res.Epoch, res.Holder)
			if n.cfg.OnFenced != nil {
				n.cfg.OnFenced(res.Epoch, res.Holder)
			}
			n.mu.Lock()
		}
		n.epoch = res.Epoch
		n.primaryAddr = res.Holder
	}
	n.mu.Unlock()
}

// --- follower -----------------------------------------------------------

// followerLoop streams from the primary and applies every batch; when
// the stream dies it stands for election, promoting on a grant and
// re-targeting the new holder on a denial. Until it has followed a
// primary in this process it only re-dials: its state may be stale.
func (n *Node) followerLoop() {
	defer n.wg.Done()
	retry := n.cfg.TTL / 4
	if retry <= 0 {
		retry = 100 * time.Millisecond
	}
	followed := false
	var dials dialLog
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		n.mu.Lock()
		upstream := n.primaryAddr
		n.mu.Unlock()
		if upstream != "" && upstream != n.cfg.Addr {
			followed = n.streamFrom(upstream, &dials) || followed
		}
		select {
		case <-n.stop:
			return
		default:
		}
		if followed && n.standForElection() {
			n.wg.Add(1)
			go n.primaryLoop()
			return
		}
		select {
		case <-n.stop:
			return
		case <-time.After(retry):
		}
	}
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

// standForElection claims the lease once. A grant promotes this node:
// the store starts accepting writes under the new epoch (continuing
// the primary's LSN sequence) and the publisher stamps the new term.
// A denial names the winner, which becomes the new upstream. Reports
// whether this node is now the primary.
func (n *Node) standForElection() bool {
	if n.lease == nil {
		return false
	}
	n.mu.Lock()
	epoch := n.epoch
	n.mu.Unlock()
	res, err := n.lease.Claim(n.cfg.Store.AppliedLSN(), epoch)
	if err != nil {
		n.logf("replica: election claim: %v", err)
		return false
	}
	if !res.Granted {
		n.mu.Lock()
		if res.Epoch > n.epoch {
			n.epoch = res.Epoch
		}
		if res.Holder != "" {
			n.primaryAddr = res.Holder
		}
		n.mu.Unlock()
		return false
	}
	if err := n.cfg.Store.Promote(res.Epoch); err != nil {
		n.logf("replica: promotion to epoch %d failed: %v", res.Epoch, err)
		return false
	}
	n.cfg.Publisher.SetEpoch(res.Epoch)
	n.mu.Lock()
	n.role = RolePrimary
	n.epoch = res.Epoch
	n.primaryAddr = n.cfg.Addr
	n.mu.Unlock()
	n.promotions.Inc()
	n.logf("replica: promoted to primary at epoch %d (applied lsn %d)", res.Epoch, n.cfg.Store.AppliedLSN())
	return true
}
