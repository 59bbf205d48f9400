package replica

import (
	"errors"
	"math"
	"sync"
	"time"

	"identitybox/internal/durable"
	"identitybox/internal/obs"
)

// subChanDepth is each subscriber's buffered-batch budget. A follower
// that falls further behind than this (its apply loop stalled, its link
// dead but not yet detected) is cut loose with a gap signal and must
// resubscribe from its applied LSN, rather than buffering the primary's
// write stream without bound.
const subChanDepth = 64

// ErrPublisherClosed is returned by Subscribe after Close.
var ErrPublisherClosed = errors.New("replica: publisher closed")

// Publisher is the primary side of replication: it receives every
// committed group from the durable store's group-commit pipeline (wire
// its Ship method to durable.Options.OnShip) and fans the raw frames
// out to subscribed followers in commit order. It also implements the
// semi-sync wait: WaitShipped parks until some follower has
// acknowledged a given LSN, so a mutating reply can require its commit
// group to exist on a second machine before reaching the wire.
//
// Create the Publisher first, open the store with OnShip: pub.Ship,
// then Bind the store before its first write — a store ships only the
// groups its own writes form, and a follower none until Promote, so the
// late bind is safe.
type Publisher struct {
	mu     sync.Mutex
	store  *durable.Store
	subs   map[int64]*subscriber
	nextID int64
	closed bool

	// acked is the highest LSN any subscriber has acknowledged, the
	// horizon WaitShipped parks on; it is released while no subscriber
	// is left to wait for. Moved only with mu held (publishLocked).
	acked durable.Horizon

	// epoch is the fencing term stamped on every shipped batch header.
	// The node updates it after SetEpochDurable/Promote; Ship must not
	// read it from the store — the committer goroutine calls Ship, and
	// store.Epoch takes the store mutex that WALTailSince holds while
	// waiting for the committer (a lock cycle).
	epoch uint64

	syncTimeout time.Duration

	groups    *obs.Counter
	bytes     *obs.Counter
	timeouts  *obs.Counter
	overflows *obs.Counter
	subsGauge *obs.Gauge
}

// subscriber is one follower's fan-out endpoint.
type subscriber struct {
	id    int64
	ch    chan Batch
	acked uint64
	gone  bool
}

// NewPublisher creates a publisher recording into reg (nil for a
// private registry). syncTimeout bounds WaitShipped (0 means
// DefaultSyncTimeout).
func NewPublisher(reg *obs.Registry, syncTimeout time.Duration) *Publisher {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if syncTimeout <= 0 {
		syncTimeout = DefaultSyncTimeout
	}
	reg.Help(MetricGroupsShipped, "Commit groups shipped to followers.")
	reg.Help(MetricBytesShipped, "WAL frame bytes shipped to followers.")
	reg.Help(MetricSyncTimeouts, "Semi-sync barriers that timed out waiting for a follower ack (degraded to local durability).")
	reg.Help(MetricSubOverflows, "Subscribers dropped for falling too far behind the ship stream.")
	reg.Help(MetricSubscribers, "Followers currently subscribed.")
	reg.Help(MetricLag, "Records the slowest subscribed follower trails the durable horizon (sampled at read).")
	p := &Publisher{
		subs:        make(map[int64]*subscriber),
		syncTimeout: syncTimeout,
		groups:      reg.Counter(MetricGroupsShipped),
		bytes:       reg.Counter(MetricBytesShipped),
		timeouts:    reg.Counter(MetricSyncTimeouts),
		overflows:   reg.Counter(MetricSubOverflows),
		subsGauge:   reg.Gauge(MetricSubscribers),
	}
	reg.GaugeFunc(MetricLag, p.lag)
	p.acked.Release(true)
	return p
}

// Bind attaches the durable store whose groups this publisher ships.
// Call once, before the store starts committing (in practice: right
// after durable.Open, whose Options.OnShip already points at Ship).
func (p *Publisher) Bind(store *durable.Store) {
	p.mu.Lock()
	p.store = store
	p.epoch = store.Epoch()
	p.mu.Unlock()
}

// SetEpoch updates the fencing term stamped on subsequent batch
// headers. The node calls it after SetEpochDurable/Promote; the epoch
// record itself rides the replicated stream, so a header briefly one
// term behind is harmless (followers adopt the higher of header and
// record).
func (p *Publisher) SetEpoch(epoch uint64) {
	p.mu.Lock()
	if epoch > p.epoch {
		p.epoch = epoch
	}
	p.mu.Unlock()
}

// Epoch reports the term currently stamped on shipped batches.
func (p *Publisher) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Ship is the durable.Options.OnShip hook: one committed group, called
// by the committer outside the WAL lock, in commit order, before the
// group's local waiters wake. Ownership of frames rests here; every
// subscriber sees the same shared buffer and must treat it as read-only
// (followers decode, never mutate).
func (p *Publisher) Ship(first, last uint64, records int, frames []byte) {
	p.groups.Inc()
	p.bytes.Add(int64(len(frames)))
	p.mu.Lock()
	b := Batch{Epoch: p.epoch, First: first, Last: last, Records: records, Frames: frames}
	for id, sub := range p.subs {
		select {
		case sub.ch <- b:
		default:
			// The follower is not draining; cut it loose with a gap
			// signal (channel close) so it resubscribes from its applied
			// LSN instead of buffering without bound. Its departure may
			// lower the acked horizon or leave no subscriber to wait
			// for; a ship alone never moves the horizon.
			p.overflows.Inc()
			sub.gone = true
			close(sub.ch)
			delete(p.subs, id)
			p.subsGauge.Dec()
			p.publishLocked()
		}
	}
	p.mu.Unlock()
}

// publishLocked moves the acked horizon to the highest acknowledgement
// of any subscriber, releasing it when none is left to wait for (or the
// publisher is closed). Caller holds mu.
func (p *Publisher) publishLocked() {
	var high uint64
	for _, s := range p.subs {
		high = max(high, s.acked)
	}
	p.acked.Set(high)
	p.acked.Release(p.closed || len(p.subs) == 0)
}

// Subscription is one follower's registration with the publisher. C
// delivers batches in commit order; it is closed when the follower
// fell too far behind (resubscribe from the applied LSN) or the
// publisher shut down.
type Subscription struct {
	C   <-chan Batch
	id  int64
	pub *Publisher
}

// Ack reports the follower's applied horizon, releasing semi-sync
// waiters at or below lsn.
func (sub *Subscription) Ack(lsn uint64) {
	p := sub.pub
	p.mu.Lock()
	if s, ok := p.subs[sub.id]; ok && lsn > s.acked {
		s.acked = lsn
		p.publishLocked()
	}
	p.mu.Unlock()
}

// Close removes the subscription.
func (sub *Subscription) Close() {
	p := sub.pub
	p.mu.Lock()
	if s, ok := p.subs[sub.id]; ok && !s.gone {
		s.gone = true
		close(s.ch)
		delete(p.subs, sub.id)
		p.subsGauge.Dec()
		p.publishLocked()
	}
	p.mu.Unlock()
}

// Subscribe registers a follower whose applied horizon is fromLSN and
// computes its catch-up, the subscription's first batch: the WAL tail
// past fromLSN when the log still holds it (empty when there is none),
// or a snapshot batch when compaction already truncated that history
// (the follower loads it and receives the stream from its Last).
// Registration happens before the catch-up is computed, so no group
// can fall between them; any overlap between the catch-up and
// already-buffered live batches is dropped idempotently by the
// follower's ApplyReplicated.
func (p *Publisher) Subscribe(fromLSN uint64) (sub *Subscription, catchup Batch, err error) {
	p.mu.Lock()
	if p.closed || p.store == nil {
		p.mu.Unlock()
		return nil, Batch{}, ErrPublisherClosed
	}
	store := p.store
	id := p.nextID
	p.nextID++
	s := &subscriber{id: id, ch: make(chan Batch, subChanDepth), acked: fromLSN}
	p.subs[id] = s
	p.subsGauge.Inc()
	p.publishLocked()
	sub = &Subscription{C: s.ch, id: id, pub: p}
	p.mu.Unlock()

	frames, first, last, records, err := store.WALTailSince(fromLSN)
	if errors.Is(err, durable.ErrReplicaGap) {
		var blob []byte
		blob, last, _, err = store.ReplSnapshot()
		catchup = Batch{Epoch: p.Epoch(), Last: last, Snap: blob}
	} else {
		catchup = Batch{Epoch: p.Epoch(), First: first, Last: last, Records: records, Frames: frames}
	}
	if err != nil {
		sub.Close()
		return nil, Batch{}, err
	}
	return sub, catchup, nil
}

// Subscribers reports how many followers are currently attached.
func (p *Publisher) Subscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// MaxAcked reports the highest LSN any subscribed follower has
// acknowledged (0 with no subscribers).
func (p *Publisher) MaxAcked() uint64 { return p.acked.LSN() }

// MinAcked reports the lowest LSN any subscribed follower has
// acknowledged — the retention horizon for WAL segment pruning: a
// sealed segment whose records a follower has not yet acked must stay
// on disk so Subscribe can serve the tail without forcing a full
// snapshot transfer. With no subscribers it returns MaxUint64 (nothing
// holds retention back). Wire it to durable.Options.RetainLSN.
func (p *Publisher) MinAcked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	min := uint64(math.MaxUint64)
	for _, s := range p.subs {
		if s.acked < min {
			min = s.acked
		}
	}
	return min
}

// WaitShipped blocks until some follower has acknowledged lsn — the
// semi-synchronous half of the acked ⇒ on-a-follower guarantee. With no
// subscribers it returns immediately: a lone primary degrades to
// local-durability-only rather than refusing service (the availability
// half of the design; the chaos suite exercises the replicated half).
// A timeout likewise degrades to async — counted, so the operator can
// see the guarantee thinning — rather than failing the write.
func (p *Publisher) WaitShipped(lsn uint64) error {
	if _, timedOut := p.acked.Wait(lsn, p.syncTimeout); timedOut {
		p.timeouts.Inc()
	}
	return nil
}

// lag samples how many records the slowest subscribed follower trails
// the primary's durable horizon (the MetricLag gauge; 0 when nothing is
// subscribed).
func (p *Publisher) lag() int64 {
	p.mu.Lock()
	store := p.store
	p.mu.Unlock()
	if store == nil {
		return 0
	}
	// MinAcked is MaxUint64 with nothing subscribed, which reads 0 too.
	minAcked, durableLSN := p.MinAcked(), store.DurableLSN()
	if durableLSN <= minAcked {
		return 0
	}
	return int64(durableLSN - minAcked)
}

// Close detaches every subscriber and refuses new ones.
func (p *Publisher) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for id, s := range p.subs {
			s.gone = true
			close(s.ch)
			delete(p.subs, id)
		}
		p.subsGauge.Set(0)
		p.publishLocked()
	}
	p.mu.Unlock()
}
