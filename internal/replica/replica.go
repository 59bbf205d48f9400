// Package replica implements primary→follower replication of the
// durable store's write-ahead log, with lease-based failover.
//
// The primary's group-commit pipeline hands every committed group's raw
// frames to a Publisher (durable.Options.OnShip), which fans them out
// to subscribed followers in commit order. A follower applies each
// batch into its own durable.Store (epoch-fenced and gap-checked by
// ApplyReplicated) and acknowledges the batch's last LSN; the primary's
// mutating replies wait for at least one follower acknowledgement
// (semi-synchronous, see Publisher.WaitShipped), so an acknowledged
// mutation is on a follower before the client hears "ok" — the property
// that makes promote-on-failure lossless for acked writes.
//
// Failover is coordinated by a TTL'd lease on the catalog: the primary
// renews it on a heartbeat cadence; when renewals stop, the catalog
// runs a short election among claiming followers and grants the next
// epoch to the highest applied LSN. The epoch number fences the old
// primary — its stale-epoch batches and writes are refused everywhere —
// so a partition heal cannot split-brain the volume.
//
// This package deliberately knows nothing about the Chirp wire
// protocol: the follower's stream arrives through the Stream interface
// (implemented by chirp.ReplicaSession), and the lease protocol is
// plain UDP datagrams to the catalog. Package chirp imports replica,
// never the reverse.
package replica

import "time"

// Batch is one shipped commit group: the encoded WAL frames exactly as
// the primary wrote them, bound to the epoch the primary held when it
// shipped and the contiguous LSN range the frames cover. A snapshot
// batch carries a durable.Store.ReplSnapshot image in Snap instead,
// covering history up to Last.
type Batch struct {
	Epoch   uint64
	First   uint64
	Last    uint64
	Records int
	Frames  []byte
	Snap    []byte
}

// Stream is a follower's view of the primary's replication feed. Next
// returns the subscription's catch-up first (Publisher.Subscribe), then
// blocks for each pushed batch (an error means the stream is dead and
// the follower should re-dial or stand for election); Ack reports the
// follower's applied horizon back to the primary, releasing semi-sync
// waiters there.
type Stream interface {
	Next() (Batch, error)
	Ack(lsn uint64) error
	Close() error
}

// Node roles. A node is a primary (holds the lease, accepts writes and
// replicates them), a follower (applies the primary's stream, serves
// bounded-staleness reads), or fenced (a former primary whose lease a
// newer epoch superseded; it refuses writes until restarted).
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleFenced   = "fenced"
)

// Replication metric families.
const (
	MetricGroupsShipped = "repl_groups_shipped_total"
	MetricBytesShipped  = "repl_bytes_shipped_total"
	MetricSyncTimeouts  = "repl_sync_timeouts_total"
	MetricSubOverflows  = "repl_subscriber_overflows_total"
	MetricSubscribers   = "repl_subscribers"
	MetricLag           = "repl_lag_records"
	MetricAppliedLSN    = "repl_applied_lsn"
	MetricPromotions    = "repl_promotions_total"
)

// DefaultSyncTimeout bounds how long a semi-sync barrier waits for a
// follower acknowledgement before degrading to local durability only.
const DefaultSyncTimeout = 2 * time.Second
