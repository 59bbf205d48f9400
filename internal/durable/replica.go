package durable

import (
	"errors"
	"fmt"
	"time"

	"identitybox/internal/vfs"
)

// Replication errors. ErrStaleEpoch is the fencing signal: a batch (or
// subscription) from a primary whose epoch a newer lease has
// superseded. ErrReplicaGap means the follower missed groups and must
// resubscribe from its applied LSN.
var (
	ErrStaleEpoch = errors.New("durable: stale replication epoch")
	ErrNotReplica = errors.New("durable: store is not in replica mode")
	ErrReplicaGap = errors.New("durable: replication gap")
)

// Epoch reports the replication fencing term this store last saw.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// IsReplica reports whether the store is (still) a replication
// follower.
func (s *Store) IsReplica() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replica
}

// AppliedLSN reports the highest LSN applied to the in-memory state: a
// follower's replication horizon, or (on a primary) the last journaled
// mutation.
func (s *Store) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica {
		return s.lastApplied
	}
	return s.alloc.Load()
}

// SetEpochDurable advances the store's epoch, journaling an epoch
// record and waiting for it to reach stable storage. A primary calls
// this when it first wins (or re-wins) the lease; the record ships to
// followers like any other, so the whole cluster learns the term from
// the replicated stream. Epochs never regress: a stale or equal value
// is a no-op.
func (s *Store) SetEpochDurable(epoch uint64) error {
	s.mu.Lock()
	if epoch <= s.epoch {
		s.mu.Unlock()
		return nil
	}
	s.epoch = epoch
	w := s.wals[0] // epoch records ride shard 0's log
	lsn, err := w.Append(Record{Type: EpochType, Epoch: epoch})
	s.mu.Unlock()
	if err != nil {
		s.metrics.appendErrs.Inc()
		return err
	}
	return w.WaitDurable(lsn)
}

// ApplyReplicated applies one shipped commit group to a follower:
// epoch-fenced, gap-checked, written to the follower's own WAL under
// the primary's LSNs (and fsynced per the sync policy) before the
// records touch the in-memory state, so the follower's acknowledgement
// means the group would survive its own crash. Batches at or below the
// applied horizon are skipped idempotently (a resubscribe overlaps the
// live stream by design); partial overlaps apply only the new suffix.
// It returns how many records were newly applied.
func (s *Store) ApplyReplicated(epoch, first, last uint64, frames []byte) (applied int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replica {
		return 0, ErrNotReplica
	}
	if epoch < s.epoch {
		return 0, fmt.Errorf("%w: batch epoch %d, follower epoch %d", ErrStaleEpoch, epoch, s.epoch)
	}
	if epoch > s.epoch {
		// The stream's source won a newer lease; adopt its term so an
		// older primary resurfacing after a partition is fenced even
		// before this batch's epoch record is applied.
		s.epoch = epoch
	}
	if last <= s.lastApplied {
		return 0, nil // already applied (stream overlap after resubscribe)
	}
	if first > s.lastApplied+1 {
		return 0, fmt.Errorf("%w: batch starts at lsn %d, applied horizon %d", ErrReplicaGap, first, s.lastApplied)
	}
	recs, valid, torn := DecodeAll(frames)
	if torn || int64(len(frames)) != valid {
		return 0, fmt.Errorf("%w: undecodable replicated batch", ErrTorn)
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if recs[0].LSN != first || recs[len(recs)-1].LSN != last {
		return 0, fmt.Errorf("durable: replicated batch lsns [%d,%d] disagree with header [%d,%d]",
			recs[0].LSN, recs[len(recs)-1].LSN, first, last)
	}

	// Drop the already-applied prefix of a partially overlapping batch,
	// re-encoding the suffix so the local log never holds duplicates.
	durableFrames := frames
	if first <= s.lastApplied {
		keep := recs[:0]
		for _, rec := range recs {
			if rec.LSN > s.lastApplied {
				keep = append(keep, rec)
			}
		}
		recs = keep
		durableFrames = durableFrames[:0:0]
		for _, rec := range recs {
			durableFrames = EncodeRecord(durableFrames, rec)
		}
	}
	// A follower's whole history lives in shard 0's chain, regardless
	// of its Shards option: the primary already serialized the stream,
	// and keeping it in one chain preserves its order on disk. The
	// other shards' chains stay empty until Promote.
	if err := s.wals[0].AppendFrames(durableFrames, last, len(recs)); err != nil {
		s.metrics.appendErrs.Inc()
		return 0, err
	}
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			// The primary applied this same sequence; a failure here is
			// a replica bug, not a reason to drop the rest of the group.
			s.logf("durable: applying replicated lsn %d (%s %s): %v", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, err)
			continue
		}
		applied++
	}
	s.lastApplied = last
	close(s.appliedCh)
	s.appliedCh = make(chan struct{})
	return applied, nil
}

// WaitApplied blocks until the follower's applied horizon reaches lsn,
// the timeout passes, or the store stops being a replica (promotion
// makes the local state authoritative, satisfying any freshness
// demand). This is the bounded-staleness read barrier: a client that
// saw the primary acknowledge LSN n can demand a follower read reflect
// it.
func (s *Store) WaitApplied(lsn uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		if !s.replica || s.lastApplied >= lsn {
			s.mu.Unlock()
			return nil
		}
		ch := s.appliedCh
		applied := s.lastApplied
		s.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("durable: applied horizon %d short of demanded lsn %d after %v", applied, lsn, timeout)
		}
	}
}

// ReplSnapshot serializes the current state for bootstrapping a
// follower that is too far behind the log: the same image Compact
// publishes, bound to the LSN and epoch it covers. Taken under
// quiesce + barrier so the image is a clean prefix of history.
func (s *Store) ReplSnapshot() (blob []byte, lsn, epoch uint64, err error) {
	err = s.fs.Quiesce(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		epoch = s.epoch
		var err error
		blob, lsn, err = s.encodeSnapshotLocked()
		return err
	})
	return blob, lsn, epoch, err
}

// LoadReplicaSnapshot bootstraps a follower from a primary's
// ReplSnapshot image: the in-memory state, dedupe table, epoch and
// applied horizon are replaced wholesale, the image is persisted as
// this store's own snapshot, and the local log is reset. Only valid in
// replica mode, and only before the recovered file system has been
// shared (the *vfs.FS pointer changes); callers bootstrap first, then
// build the kernel and server on top.
func (s *Store) LoadReplicaSnapshot(blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.replica {
		return ErrNotReplica
	}
	snap, fs, err := decodeSnapshot(blob)
	if err != nil {
		return err
	}
	if snap.Epoch < s.epoch {
		return fmt.Errorf("%w: snapshot epoch %d, follower epoch %d", ErrStaleEpoch, snap.Epoch, s.epoch)
	}
	if err := s.publishSnapshotLocked(blob, snap.LSN); err != nil {
		return err
	}
	// Local history before the bootstrap point is superseded: seal the
	// active segments, jump the LSN cursor to the snapshot's position,
	// and prune everything the snapshot covers.
	for _, w := range s.wals {
		if err := w.resetForCompact(); err != nil {
			s.logf("durable: sealing wal shard after replica bootstrap: %v", err)
		}
	}
	s.alloc.Store(snap.LSN)
	s.pruneLocked()
	s.fs = fs
	s.dedupe = make(map[string][]string, len(snap.Dedupe))
	for k, v := range snap.Dedupe {
		s.dedupe[k] = v
	}
	s.epoch = snap.Epoch
	s.lastApplied = snap.LSN
	close(s.appliedCh)
	s.appliedCh = make(chan struct{})
	return nil
}

// WALTailSince re-encodes every logged record past lsn, for catching a
// subscribing follower up from the primary's own log. It reads the
// whole segment set — sealed and active across every shard — merges by
// LSN (collapsing cross-shard duplicates and stripping their flag, so
// the follower's log looks single-shard) and demands the result be
// gap-free from lsn+1: a missing prefix means compaction pruned that
// history, a hole means a degraded shard lost records; either way the
// follower needs ReplSnapshot instead. Segments held back by
// Options.RetainLSN make this succeed even for LSNs older than the
// snapshot. Holding s.mu excludes every append source, and the
// barriers idle the committers, so the read sees a complete log.
func (s *Store) WALTailSince(lsn uint64) (frames []byte, first, last uint64, records int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.wals {
		w.Barrier()
	}
	files, err := readSegments(s.dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	recs, _ := mergeByLSN(files, lsn)
	if len(recs) == 0 {
		if lsn >= s.alloc.Load() {
			return nil, 0, 0, 0, nil // follower is fully caught up
		}
		return nil, 0, 0, 0, fmt.Errorf("%w: history past lsn %d already pruned", ErrReplicaGap, lsn)
	}
	if recs[0].LSN != lsn+1 {
		return nil, 0, 0, 0, fmt.Errorf("%w: tail starts at lsn %d, follower needs %d", ErrReplicaGap, recs[0].LSN, lsn+1)
	}
	for i, rec := range recs {
		if rec.LSN != recs[0].LSN+uint64(i) {
			return nil, 0, 0, 0, fmt.Errorf("%w: hole before lsn %d (degraded shard)", ErrReplicaGap, rec.LSN)
		}
		rec.Flags &^= FlagCrossShard
		frames = EncodeRecord(frames, rec)
	}
	return frames, recs[0].LSN, recs[len(recs)-1].LSN, len(recs), nil
}

// Promote turns a follower into a primary under a new epoch: the
// group-commit pipeline starts (appends resume at the applied horizon
// plus one — the LSN sequence continues unbroken from the old
// primary's history), the epoch record is journaled and made durable,
// and the file system is journaled from here on. The caller flips its
// serving role only after Promote returns, so no write can land before
// the fence is on disk.
func (s *Store) Promote(epoch uint64) error {
	s.mu.Lock()
	if !s.replica {
		s.mu.Unlock()
		return ErrNotReplica
	}
	if epoch <= s.epoch {
		s.mu.Unlock()
		return fmt.Errorf("%w: promotion epoch %d not past follower epoch %d", ErrStaleEpoch, epoch, s.epoch)
	}
	s.replica = false
	cfg := s.gcCfg
	cfg.OnShip = s.wireShip(cfg.OnShip, s.alloc.Load()+1)
	for _, w := range s.wals {
		w.StartGroupCommit(cfg)
	}
	// Promotion satisfies any parked freshness demand: the local state
	// is authoritative now.
	close(s.appliedCh)
	s.appliedCh = make(chan struct{})
	s.mu.Unlock()
	if err := s.SetEpochDurable(epoch); err != nil {
		return err
	}
	s.fs.SetJournalSharded(s, s.shards)
	return nil
}
