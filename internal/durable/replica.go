package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
		return s.applied.LSN()
	}
	return s.wal.lsnCursor()
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
	lsn, err := s.wal.Append(Record{Type: EpochType, Epoch: epoch})
	s.mu.Unlock()
	if err != nil {
		s.metrics.appendErrs.Inc()
		return err
	}
	return s.wal.WaitDurable(lsn)
}

// ApplyReplicated applies one shipped commit group to a follower:
// epoch-fenced, gap-checked, committed inline to the follower's own WAL
// under the primary's LSNs (one write, fsynced per the sync policy)
// before the records touch the in-memory state, so the follower's
// acknowledgement means the group would survive its own crash. A
// failed commit degrades the WAL, counted and logged once like a
// primary's, and applies nothing. Batches at or below the applied
// horizon are skipped idempotently (a resubscribe overlaps the live
// stream by design); partial overlaps apply only the new suffix. It
// returns how many records were newly applied.
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
	horizon := s.applied.LSN()
	if last <= horizon {
		return 0, nil // already applied (stream overlap after resubscribe)
	}
	if first > horizon+1 {
		return 0, fmt.Errorf("%w: batch starts at lsn %d, applied horizon %d", ErrReplicaGap, first, horizon)
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
	if first <= horizon {
		keep := recs[:0]
		for _, rec := range recs {
			if rec.LSN > horizon {
				keep = append(keep, rec)
			}
		}
		recs = keep
		durableFrames = durableFrames[:0:0]
		for _, rec := range recs {
			durableFrames = EncodeRecord(durableFrames, rec)
		}
	}
	if err := s.wal.AppendFrames(durableFrames, last, len(recs)); err != nil {
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
	s.applied.Set(last)
	return applied, nil
}

// WaitApplied blocks until the follower's applied horizon reaches lsn,
// the timeout passes, or the store stops being a replica (promotion
// makes the local state authoritative, satisfying any freshness
// demand). This is the bounded-staleness read barrier: a client that
// saw the primary acknowledge LSN n can demand a follower read reflect
// it.
func (s *Store) WaitApplied(lsn uint64, timeout time.Duration) error {
	if _, timedOut := s.applied.Wait(lsn, max(timeout, 0)); timedOut {
		return fmt.Errorf("durable: applied horizon %d short of demanded lsn %d after %v", s.applied.LSN(), lsn, timeout)
	}
	return nil
}

// ReplSnapshot serializes the current state for bootstrapping a
// follower that is too far behind the log: the same image Compact
// publishes, bound to the LSN and epoch it covers, encoded into memory
// because it ships as bytes. Taken under quiesce + barrier so the image
// is a clean prefix of history.
func (s *Store) ReplSnapshot() (blob []byte, lsn, epoch uint64, err error) {
	err = s.fs.Quiesce(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		meta := s.imageMetaLocked()
		var buf bytes.Buffer
		if _, err := s.fs.WriteImage(&buf, meta); err != nil {
			return fmt.Errorf("durable: encoding snapshot: %w", err)
		}
		blob, lsn, epoch = buf.Bytes(), meta.LSN, meta.Epoch
		return nil
	})
	return blob, lsn, epoch, err
}

// LoadReplicaSnapshot bootstraps a follower from a primary's
// ReplSnapshot image. The image is decoded, checksum first, before
// anything changes: a corrupt or truncated blob returns an error and
// leaves the tree, dedupe table, epoch, applied horizon and snapshot
// file as they were. A good one is published as this store's own
// snapshot through the same path Compact uses, the local log is reset,
// the file-system tree is replaced in place (vfs.FS.Restore, so the
// kernel and server holding FS keep serving, now from the image), and
// the dedupe table, epoch and applied horizon are replaced wholesale.
// Only valid in replica mode. It takes the journal lock, then Store.mu,
// the order ReplSnapshot uses.
func (s *Store) LoadReplicaSnapshot(blob []byte) error {
	fs, meta, err := vfs.ReadImage(blob)
	if err != nil {
		return fmt.Errorf("durable: replica snapshot: %w", err)
	}
	return s.fs.Quiesce(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.replica {
			return ErrNotReplica
		}
		if meta.Epoch < s.epoch {
			return fmt.Errorf("%w: snapshot epoch %d, follower epoch %d", ErrStaleEpoch, meta.Epoch, s.epoch)
		}
		if err := s.publishSnapshotLocked(meta.LSN, func(w io.Writer) (int64, error) {
			n, err := w.Write(blob)
			return int64(n), err
		}); err != nil {
			return err
		}
		// Local history before the bootstrap point is superseded: seal
		// the active segment, jump the LSN cursor to the snapshot's
		// position, and prune everything the snapshot covers.
		if err := s.wal.resetForCompact(meta.LSN); err != nil {
			s.logf("durable: sealing wal segment after replica bootstrap: %v", err)
		}
		s.pruneLocked()
		s.fs.Restore(fs)
		s.dedupe = meta.Dedupe
		s.epoch = meta.Epoch
		s.applied.Set(meta.LSN)
		return nil
	})
}

// WALTailSince re-encodes every logged record past lsn, for catching a
// subscribing follower up from the primary's own log. It reads the
// whole segment chain, sealed and active, and demands the records past
// lsn continue it without a hole: a missing prefix means compaction
// pruned that history, a hole means a degraded log lost records; either
// way the follower needs ReplSnapshot instead. Segments held back by
// Options.RetainLSN make this succeed even for LSNs older than the
// snapshot. Holding s.mu excludes every append source, and the barrier
// idles the committer, so the read sees a complete log.
func (s *Store) WALTailSince(lsn uint64) (frames []byte, first, last uint64, records int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.Barrier()
	files, err := readSegments(s.dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	last = lsn
	for _, lf := range files {
		for _, rec := range lf.recs {
			if rec.LSN <= lsn {
				continue
			}
			if rec.LSN != last+1 {
				return nil, 0, 0, 0, fmt.Errorf("%w: log jumps from lsn %d to %d, follower needs %d", ErrReplicaGap, last, rec.LSN, last+1)
			}
			frames = EncodeRecord(frames, rec)
			last = rec.LSN
			records++
		}
	}
	if records == 0 {
		if lsn >= s.wal.lsnCursor() {
			return nil, 0, 0, 0, nil // follower is fully caught up
		}
		return nil, 0, 0, 0, fmt.Errorf("%w: history past lsn %d already pruned", ErrReplicaGap, lsn)
	}
	return frames, lsn + 1, last, records, nil
}

// Promote turns a follower into a primary under a new epoch: the
// committer goroutine starts (appends resume at the applied horizon
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
	s.wal.startCommitter()
	// Promotion satisfies any parked freshness demand: the local state
	// is authoritative now.
	s.applied.Release(true)
	s.mu.Unlock()
	if err := s.SetEpochDurable(epoch); err != nil {
		return err
	}
	s.fs.SetJournal(s)
	return nil
}
