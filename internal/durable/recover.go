package durable

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"identitybox/internal/vfs"
)

// Recovery over a segmented, sharded log.
//
// Within one era (one journal shard count — see segment.go), each
// shard's segment chain is an independent, LSN-monotonic stream, and
// replay runs one worker per stream. Records at or below the snapshot
// LSN are skipped, so recovery cost is proportional to the delta since
// the last snapshot, not to history length. The only inter-stream
// ordering edges are cross-shard records (rename/link across
// subtrees), which appear in both affected streams under one LSN:
// workers rendezvous there — each publishes its progress, the
// lower-shard worker applies the record once both streams have reached
// it, the other waits for the application — so every pair of dependent
// mutations replays in LSN order while independent subtrees replay
// fully in parallel.
//
// A cross record found in only one stream is a half-committed cross
// write, possible only at the very tail of both affected shards (the
// commit protocol holds both journal locks until the record is durable
// in both logs, so neither shard can hold a later mutation). It is
// applied: recovered state remains a prefix of history extended by at
// most that unacked tail record, and the log, WALTailSince and the
// recovered tree stay consistent with each other.
//
// If segments from multiple eras hold records (the shard count changed
// across a restart, before a compaction pruned the old era), per-chain
// streams from different eras interleave arbitrarily, so replay falls
// back to a fully sequential merge of every record by LSN — always
// correct, just not parallel.

// logFile is one decoded on-disk log file.
type logFile struct {
	ref        segmentRef
	recs       []Record
	size       int64
	validBytes int64 // offset just past the last valid record
	torn       bool
	maxLSN     uint64
}

func decodeLogFile(ref segmentRef) (*logFile, error) {
	data, err := os.ReadFile(ref.path)
	if err != nil {
		return nil, fmt.Errorf("durable: reading %s: %w", ref.path, err)
	}
	lf := &logFile{ref: ref, size: int64(len(data))}
	lf.recs, lf.validBytes, lf.torn = DecodeAll(data)
	for _, rec := range lf.recs {
		if rec.LSN > lf.maxLSN {
			lf.maxLSN = rec.LSN
		}
	}
	return lf, nil
}

// readSegments scans dir and decodes every log segment in it, in
// scanSegments order — the one reader behind recovery, WALTailSince and
// ReadLogRecords. Files are read and decoded concurrently: checksum
// verification and body parsing dominate, and the files are
// independent.
func readSegments(dir string) ([]*logFile, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning log: %w", err)
	}
	files := make([]*logFile, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			files[i], errs[i] = decodeLogFile(segs[i])
		}(i)
	}
	wg.Wait()
	return files, errors.Join(errs...)
}

// mergeByLSN merges the records past LSN after from every file into
// one LSN-sorted sequence, collapsing the two copies of a cross-shard
// record into one. half holds the LSNs of cross-shard records that had
// only one copy (see the half-committed case above).
func mergeByLSN(files []*logFile, after uint64) (recs []Record, half map[uint64]bool) {
	for _, lf := range files {
		for _, rec := range lf.recs {
			if rec.LSN > after {
				recs = append(recs, rec)
			}
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].LSN < recs[j].LSN })
	half = make(map[uint64]bool)
	out := recs[:0]
	for _, r := range recs {
		if n := len(out); n > 0 && out[n-1].LSN == r.LSN {
			delete(half, r.LSN)
			continue
		}
		if r.Flags&FlagCrossShard != 0 {
			half[r.LSN] = true
		}
		out = append(out, r)
	}
	return out, half
}

// recoverLog scans the state directory's log files, replays everything
// past the snapshot LSN, truncates torn tails, and registers every
// pre-existing file as a sealed segment. It returns the highest LSN
// seen and, per current-era shard, the sequence number the next active
// segment should use.
func (s *Store) recoverLog() (maxLSN uint64, nextSeq []int, err error) {
	files, err := readSegments(s.dir)
	if err != nil {
		return 0, nil, err
	}
	s.recovery.Segments = len(files)
	nextSeq = make([]int, s.shards)

	for i, lf := range files {
		// A torn record in the final segment of a chain is the crash
		// point: truncate it away. Mid-chain, it is a degraded segment a
		// compaction already sealed (its lost records are snapshot-
		// covered): skip the garbage, keep reading the chain.
		final := i+1 == len(files) ||
			files[i+1].ref.shards != lf.ref.shards || files[i+1].ref.shard != lf.ref.shard
		if lf.torn {
			discarded := lf.size - lf.validBytes
			if final {
				s.recovery.Torn = true
				s.recovery.TruncatedBytes += discarded
				s.metrics.truncated.Add(discarded)
				s.logf("durable: torn tail in %s: truncating %d bytes at offset %d", lf.ref.path, discarded, lf.validBytes)
				if err := os.Truncate(lf.ref.path, lf.validBytes); err != nil {
					return 0, nil, fmt.Errorf("durable: truncating torn tail: %w", err)
				}
				lf.size = lf.validBytes
			} else {
				s.logf("durable: %d unreadable trailing bytes in sealed segment %s (snapshot-covered); ignoring", discarded, lf.ref.path)
			}
		}
		if lf.maxLSN > maxLSN {
			maxLSN = lf.maxLSN
		}
		s.sealed = append(s.sealed, sealedSeg{path: lf.ref.path, lastLSN: lf.maxLSN, size: lf.size})
		if lf.ref.shards == s.shards && lf.ref.shard < s.shards && lf.ref.seq >= nextSeq[lf.ref.shard] {
			nextSeq[lf.ref.shard] = lf.ref.seq + 1
		}
	}

	// Pick the replay strategy: parallel per-shard streams when every
	// record on disk belongs to one era, sequential merge otherwise.
	eraCount := 0
	mixed := false
	for _, lf := range files {
		if len(lf.recs) == 0 {
			continue
		}
		if eraCount == 0 {
			eraCount = lf.ref.shards
		} else if eraCount != lf.ref.shards {
			mixed = true
		}
	}
	switch {
	case eraCount == 0:
		// No records anywhere.
	case mixed:
		s.logf("durable: log holds segments from multiple shard-count eras; using sequential replay")
		s.replaySequential(files)
	default:
		streams := make([][]Record, eraCount)
		for _, lf := range files {
			if lf.ref.shards == eraCount && len(lf.recs) > 0 {
				streams[lf.ref.shard] = append(streams[lf.ref.shard], lf.recs...)
			}
		}
		s.replayParallel(streams)
	}
	return maxLSN, nextSeq, nil
}

// replaySequential merges every record from every file into one
// LSN-sorted sequence (collapsing cross-shard duplicates) and applies
// it in order. The always-correct fallback for mixed-era logs — and
// only that: BenchmarkRecovery's shards=8/mixed-era row is this path
// and takes about twice as long as shards=8/one-era (replayParallel)
// over the same 12 144 records, which is why both strategies stay.
func (s *Store) replaySequential(files []*logFile) {
	all, half := mergeByLSN(files, 0)
	s.recovery.HalfCross += len(half)
	for _, rec := range all {
		if rec.LSN <= s.snapLSN {
			s.recovery.Skipped++
			s.metrics.skipped.Inc()
			continue
		}
		s.applyRecoveredRecord(rec, half[rec.LSN])
	}
}

// replayTally is one replay worker's private counters, summed into
// RecoveryInfo after the workers join.
type replayTally struct{ replayed, skipped, unapplied, halfCross int }

// crossCoord is the rendezvous point for cross-shard records during
// parallel replay. reached[i] is the LSN stream i is currently
// processing (MaxUint64 once done); done marks cross LSNs already
// applied. Every wait is preceded by a publish of the waiter's own
// progress, and waits are ordered by LSN, so no cycle can form.
type crossCoord struct {
	mu      sync.Mutex
	cond    *sync.Cond
	reached []uint64
	occ     map[uint64]int
	done    map[uint64]bool
}

// replayParallel runs one worker per shard stream.
func (s *Store) replayParallel(streams [][]Record) {
	n := len(streams)
	if n == 1 {
		for _, rec := range streams[0] {
			if rec.LSN <= s.snapLSN {
				s.recovery.Skipped++
				s.metrics.skipped.Inc()
				continue
			}
			s.applyRecoveredRecord(rec, false)
		}
		return
	}

	cc := &crossCoord{
		reached: make([]uint64, n),
		occ:     make(map[uint64]int),
		done:    make(map[uint64]bool),
	}
	cc.cond = sync.NewCond(&cc.mu)
	for _, stream := range streams {
		for _, rec := range stream {
			if rec.Flags&FlagCrossShard != 0 && rec.LSN > s.snapLSN {
				cc.occ[rec.LSN]++
			}
		}
	}

	tallies := make([]replayTally, n)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &tallies[i]
			for _, rec := range streams[i] {
				if rec.LSN <= s.snapLSN {
					t.skipped++
					continue
				}
				if rec.Flags&FlagCrossShard != 0 {
					if !s.replayCross(cc, i, n, rec, t) {
						continue
					}
				} else if rec.IsMutation() {
					if err := s.applyRecord(rec); err != nil {
						t.unapplied++
						s.logf("durable: replaying lsn %d (%s %s): %v", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, err)
						continue
					}
				} else {
					// Dedupe and epoch records mutate shared maps; apply
					// them under the coordinator lock.
					cc.mu.Lock()
					s.applyRecord(rec)
					cc.mu.Unlock()
				}
				t.replayed++
			}
			cc.mu.Lock()
			cc.reached[i] = math.MaxUint64
			cc.cond.Broadcast()
			cc.mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, t := range tallies {
		s.recovery.Replayed += t.replayed
		s.recovery.Skipped += t.skipped
		s.recovery.Unapplied += t.unapplied
		s.recovery.HalfCross += t.halfCross
	}
	s.metrics.replayed.Add(int64(s.recovery.Replayed))
	s.metrics.skipped.Add(int64(s.recovery.Skipped))
}

// replayCross coordinates one cross-shard record in stream i. Returns
// true if this worker applied the record (and should count it
// replayed), false if the partner stream owns or already handled it.
func (s *Store) replayCross(cc *crossCoord, i, n int, rec Record, t *replayTally) bool {
	a := vfs.ShardOf(rec.Mut.Path, n)
	b := vfs.ShardOf(rec.Mut.Path2, n)
	lo := a
	if b < lo {
		lo = b
	}
	partner := a + b - i

	cc.mu.Lock()
	cc.reached[i] = rec.LSN
	cc.cond.Broadcast()
	if cc.done[rec.LSN] {
		cc.mu.Unlock()
		return false
	}
	paired := cc.occ[rec.LSN] == 2
	if paired && i != lo {
		// The lower-shard worker applies; wait for it so this stream's
		// later records cannot overtake the cross record.
		for !cc.done[rec.LSN] {
			cc.cond.Wait()
		}
		cc.mu.Unlock()
		return false
	}
	if !paired {
		t.halfCross++
		s.logf("durable: cross-shard record lsn %d present in one shard only (half-committed tail); applying", rec.LSN)
	}
	// Applier: wait until the partner stream has caught up to this LSN,
	// so everything the cross record depends on is already applied.
	for partner != i && cc.reached[partner] < rec.LSN {
		cc.cond.Wait()
	}
	cc.mu.Unlock()

	if err := s.applyRecord(rec); err != nil {
		if paired {
			t.unapplied++
			s.logf("durable: replaying cross lsn %d (%s %s -> %s): %v", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, rec.Mut.Path2, err)
		} else {
			// An unpaired cross record is by construction unacked — the
			// appender holds both journal locks until both copies are
			// durable — so its prerequisites may be unacked too, lost
			// with the other shard's tail. Dropping it loses nothing a
			// client was promised; it is counted in HalfCross, not as
			// an Unapplied alarm.
			s.logf("durable: half-committed cross lsn %d (%s %s -> %s) not applicable (%v); dropped", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, rec.Mut.Path2, err)
		}
	}

	cc.mu.Lock()
	cc.done[rec.LSN] = true
	cc.cond.Broadcast()
	cc.mu.Unlock()
	return true
}

// applyRecoveredRecord applies one record during single-threaded
// replay, keeping the recovery tallies. halfCross marks a cross-shard
// record present in one chain only: such a record is necessarily
// unacked (see RecordMutation), so an apply failure is dropped
// without raising the Unapplied alarm.
func (s *Store) applyRecoveredRecord(rec Record, halfCross bool) {
	if err := s.applyRecord(rec); err != nil {
		if halfCross {
			s.logf("durable: half-committed cross lsn %d (%s %s -> %s) not applicable (%v); dropped", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, rec.Mut.Path2, err)
			return
		}
		// Should not happen for a log this store wrote: the same
		// sequence applied cleanly before the crash. Count it, keep
		// going — dropping one record must not drop the rest.
		s.recovery.Unapplied++
		s.logf("durable: replaying lsn %d (%s %s): %v", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, err)
		return
	}
	s.recovery.Replayed++
	s.metrics.replayed.Inc()
}

// applyRecord replays one record onto the recovering state.
func (s *Store) applyRecord(rec Record) error {
	if rec.Type == DedupeType {
		s.dedupe[rec.DedupeKey] = rec.DedupeReply
		return nil
	}
	if rec.Type == EpochType {
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
		return nil
	}
	m := rec.Mut
	switch m.Op {
	case vfs.MutMkdir:
		return s.fs.Mkdir(m.Path, m.Mode, m.Owner)
	case vfs.MutCreate:
		_, err := s.fs.Create(m.Path, m.Mode, m.Owner)
		return err
	case vfs.MutWrite:
		_, err := s.fs.WriteAt(m.Path, m.Data, m.Off)
		return err
	case vfs.MutTruncate:
		return s.fs.Truncate(m.Path, m.Size)
	case vfs.MutUnlink:
		return s.fs.Unlink(m.Path)
	case vfs.MutRmdir:
		return s.fs.Rmdir(m.Path)
	case vfs.MutSymlink:
		return s.fs.Symlink(m.Path2, m.Path, m.Owner)
	case vfs.MutLink:
		return s.fs.Link(m.Path, m.Path2)
	case vfs.MutRename:
		return s.fs.Rename(m.Path, m.Path2)
	case vfs.MutChmod:
		return s.fs.Chmod(m.Path, m.Mode)
	case vfs.MutChown:
		return s.fs.Chown(m.Path, m.Owner, m.Group)
	default:
		return fmt.Errorf("durable: unknown mutation op %d", m.Op)
	}
}
