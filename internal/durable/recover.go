package durable

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"identitybox/internal/vfs"
)

// Recovery over a segmented log: one chain, replayed in order. Records
// at or below the snapshot LSN are skipped, so recovery cost is
// proportional to the delta since the last snapshot, not to history
// length. Above the snapshot the chain must be continuous — the first
// record is the snapshot LSN plus one and each later record the
// previous plus one — or the replayed state would not be a prefix of
// history. A torn record in the final segment is the crash point and is
// truncated away; a torn sealed segment is harmless only while the
// snapshot covers what it lost, which the continuity check decides.

// logFile is one decoded on-disk log file.
type logFile struct {
	ref        segmentRef
	recs       []Record
	size       int64
	validBytes int64 // offset just past the last valid record
	torn       bool
}

func decodeLogFile(ref segmentRef) (*logFile, error) {
	data, err := os.ReadFile(ref.path)
	if err != nil {
		return nil, fmt.Errorf("durable: reading %s: %w", ref.path, err)
	}
	lf := &logFile{ref: ref, size: int64(len(data))}
	lf.recs, lf.validBytes, lf.torn = DecodeAll(data)
	return lf, nil
}

// readSegments scans dir and decodes every log segment in it, in chain
// order — the one reader behind recovery, WALTailSince and
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

// recoverLog scans the state directory's segment chain, replays
// everything past the snapshot LSN, truncates a torn tail, and
// registers every pre-existing file as a sealed segment. It returns the
// LSN the recovered history ends at (the snapshot's when no record is
// past it) and the sequence number the next active segment should use. A hole in the chain above the snapshot fails recovery
// with an error wrapping ErrTorn that names the segment and the missing
// LSNs, with the segments left as found.
func (s *Store) recoverLog() (lastLSN uint64, nextSeq int, err error) {
	files, err := readSegments(s.dir)
	if err != nil {
		return 0, 0, err
	}
	s.recovery.Segments = len(files)
	next := s.snapLSN + 1 // the LSN the next record above the snapshot must carry
	suspect := ""         // a torn sealed segment since the last replayed record
	for i, lf := range files {
		for _, rec := range lf.recs {
			if rec.LSN <= s.snapLSN {
				s.recovery.Skipped++
				s.metrics.skipped.Inc()
				continue
			}
			if rec.LSN != next {
				where := suspect
				if where == "" {
					where = lf.ref.path
				}
				if rec.LSN < next {
					return 0, 0, fmt.Errorf("%w: %s: lsn %d out of order after lsn %d", ErrTorn, where, rec.LSN, next-1)
				}
				return 0, 0, fmt.Errorf("%w: %s: lsns %d..%d missing above snapshot lsn %d", ErrTorn, where, next, rec.LSN-1, s.snapLSN)
			}
			next++
			suspect = ""
			if err := s.applyRecord(rec); err != nil {
				// Should not happen for a log this store wrote: the same
				// sequence applied cleanly before the crash. Count it, keep
				// going — dropping one record must not drop the rest.
				s.recovery.Unapplied++
				s.logf("durable: replaying lsn %d (%s %s): %v", rec.LSN, vfs.MutOp(rec.Type), rec.Mut.Path, err)
				continue
			}
			s.recovery.Replayed++
			s.metrics.replayed.Inc()
		}
		if lf.torn {
			discarded := lf.size - lf.validBytes
			if i+1 == len(files) {
				s.recovery.Torn = true
				s.recovery.TruncatedBytes += discarded
				s.metrics.truncated.Add(discarded)
				s.logf("durable: torn tail in %s: truncating %d bytes at offset %d", lf.ref.path, discarded, lf.validBytes)
				if err := os.Truncate(lf.ref.path, lf.validBytes); err != nil {
					return 0, 0, fmt.Errorf("durable: truncating torn tail: %w", err)
				}
				lf.size = lf.validBytes
			} else {
				suspect = lf.ref.path
				s.logf("durable: %d unreadable trailing bytes in sealed segment %s", discarded, lf.ref.path)
			}
		}
		var segLast uint64
		if n := len(lf.recs); n > 0 {
			segLast = lf.recs[n-1].LSN
		}
		s.sealed = append(s.sealed, sealedSeg{path: lf.ref.path, lastLSN: segLast, size: lf.size})
		nextSeq = lf.ref.seq + 1
	}
	return next - 1, nextSeq, nil
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
	case vfs.MutMkdir: // with the file made with it (none in an older log)
		return s.fs.MkdirWithFile(m.Path, m.Mode, m.Owner, m.Path2, m.Data)
	case vfs.MutCreate: // make or replace, holding Data (empty in an older log)
		return s.fs.WriteFile(m.Path, m.Data, m.Mode, m.Owner)
	case vfs.MutWrite:
		_, err := s.fs.WriteAt(m.Path, m.Data, m.Off)
		return err
	case vfs.MutTruncate:
		return s.fs.Truncate(m.Path, m.Size)
	case vfs.MutUnlink:
		return s.fs.Unlink(m.Path)
	case vfs.MutRmdir: // with the file removed with it (none in an older log)
		_, err := s.fs.RmdirWithFile(m.Path, m.Path2)
		return err
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
