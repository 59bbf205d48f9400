package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment naming: the WAL is one chain of bounded files,
//
//	wal.c01.s00.000017.seg
//	            └── sequence number within the chain
//
// The c01.s00 infix is the name the single-chain log has always had, so
// every state directory a one-shard store wrote opens unchanged. A
// segment with any other cNN.sMM infix belongs to a sharded log, whose
// chains interleave LSNs; Open refuses such a directory by name (see
// scanSegments).
const segmentPrefix = "wal.c01.s00."

// segmentFileName names one WAL segment.
func segmentFileName(seq int) string {
	return fmt.Sprintf(segmentPrefix+"%06d.seg", seq)
}

// segmentRef locates one on-disk log file.
type segmentRef struct {
	path string
	seq  int
}

// parseSegmentName decodes a segment file name produced by
// segmentFileName. The %06d width is a minimum (for lexical sorting in
// directory listings), so the sequence parses as a plain decimal.
func parseSegmentName(name string) (seq int, ok bool) {
	rest, found := strings.CutPrefix(name, segmentPrefix)
	if !found {
		return 0, false
	}
	rest, found = strings.CutSuffix(rest, ".seg")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 31)
	if err != nil {
		return 0, false
	}
	return int(n), true
}

// scanSegments lists every WAL segment in dir in chain order. A log
// this version cannot read — a single-file wal.log from before
// segments, or a segment of a sharded log — is refused by name:
// skipping it would silently drop the history it holds.
func scanSegments(dir string) ([]segmentRef, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentRef
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if name == legacyLogName {
			return nil, fmt.Errorf("%s is a single-file log from before segmented WALs, which this version cannot read", filepath.Join(dir, name))
		}
		seq, ok := parseSegmentName(name)
		if ok {
			segs = append(segs, segmentRef{path: filepath.Join(dir, name), seq: seq})
			continue
		}
		if strings.HasPrefix(name, "wal.c") && strings.HasSuffix(name, ".seg") {
			return nil, fmt.Errorf("%s is a segment of a sharded log, which this version cannot read; to migrate, open the directory once with the previous release set to one WAL shard and let it compact, which replays every shard and prunes their segments", filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// LogBytes reads and concatenates every WAL segment in a state
// directory in chain order: the full log in LSN order, which
// crash-injection tests cut apart byte by byte. Exported for tests; the
// store itself reads segments individually.
func LogBytes(dir string) ([]byte, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		all = append(all, b...)
	}
	return all, nil
}

// ReadLogRecords decodes every valid record in a state directory's
// segments, in chain order. Torn tails are skipped, not errors.
// Exported for tests.
func ReadLogRecords(dir string) ([]Record, error) {
	files, err := readSegments(dir)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, lf := range files {
		recs = append(recs, lf.recs...)
	}
	return recs, nil
}

// TailSegmentPath reports the path of the active (highest-sequence)
// segment: the file a new record would land in. Exported for tests that
// corrupt or truncate the live tail.
func TailSegmentPath(dir string) (string, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return "", err
	}
	if len(segs) == 0 {
		return "", os.ErrNotExist
	}
	return segs[len(segs)-1].path, nil
}
