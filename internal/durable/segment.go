package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment naming: the WAL is a chain of bounded files per shard,
//
//	wal.c08.s03.000017.seg
//	     │    │   └── sequence number within the shard's chain
//	     │    └────── shard index
//	     └─────────── journal shard count of the era that wrote it
//
// The shard count is baked into the name because the rendezvous
// mapping from subtree to shard is a pure function of that count: all
// segments carrying the same count split records identically, so their
// per-shard chains can be replayed as independent LSN-sorted streams.
// If a restart changes -wal-shards, old-era and new-era segments
// coexist until the next compaction prunes the old era; recovery
// detects the mixed eras and falls back to a fully sequential merged
// replay, which is always correct.

// segmentFileName names one WAL segment.
func segmentFileName(shards, shard, seq int) string {
	return fmt.Sprintf("wal.c%02d.s%02d.%06d.seg", shards, shard, seq)
}

// segmentRef locates one on-disk log file.
type segmentRef struct {
	path   string
	shards int // era's journal shard count
	shard  int
	seq    int
}

// parseSegmentName decodes a segment file name produced by
// segmentFileName. The %02d/%06d widths are minimums (for lexical
// sorting in directory listings), so the fields parse as plain
// decimals.
func parseSegmentName(name string) (shards, shard, seq int, ok bool) {
	rest, found := strings.CutPrefix(name, "wal.c")
	if !found {
		return 0, 0, 0, false
	}
	rest, found = strings.CutSuffix(rest, ".seg")
	if !found {
		return 0, 0, 0, false
	}
	parts := strings.Split(rest, ".")
	if len(parts) != 3 || len(parts[1]) < 2 || parts[1][0] != 's' {
		return 0, 0, 0, false
	}
	var err error
	if shards, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, 0, false
	}
	if shard, err = strconv.Atoi(parts[1][1:]); err != nil {
		return 0, 0, 0, false
	}
	if seq, err = strconv.Atoi(parts[2]); err != nil {
		return 0, 0, 0, false
	}
	if shards < 1 || shard < 0 || shard >= shards || seq < 0 {
		return 0, 0, 0, false
	}
	return shards, shard, seq, true
}

// scanSegments lists every WAL segment in dir sorted by (era count,
// shard, seq), which within one era orders each shard's chain by
// ascending LSN. A single-file log from before segments is refused by
// name: skipping it would silently drop the history it holds.
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
		if shards, shard, seq, ok := parseSegmentName(name); ok {
			segs = append(segs, segmentRef{path: filepath.Join(dir, name), shards: shards, shard: shard, seq: seq})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if a.shards != b.shards {
			return a.shards < b.shards
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.seq < b.seq
	})
	return segs, nil
}

// LogBytes reads and concatenates every WAL log file in a state
// directory in (era, shard, chain) order. On a single-shard store this
// is the full log in LSN order — what crash-injection tests cut apart
// byte by byte. Exported for tests; the store itself reads segments
// individually.
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
// log files and returns them sorted by LSN with cross-shard duplicates
// collapsed. Torn tails are skipped, not errors. Exported for tests.
func ReadLogRecords(dir string) ([]Record, error) {
	files, err := readSegments(dir)
	if err != nil {
		return nil, err
	}
	recs, _ := mergeByLSN(files, 0)
	return recs, nil
}

// TailSegmentPath reports the path of the active (highest-sequence)
// log file of shard 0 — on a single-shard store, the file a new record
// would land in. Exported for tests that corrupt or truncate the live
// tail.
func TailSegmentPath(dir string) (string, error) {
	segs, err := scanSegments(dir)
	if err != nil {
		return "", err
	}
	best := ""
	bestKey := [2]int{-1, -2}
	for _, seg := range segs {
		if seg.shard != 0 {
			continue
		}
		key := [2]int{seg.shards, seg.seq}
		if key[0] > bestKey[0] || (key[0] == bestKey[0] && key[1] > bestKey[1]) {
			best, bestKey = seg.path, key
		}
	}
	if best == "" {
		return "", os.ErrNotExist
	}
	return best, nil
}
