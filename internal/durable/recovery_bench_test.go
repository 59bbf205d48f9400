package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"identitybox/internal/vfs"
)

// BenchmarkRecovery measures cold-start cost against history length,
// with and without a snapshot. The nosnap rows replay the full segment
// chain and scale with history; the snap rows carry the same histories
// compacted down to a fixed 50-record delta, so their cost must track
// the delta, not the history — the whole point of pruning segments
// below the snapshot LSN. Those rows are single-shard; the shards=8
// rows (benchRecoveryShards) compare the two replay strategies.
func BenchmarkRecovery(b *testing.B) {
	const delta = 50
	payload := []byte(strings.Repeat("r", 256))
	for _, history := range []int{1000, 4000} {
		for _, snap := range []string{"nosnap", "snap"} {
			b.Run(fmt.Sprintf("history=%d/%s", history, snap), func(b *testing.B) {
				dir := b.TempDir()
				s, err := Open(dir, Options{Owner: "alice"})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < history; i++ {
					if err := s.FS().WriteFile(fmt.Sprintf("/f%d", i%128), payload, 0o644, "alice"); err != nil {
						b.Fatal(err)
					}
				}
				if snap == "snap" {
					if err := s.Compact(); err != nil {
						b.Fatal(err)
					}
					for i := 0; i < delta; i++ {
						if err := s.FS().WriteFile(fmt.Sprintf("/d%d", i), payload, 0o644, "alice"); err != nil {
							b.Fatal(err)
						}
					}
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				var replayed int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := Open(dir, Options{})
					if err != nil {
						b.Fatal(err)
					}
					replayed = s.Recovery().Replayed
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
					// Every Open starts a fresh (empty) active segment;
					// drop them outside the timer so iteration i does not
					// scan i segment files more than iteration 0 did.
					b.StopTimer()
					removeEmptySegments(b, dir)
					b.StartTimer()
				}
				b.ReportMetric(float64(replayed), "replayed/op")
			})
		}
	}
	benchRecoveryShards(b)
}

// benchRecoveryShards is the ablation behind keeping two replay
// strategies: the same 8-shard history (64 subtrees, a cross-shard
// rename every 50 writes) recovered by one worker per shard chain
// (one-era) and by the LSN-sorted merge (mixed-era). The mixed-era
// directory differs by a single record written under another shard
// count first, so recoverLog chooses the merge from what it finds on
// disk, exactly as in production; the rows check that it did.
func benchRecoveryShards(b *testing.B) {
	const (
		shards   = 8
		subtrees = 64
		history  = 4000
	)
	payload := []byte(strings.Repeat("r", 256))
	open := func(dir string, opts Options) *Store {
		opts.Owner = "alice"
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	for _, era := range []string{"one-era", "mixed-era"} {
		b.Run(fmt.Sprintf("shards=%d/%s", shards, era), func(b *testing.B) {
			dir := b.TempDir()
			if era == "mixed-era" {
				s := open(dir, Options{Shards: 1})
				if err := s.FS().Mkdir("/era1", 0o755, "alice"); err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			s := open(dir, Options{Shards: shards})
			tree := func(i int) string { return fmt.Sprintf("/t%d", i%subtrees) }
			for i := 0; i < subtrees; i++ {
				if err := s.FS().Mkdir(tree(i), 0o755, "alice"); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < history; i++ {
				path := fmt.Sprintf("%s/f%d", tree(i), i/subtrees%8)
				if err := s.FS().WriteFile(path, payload, 0o644, "alice"); err != nil {
					b.Fatal(err)
				}
				if i%50 == 49 {
					to := i + 1
					for vfs.ShardOf(tree(to), shards) == vfs.ShardOf(tree(i), shards) {
						to++
					}
					if err := s.FS().Rename(path, fmt.Sprintf("%s/moved%d", tree(to), i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			var ri RecoveryInfo
			var merged bool
			logf := func(format string, _ ...any) {
				merged = merged || strings.Contains(format, "sequential replay")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := open(dir, Options{Shards: shards, Logf: logf})
				ri = s.Recovery()
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				removeEmptySegments(b, dir)
				b.StartTimer()
			}
			if merged != (era == "mixed-era") {
				b.Fatalf("sorted-merge replay chosen = %v in the %s row", merged, era)
			}
			b.ReportMetric(float64(ri.Replayed), "replayed/op")
			b.ReportMetric(float64(ri.Unapplied), "unapplied/op")
		})
	}
}

func removeEmptySegments(b *testing.B, dir string) {
	b.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if _, _, _, ok := parseSegmentName(e.Name()); !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		if info.Size() == 0 {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				b.Fatal(err)
			}
		}
	}
}
