package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BenchmarkRecovery measures cold-start cost against history length,
// with and without a snapshot. The nosnap rows replay the full segment
// chain and scale with history; the snap rows carry the same histories
// compacted down to a fixed 50-record delta, so their cost must track
// the delta, not the history — the whole point of pruning segments
// below the snapshot LSN.
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
}

func removeEmptySegments(b *testing.B, dir string) {
	b.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := parseSegmentName(e.Name()); !ok {
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
