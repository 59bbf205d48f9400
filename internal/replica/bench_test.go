package replica

import (
	"bytes"
	"testing"
	"time"

	"identitybox/internal/durable"
)

// BenchmarkReplicationLag measures the semi-synchronous replication
// round trip: one durable write on the primary, shipped through the
// publisher, applied by a follower store, and acknowledged back —
// ns/op is the full write-to-follower-ack latency a client pays for a
// mutating reply on a replicated volume.
func BenchmarkReplicationLag(b *testing.B) {
	pub := NewPublisher(nil, time.Second)
	store, err := durable.Open(b.TempDir(), durable.Options{Owner: "owner", SyncEveryN: 1, OnShip: pub.Ship})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	pub.Bind(store)

	follower, err := durable.Open(b.TempDir(), durable.Options{Owner: "owner", SyncEveryN: 1, ReplicaMode: true})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.Close()

	sub, catchup, err := pub.Subscribe(store.DurableLSN())
	if err != nil {
		b.Fatal(err)
	}
	if catchup.Records != 0 || catchup.Snap != nil {
		b.Fatal("fresh subscription wanted catch-up")
	}
	applied := make(chan struct{})
	go func() {
		defer close(applied)
		for batch := range sub.C {
			if _, err := follower.ApplyReplicated(batch.Epoch, batch.First, batch.Last, batch.Frames); err != nil {
				b.Errorf("apply: %v", err)
				return
			}
			sub.Ack(follower.AppliedLSN())
		}
	}()

	payload := bytes.Repeat([]byte("x"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.FS().WriteFile("/bench.dat", payload, 0o644, "owner"); err != nil {
			b.Fatal(err)
		}
		if err := store.Barrier(); err != nil {
			b.Fatal(err)
		}
		if err := pub.WaitShipped(store.DurableLSN()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sub.Close()
	<-applied
}
