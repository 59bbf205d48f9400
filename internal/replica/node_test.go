package replica

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"identitybox/internal/obs"
)

// endedStream is a replication stream whose feed has already broken.
type endedStream struct{}

func (endedStream) Next() (Batch, error) { return Batch{}, errors.New("stream closed") }
func (endedStream) Ack(uint64) error     { return nil }
func (endedStream) Close() error         { return nil }

// TestFollowerDialFailuresLoggedOnce: a follower re-dialling a primary
// it cannot reach logs the failure once, not at every retry, and logs
// once more, with the count, when a dial gets through.
func TestFollowerDialFailuresLoggedOnce(t *testing.T) {
	const fails = 9
	var (
		mu    sync.Mutex
		lines []string
		dials int
	)
	parked := make(chan struct{})
	unpark := make(chan struct{})
	dial := func(addr string, _ uint64) (Stream, error) {
		mu.Lock()
		dials++
		d := dials
		mu.Unlock()
		switch {
		case d <= fails:
			return nil, fmt.Errorf("dial tcp %s: connection refused", addr)
		case d == fails+1:
			return endedStream{}, nil
		case d == fails+2:
			close(parked)
			<-unpark
		}
		return nil, errors.New("stopped")
	}
	n, err := Start(Config{
		Name:        "vol",
		Addr:        "127.0.0.1:2",
		TTL:         40 * time.Millisecond,
		Store:       openFollower(t),
		Publisher:   NewPublisher(obs.NewRegistry(), time.Second),
		PrimaryAddr: "127.0.0.1:1",
		Dial:        dial,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never re-dialled after its stream ended")
	}
	mu.Lock()
	got := strings.Join(lines, "\n")
	mu.Unlock()
	close(unpark)
	n.Stop()

	want := strings.Join([]string{
		"replica: streaming from 127.0.0.1:1: dial tcp 127.0.0.1:1: connection refused",
		"replica: dialled 127.0.0.1:1 after 9 failed attempts",
		"replica: following 127.0.0.1:1 from lsn 0",
		"replica: stream from 127.0.0.1:1 ended: stream closed",
	}, "\n")
	if got != want {
		t.Errorf("log after %d failed dials and one that got through:\n%s\nwant:\n%s", fails, got, want)
	}
}
