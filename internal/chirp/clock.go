package chirp

import "time"

// clock is the time the catalog (server expiry, lease terms, election
// windows) and the client (call budgets, backoff, the breaker's
// cool-off) decide by: wallClock, or a fake in tests. Socket deadlines
// and every measurement stay on wall time.
type clock interface {
	now() time.Time
	// afterFunc runs f once d has passed, unless stop comes first.
	afterFunc(d time.Duration, f func()) (stop func() bool)
	sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) now() time.Time                                  { return time.Now() }
func (wallClock) afterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }
func (wallClock) sleep(d time.Duration)                           { time.Sleep(d) }
