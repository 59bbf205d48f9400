package main

import (
	"testing"
	"time"
)

// fixedArrivals is a schedule of n arrivals, one every gap.
func fixedArrivals(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: int64(time.Duration(i+1) * gap), op: op{kind: opStat, a: i}}
	}
	return out
}

// An open loop exists to defeat coordinated omission: when the target
// stalls, every request that came due during the stall must be charged
// the wait, although each was served in microseconds once it started.
func TestOpenLoopChargesTargetStall(t *testing.T) {
	const (
		gap   = time.Millisecond
		stall = 50 * time.Millisecond
		at    = 100 // the arrival whose service stalls
	)
	step := openStep{arrivals: fixedArrivals(300, gap), dur: 300 * gap, drain: time.Second, conns: 1, pool: 1}
	var sendLat []time.Duration
	w := runOpen(step, func(int, op) int { return 0 }, func(_ int, o op) error {
		t0 := time.Now()
		if o.a == at {
			time.Sleep(stall)
		}
		sendLat = append(sendLat, time.Since(t0)) // one caller: no race
		return nil
	})
	if w.attempted != 300 || w.failed != 0 {
		t.Fatalf("attempted %d, failed %d", w.attempted, w.failed)
	}
	// From send time, one request was slow.
	slowFromSend := 0
	for _, d := range sendLat {
		if d >= stall/2 {
			slowFromSend++
		}
	}
	if slowFromSend != 1 {
		t.Fatalf("%d requests were slow from send time, want exactly the stalled one", slowFromSend)
	}
	// From due time, so was everything due while it was stalled: arrival
	// at+k came due k ms into the stall and waited out the rest of it.
	// (One caller: the samples are in arrival order.)
	for k := 0; k < int(stall/gap)-5; k++ {
		want := stall - time.Duration(k)*gap
		if got := time.Duration(w.samples[at+k].latNs); got < want-2*time.Millisecond {
			t.Errorf("arrival %d (due %v into the stall): latency %v from due time, want >= %v", at+k, time.Duration(k)*gap, got, want)
		}
	}
	if st := w.stats(); st.p99us < float64((stall-5*time.Millisecond)/time.Microsecond) {
		t.Errorf("p99 from due time is %.0f us: the stall is missing", st.p99us)
	}
}

// When the generator itself runs late, the lateness is reported
// (driver.late_*) and still charged to the requests it delayed.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	const (
		gap   = time.Millisecond
		stall = 50 * time.Millisecond
		at    = 100
	)
	step := openStep{arrivals: fixedArrivals(300, gap), dur: 300 * gap, drain: time.Second, conns: 1, pool: 4}
	w := runOpen(step, func(i int, _ op) int {
		if i == at {
			time.Sleep(stall) // the dispatcher calls route: this stalls the generator
		}
		return 0
	}, func(int, op) error { return nil })
	late := sortedCopy(w.lateNs)
	if got := time.Duration(late[len(late)-1]); got < stall-2*time.Millisecond {
		t.Errorf("largest dispatch lateness %v, want about %v", got, stall)
	}
	over := 0
	for _, d := range w.lateNs {
		if time.Duration(d) > 5*time.Millisecond {
			over++
		}
	}
	if min := int(stall/gap) - 10; over < min {
		t.Errorf("%d arrivals dispatched more than 5 ms late, want at least %d", over, min)
	}
	if st := w.stats(); st.p99us < float64((stall-10*time.Millisecond)/time.Microsecond) {
		t.Errorf("p99 from due time is %.0f us: the generator's lateness was not charged", st.p99us)
	}
}

// Arrivals nobody has picked up when the step ends are backlog; what is
// still queued after the drain period is dropped and counts as failed.
func TestOpenLoopCountsBacklog(t *testing.T) {
	step := openStep{arrivals: fixedArrivals(400, time.Millisecond), dur: 400 * time.Millisecond, drain: 400 * time.Millisecond, conns: 1, pool: 1}
	w := runOpen(step, func(int, op) int { return 0 }, func(int, op) error {
		time.Sleep(10 * time.Millisecond) // a tenth of the offered rate
		return nil
	})
	// 40 served during the step, as many again during the drain.
	if w.backlog < 340 || w.failed < 200 || w.failed > w.backlog || w.attempted != 400 {
		t.Errorf("backlog %d, failed %d, attempted %d", w.backlog, w.failed, w.attempted)
	}
}
