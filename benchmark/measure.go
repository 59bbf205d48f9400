package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sample is one completed op as the driver saw it.
type sample struct {
	latNs int64
	ok    bool
}

// procClock reads the process-wide counters the per-op costs are made
// of: user+sys CPU and heap objects allocated. Client and servers share
// the process, so both cover the whole path.
type procClock struct {
	cpuUs   int64
	mallocs uint64
}

func readProcClock() procClock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return procClock{
		cpuUs:   ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + ru.Stime.Sec*1e6 + int64(ru.Stime.Usec),
		mallocs: s[0].Value.Uint64(),
	}
}

// heapInuseMB forces two collections and reports the bytes of the
// objects that survived them, less ownBytes of the driver's own: memory
// a cache or a free list keeps shows here. (Two, because a sync.Pool
// gives its contents up over two cycles, and how full the pools were
// when the window ended is chance. Live bytes rather than in-use spans,
// which also count fragmentation and read several percent apart on
// identical runs.)
func heapInuseMB(ownBytes int) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(ownBytes)) / (1 << 20)
}

// window is what one timed window measured.
type window struct {
	// dur is the time the ops were spread over: a closed loop's start to
	// its last completion, an open-loop step's measured part.
	dur       time.Duration
	samples   []sample // every op of the window, any order
	attempted int64
	failed    int64
	errs      []string  // the first few failures, for the report
	before    procClock // at the window's start
	after     procClock // when its last op had completed
	backlog   int64     // open loop: arrivals never started
	arrivals  int64     // open loop: arrivals scheduled
	lateNs    []int64   // open loop: how late each arrival was dispatched
}

// winStats are a window's end-to-end numbers, each over the whole window:
// a stall or a compaction pause anywhere in it counts.
type winStats struct {
	goodput  float64 // successful ops per second
	p50us    float64
	p99us    float64
	p999us   float64
	allocsOp float64
	cpuUsOp  float64
	ok       int64
}

// ownBytes is the memory the window's own records hold: the driver's,
// not the system's, and more of it the faster the run went.
func (w *window) ownBytes() int {
	return cap(w.samples)*int(unsafe.Sizeof(sample{})) + cap(w.lateNs)*8
}

func (w *window) stats() winStats {
	lats := make([]int64, 0, len(w.samples))
	for _, s := range w.samples {
		if s.ok {
			lats = append(lats, s.latNs)
		}
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	st := winStats{
		ok:     int64(len(lats)),
		p50us:  float64(percentile(lats, 0.50)) / 1e3,
		p99us:  float64(percentile(lats, 0.99)) / 1e3,
		p999us: float64(percentile(lats, 0.999)) / 1e3,
	}
	if st.ok > 0 && w.dur > 0 {
		st.goodput = float64(st.ok) / w.dur.Seconds()
		st.allocsOp = float64(w.after.mallocs-w.before.mallocs) / float64(st.ok)
		st.cpuUsOp = float64(w.after.cpuUs-w.before.cpuUs) / float64(st.ok)
	}
	return st
}

// percentile is the nearest-rank percentile of an ascending slice (0
// when empty).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}
