package main

import (
	"sort"
	"time"

	"identitybox/internal/obs"
)

// spanCapacity bounds the one ring the traced pass records into. At two
// spans per RPC the ring keeps the last second or so of a fast
// workload's pass; the medians are taken over what it retains.
const spanCapacity = 1 << 15

// traceSummary is the traced pass boiled down: phase medians in
// microseconds for the per-layer metrics, phase means for the ledger.
type traceSummary struct {
	median map[string]float64
	mean   map[string]float64
}

// Phase keys: a span name, a slash, and the phase the program recorded.
const (
	phStall    = "client/submit.stall"
	phSend     = "client/send"
	phAwait    = "client/await"
	phQueue    = "server/lane.queue"
	phHandler  = "server/handler"
	phBarrier  = "server/barrier.wait"
	phWALGroup = "server/wal.group"
	phReply    = "server/reply"
	phCommitQ  = "wal.commit/queue"
	phCommitW  = "wal.commit/write+fsync"
	phWire     = "wire"     // client span minus server span, per paired RPC
	phExecRPC  = "exec.rpc" // client span of an exec RPC
)

// summarize reads the spans the ring retained. Spans are the program's
// own (the capability that already exists); the benchmark only pairs
// them by trace ID and takes medians and means.
func summarize(spans []obs.Span) traceSummary {
	durs := make(map[string][]int64)
	add := func(k string, d time.Duration) { durs[k] = append(durs[k], int64(d)) }
	servers := make(map[uint64]*obs.Span)
	var nServer int
	for i := range spans {
		sp := &spans[i]
		for _, ph := range sp.Phases {
			add(sp.Name+"/"+ph.Name, ph.Dur)
		}
		if sp.Name == "server" {
			servers[sp.Trace] = sp
			nServer++
		}
	}
	ts := traceSummary{median: make(map[string]float64), mean: make(map[string]float64)}
	for i := range spans {
		sp := &spans[i]
		if sp.Name != "client" {
			continue
		}
		srv, ok := servers[sp.Trace]
		if !ok {
			continue
		}
		add(phWire, sp.Dur-srv.Dur)
		if srv.Cmd == "exec" {
			add(phExecRPC, sp.Dur)
		}
	}
	for k, v := range durs {
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		ts.median[k] = float64(percentile(v, 0.5)) / 1e3
		var sum int64
		for _, d := range v {
			sum += d
		}
		// Server phases are averaged over every server span, not only
		// the spans that have the phase: a read has no barrier wait, and
		// the ledger wants the cost per RPC.
		n := len(v)
		switch k {
		case phQueue, phHandler, phBarrier, phReply:
			n = nServer
		}
		ts.mean[k] = float64(sum) / float64(n) / 1e3
	}
	return ts
}
