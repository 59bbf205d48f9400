package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"identitybox/internal/kernel"
	"identitybox/internal/obs"
)

// sevenClassProgram issues at least one call of every Figure 5(a)
// class: getpid, stat, open/close, small and large reads and writes.
func sevenClassProgram(t *testing.T) kernel.Program {
	return func(p *kernel.Proc, _ []string) int {
		p.Getpid()
		if _, err := p.Stat("/pub/readable.txt"); err != nil {
			t.Errorf("stat: %v", err)
		}
		fd, err := p.Open("mydata", kernel.ORdwr|kernel.OCreat, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return 1
		}
		small := []byte{'x'}
		big := bytes.Repeat([]byte{'y'}, 8192)
		if _, err := p.Pwrite(fd, small, 0); err != nil {
			t.Errorf("small write: %v", err)
		}
		if _, err := p.Pwrite(fd, big, 0); err != nil {
			t.Errorf("big write: %v", err)
		}
		if _, err := p.Pread(fd, small, 0); err != nil {
			t.Errorf("small read: %v", err)
		}
		if _, err := p.Pread(fd, big, 0); err != nil {
			t.Errorf("big read: %v", err)
		}
		p.Close(fd)
		return 0
	}
}

// TestHistogramsCoverFigure5aClasses runs a workload touching every
// Figure 5(a) syscall class and checks each class histogram saw it.
func TestHistogramsCoverFigure5aClasses(t *testing.T) {
	k := newWorld(t)
	reg := obs.NewRegistry()
	b := newBox(t, k, "Freddy", Options{Metrics: reg})
	if st := b.Run(sevenClassProgram(t)); st.Code != 0 {
		t.Fatalf("exit %d", st.Code)
	}
	for _, class := range Fig5aClasses() {
		h := reg.Histogram(obs.With(MetricLatencyFamily, "class", class), nil)
		if h.Count() == 0 {
			t.Errorf("class %q: no observations", class)
		}
		if h.Count() > 0 && h.Mean() <= 0 {
			t.Errorf("class %q: mean %g, want > 0", class, h.Mean())
		}
	}
	if got := reg.Counter(MetricSyscalls).Value(); got != b.Stats().Syscalls {
		t.Errorf("syscall counter %d != stats %d", got, b.Stats().Syscalls)
	}
}

// TestInstrumentationChargesNoVirtualTime is the zero-tick guarantee:
// a run with metrics, tracing and a streaming audit sink accumulates
// exactly the virtual runtime of an unobserved run.
func TestInstrumentationChargesNoVirtualTime(t *testing.T) {
	prog := sevenClassProgram(t)

	plain := newBox(t, newWorld(t), "Freddy", Options{})
	base := plain.Run(prog)

	var buf bytes.Buffer
	observed := newBox(t, newWorld(t), "Freddy", Options{
		Metrics:   obs.NewRegistry(),
		Trace:     obs.NewTrace(0),
		AuditSink: FanoutSink{NewAuditRing(100), NewJSONLSink(&buf)},
	})
	withObs := observed.Run(prog)

	if base.Runtime != withObs.Runtime {
		t.Fatalf("runtime with instrumentation %v != without %v", withObs.Runtime, base.Runtime)
	}
	if base.Syscalls != withObs.Syscalls {
		t.Fatalf("syscalls differ: %d vs %d", base.Syscalls, withObs.Syscalls)
	}
}

// TestStatHistogramSumMatchesClock checks the latency reconstruction:
// the stat-class histogram's sum must equal the virtual time the
// application spent across its stat calls (the boundary context
// switches and trap decode are invisible to the supervisor's clock
// window and are added back deterministically).
func TestStatHistogramSumMatchesClock(t *testing.T) {
	k := newWorld(t)
	reg := obs.NewRegistry()
	b := newBox(t, k, "Freddy", Options{Metrics: reg})
	const n = 50
	var elapsed float64
	st := b.Run(func(p *kernel.Proc, _ []string) int {
		start := p.Clock().Now()
		for i := 0; i < n; i++ {
			if _, err := p.Stat("/pub/readable.txt"); err != nil {
				return 1
			}
		}
		elapsed = float64(p.Clock().Now() - start)
		return 0
	})
	if st.Code != 0 {
		t.Fatalf("exit %d", st.Code)
	}
	h := reg.Histogram(obs.With(MetricLatencyFamily, "class", "stat"), nil)
	if h.Count() != n {
		t.Fatalf("stat count = %d, want %d", h.Count(), n)
	}
	if diff := h.Sum() - elapsed; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("histogram sum %g != clock elapsed %g", h.Sum(), elapsed)
	}
}

// TestTraceRecordsProtocolPhases checks the Figure-4 phase events: one
// trap_entry per trapped call, acl_check events matching the ACL
// counter, peek/poke for small transfers, channel stage/collect for
// bulk ones, and a completion verdict for every call.
func TestTraceRecordsProtocolPhases(t *testing.T) {
	k := newWorld(t)
	tr := obs.NewTrace(0)
	b := newBox(t, k, "Freddy", Options{Trace: tr})
	if st := b.Run(sevenClassProgram(t)); st.Code != 0 {
		t.Fatalf("exit %d", st.Code)
	}
	stats := b.Stats()
	if got := tr.PhaseCount(obs.PhaseTrapEntry); got != stats.Syscalls {
		t.Errorf("trap_entry events %d != trapped syscalls %d", got, stats.Syscalls)
	}
	if got := tr.PhaseCount(obs.PhaseACLCheck); got != stats.ACLChecks {
		t.Errorf("acl_check events %d != ACL checks %d", got, stats.ACLChecks)
	}
	if tr.PhaseCount(obs.PhasePeek) == 0 || tr.PhaseCount(obs.PhasePoke) == 0 {
		t.Error("expected peek and poke events from small transfers")
	}
	if tr.PhaseCount(obs.PhaseChannelStage) == 0 || tr.PhaseCount(obs.PhaseChannelCollect) == 0 {
		t.Error("expected channel stage (bulk read) and collect (bulk write) events")
	}
	completions := tr.PhaseCount(obs.PhaseNullified) + tr.PhaseCount(obs.PhaseNative) +
		tr.PhaseCount(obs.PhaseChannelRead) + tr.PhaseCount(obs.PhaseChannelWrite)
	if completions != stats.Syscalls {
		t.Errorf("completion events %d != trapped syscalls %d", completions, stats.Syscalls)
	}
	if tr.PhaseCount(obs.PhaseChannelRead) == 0 || tr.PhaseCount(obs.PhaseChannelWrite) == 0 {
		t.Error("bulk transfers should complete via the channel verdicts")
	}
}

func TestClassify(t *testing.T) {
	small := make([]byte, 1)
	large := make([]byte, 8192)
	cases := []struct {
		f    kernel.Frame
		want sysClass
	}{
		{kernel.Frame{Sys: kernel.SysGetpid}, classGetpid},
		{kernel.Frame{Sys: kernel.SysLstat}, classStat},
		{kernel.Frame{Sys: kernel.SysFstat}, classStat},
		{kernel.Frame{Sys: kernel.SysOpen}, classOpenClose},
		{kernel.Frame{Sys: kernel.SysClose}, classOpenClose},
		{kernel.Frame{Sys: kernel.SysRead, Buf: small}, classReadSmall},
		{kernel.Frame{Sys: kernel.SysPread, Buf: large}, classReadLarge},
		{kernel.Frame{Sys: kernel.SysWrite, Buf: small}, classWriteSmall},
		{kernel.Frame{Sys: kernel.SysPwrite, Buf: large}, classWriteLarge},
		{kernel.Frame{Sys: kernel.SysMkdir}, classOther},
	}
	for _, c := range cases {
		if got := classify(&c.f); got != c.want {
			t.Errorf("classify(%v) = %v, want %v", c.f.Sys, got, c.want)
		}
	}
}

// --- audit sinks ---------------------------------------------------------

func TestAuditRingEviction(t *testing.T) {
	r := NewAuditRing(3)
	for i := 1; i <= 5; i++ {
		r.Record(AuditRecord{PID: i})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d, want 3", len(snap))
	}
	for i, rec := range snap {
		if rec.PID != i+3 {
			t.Fatalf("snapshot = %v, want PIDs 3,4,5 oldest first", snap)
		}
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestJSONLSinkStreamsRecords(t *testing.T) {
	k := newWorld(t)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	b := newBox(t, k, "Freddy", Options{AuditSink: sink})
	b.Run(func(p *kernel.Proc, _ []string) int {
		p.Getpid()
		p.ReadFile("/home/dthain/secret") // denied
		return 0
	})
	if sink.Err() != nil {
		t.Fatal(sink.Err())
	}
	// A pure streaming sink retains nothing for Audit.
	if b.Audit() != nil {
		t.Fatalf("Audit() = %v, want nil for a JSONL-only sink", b.Audit())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("only %d JSONL lines", len(lines))
	}
	var sawDenial bool
	for _, line := range lines {
		var rec AuditRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Denied {
			sawDenial = true
		}
	}
	if !sawDenial {
		t.Fatal("no denial streamed")
	}
}

func TestFanoutSinkFeedsRingAndStream(t *testing.T) {
	k := newWorld(t)
	var buf bytes.Buffer
	ring := NewAuditRing(100)
	b := newBox(t, k, "Freddy", Options{AuditSink: FanoutSink{ring, NewJSONLSink(&buf)}})
	b.Run(func(p *kernel.Proc, _ []string) int { p.Getpid(); return 0 })
	audit := b.Audit() // resolved through the fan-out to the ring
	if len(audit) == 0 {
		t.Fatal("fan-out lost the ring snapshot")
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != len(audit) {
		t.Fatalf("stream has %d lines, ring %d records", got, len(audit))
	}
}
