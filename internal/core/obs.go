package core

import (
	"identitybox/internal/kernel"
	"identitybox/internal/obs"
	"identitybox/internal/trap"
)

// This file wires the box into the obs telemetry package: per-syscall-
// class latency histograms keyed by the Figure 5(a) categories, counters
// mirroring Stats, and Figure-4 phase events. Instrumentation is purely
// observational — it reads the virtual clock but never charges it, so
// enabling metrics or tracing changes no deterministic figure.

// sysClass buckets syscalls into the Figure 5(a) measurement categories.
// Reads and writes split at trap.BulkThreshold, the same boundary that
// separates peek/poke movement from the I/O channel, so the small
// classes correspond to the figure's 1-byte bars and the large classes
// to its 8-kbyte bars.
type sysClass int

const (
	classGetpid sysClass = iota
	classStat
	classOpenClose
	classReadSmall
	classReadLarge
	classWriteSmall
	classWriteLarge
	classOther

	classCount // keep last
)

var classNames = [...]string{
	classGetpid:     "getpid",
	classStat:       "stat",
	classOpenClose:  "open_close",
	classReadSmall:  "read_small",
	classReadLarge:  "read_large",
	classWriteSmall: "write_small",
	classWriteLarge: "write_large",
	classOther:      "other",
}

// String names the class as it appears in the metric label.
func (c sysClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Fig5aClasses lists the seven Figure 5(a) syscall-class labels in
// figure order (excluding the catch-all "other").
func Fig5aClasses() []string {
	return []string{
		classGetpid.String(), classStat.String(), classOpenClose.String(),
		classReadSmall.String(), classReadLarge.String(),
		classWriteSmall.String(), classWriteLarge.String(),
	}
}

// classify maps one syscall frame onto its Figure 5(a) class.
func classify(f *kernel.Frame) sysClass {
	switch f.Sys {
	case kernel.SysGetpid, kernel.SysGetppid:
		return classGetpid
	case kernel.SysStat, kernel.SysLstat, kernel.SysFstat:
		return classStat
	case kernel.SysOpen, kernel.SysClose:
		return classOpenClose
	case kernel.SysRead, kernel.SysPread:
		if len(f.Buf) <= trap.BulkThreshold {
			return classReadSmall
		}
		return classReadLarge
	case kernel.SysWrite, kernel.SysPwrite:
		if len(f.Buf) <= trap.BulkThreshold {
			return classWriteSmall
		}
		return classWriteLarge
	default:
		return classOther
	}
}

// Metric names a box records into Options.Metrics, when one is given.
const (
	MetricSyscalls      = "box_syscalls_total"
	MetricACLChecks     = "box_acl_checks_total"
	MetricDenials       = "box_denials_total"
	MetricLatencyFamily = "box_syscall_latency_us"
)

// boxMetrics caches the box's metric handles so the per-syscall hot
// path never takes the registry lock.
type boxMetrics struct {
	syscalls  *obs.Counter
	aclChecks *obs.Counter
	denials   *obs.Counter
	latency   [classCount]*obs.Histogram
}

func newBoxMetrics(reg *obs.Registry) *boxMetrics {
	reg.Help(MetricSyscalls, "System calls trapped by the identity box.")
	reg.Help(MetricACLChecks, "ACL evaluations performed by the box's reference monitor.")
	reg.Help(MetricDenials, "Accesses denied by the box.")
	reg.Help(MetricLatencyFamily, "Full cost of one trapped call in virtual microseconds, by Figure 5(a) class.")
	m := &boxMetrics{
		syscalls:  reg.Counter(MetricSyscalls),
		aclChecks: reg.Counter(MetricACLChecks),
		denials:   reg.Counter(MetricDenials),
	}
	for c := sysClass(0); c < classCount; c++ {
		m.latency[c] = reg.Histogram(obs.With(MetricLatencyFamily, "class", c.String()), obs.LatencyBuckets())
	}
	return m
}

// Trace returns the Figure-4 phase tracer, nil unless Options.Trace was
// set.
func (b *Box) Trace() *obs.Trace { return b.trace }

// emitPhase records one Figure-4 phase event when tracing is enabled.
// It reads the process clock but charges nothing.
func (b *Box) emitPhase(p *kernel.Proc, ph obs.Phase, sys, path string, bytes int) {
	if b.trace == nil {
		return
	}
	b.trace.Emit(obs.Event{
		At:    float64(p.Clock().Now()),
		PID:   p.PID(),
		Sys:   sys,
		Path:  path,
		Bytes: bytes,
		Phase: ph,
	})
}

// completionPhase maps the supervisor's entry verdict onto the phase
// that describes how the call completed.
func completionPhase(act kernel.EntryAction) obs.Phase {
	switch act {
	case kernel.ActionNullify:
		return obs.PhaseNullified
	case kernel.ActionChannelRead:
		return obs.PhaseChannelRead
	case kernel.ActionChannelWrite:
		return obs.PhaseChannelWrite
	default:
		return obs.PhaseNative
	}
}
