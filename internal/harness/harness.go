// Package harness runs the paper's experiments end to end and renders
// the tables and series of every figure: the identity-mapping
// comparison (Figure 1), the trap-mechanism walkthrough (Figure 4), the
// system-call latency bars (Figure 5a) and the application overhead
// bars (Figure 5b). Each result carries the paper's value alongside the
// measured one so EXPERIMENTS.md can be regenerated mechanically.
package harness

import (
	"fmt"
	"strings"

	"identitybox/internal/core"
	"identitybox/internal/identity"
	"identitybox/internal/kernel"
	"identitybox/internal/mapping"
	"identitybox/internal/obs"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
	"identitybox/internal/workload"
)

// BenchIdentity is the grid identity the boxed benchmark runs carry.
const BenchIdentity = identity.Principal("globus:/O=UnivNowhere/CN=Bench")

// benchAccount is the local account the benchmarks (and the supervising
// box) run under.
const benchAccount = "dthain"

// World bundles a kernel prepared with the workload tree.
type World struct {
	K *kernel.Kernel
}

// NewWorld builds a fresh benchmark world.
func NewWorld() (*World, error) {
	fs := vfs.New(kernel.RootAccount)
	k := kernel.New(fs, vclock.Default())
	if err := fs.MkdirAll("/tmp", 0o777, kernel.RootAccount); err != nil {
		return nil, err
	}
	if err := fs.MkdirAll("/etc", 0o755, kernel.RootAccount); err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/etc/passwd", []byte(benchAccount+":x:1000:1000::/home/"+benchAccount+":/bin/sh\n"), 0o644, kernel.RootAccount); err != nil {
		return nil, err
	}
	if err := workload.Setup(fs, benchAccount); err != nil {
		return nil, err
	}
	return &World{K: k}, nil
}

// RunNative executes a program without any supervisor: the
// "unmodified" configuration.
func (w *World) RunNative(prog kernel.Program) kernel.ExitStatus {
	return w.K.Run(kernel.ProcSpec{Account: benchAccount, Cwd: workload.BenchRoot}, prog)
}

// NewBox creates an identity box over this world with the benchmark
// identity.
func (w *World) NewBox(opts core.Options) (*core.Box, error) {
	return core.New(w.K, benchAccount, BenchIdentity, opts)
}

// RunBoxed executes a program inside a fresh identity box: the "with
// identity box" configuration.
func (w *World) RunBoxed(opts core.Options, prog kernel.Program) (kernel.ExitStatus, error) {
	box, err := w.NewBox(opts)
	if err != nil {
		return kernel.ExitStatus{}, err
	}
	return box.RunAt(workload.BenchRoot, prog), nil
}

// --- Figure 5(a) ---------------------------------------------------------

// Fig5aRow is one bar pair of Figure 5(a).
type Fig5aRow struct {
	Name          string
	NativeUS      float64 // measured, unmodified
	BoxedUS       float64 // measured, with identity box
	Slowdown      float64 // BoxedUS / NativeUS
	PaperNativeUS float64
	PaperBoxedUS  float64
}

// RunFigure5a measures every microbenchmark natively and boxed. Every
// boxed run records into reg and spans, each when non-nil: afterwards
// the registry's per-class latency histograms cover all seven Figure
// 5(a) syscall classes, and spans holds a wall-clock "box.run" span
// per run. Neither charges virtual time, so the rows, which are
// virtual-clock measurements, are bit-identical with and without them;
// TestTracedFigure5aTickIdentical holds that invariant.
func RunFigure5a(reg *obs.Registry, spans *obs.SpanRing) ([]Fig5aRow, error) {
	var rows []Fig5aRow
	for _, m := range workload.Micros() {
		nw, err := NewWorld()
		if err != nil {
			return nil, err
		}
		native, err := workload.MeasureMicro(m, nw.RunNative)
		if err != nil {
			return nil, err
		}
		bw, err := NewWorld()
		if err != nil {
			return nil, err
		}
		box, err := bw.NewBox(core.Options{Metrics: reg, Spans: spans})
		if err != nil {
			return nil, err
		}
		boxed, err := workload.MeasureMicro(m, func(prog kernel.Program) kernel.ExitStatus {
			return box.RunAt(workload.BenchRoot, prog)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5aRow{
			Name:          m.Name,
			NativeUS:      native,
			BoxedUS:       boxed,
			Slowdown:      boxed / native,
			PaperNativeUS: m.PaperUnmodified,
			PaperBoxedUS:  m.PaperBoxed,
		})
	}
	return rows, nil
}

// RenderFigure5a formats the rows as the paper's table.
func RenderFigure5a(rows []Fig5aRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(a): system-call latency, microseconds per call\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %9s %14s %12s\n",
		"syscall", "unmodified", "with box", "slowdown", "paper unmod.", "paper boxed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.2f %12.2f %8.1fx %14.1f %12.1f\n",
			r.Name, r.NativeUS, r.BoxedUS, r.Slowdown, r.PaperNativeUS, r.PaperBoxedUS)
	}
	return b.String()
}

// --- Figure 5(b) -----------------------------------------------------------

// Fig5bRow is one bar pair of Figure 5(b).
type Fig5bRow struct {
	Name             string
	NativeSeconds    float64
	BoxedSeconds     float64
	OverheadPct      float64
	PaperOverheadPct float64
	PaperRuntime     float64
}

// RunFigure5b measures every application natively and boxed. Scale
// shrinks the workloads (1.0 reproduces the paper-sized runs; tests use
// a smaller factor — relative overhead is scale-invariant).
func RunFigure5b(scale float64) ([]Fig5bRow, error) {
	var rows []Fig5bRow
	for _, app := range workload.Apps() {
		a := app
		if scale != 1.0 {
			a = app.Scaled(scale)
		}
		nw, err := NewWorld()
		if err != nil {
			return nil, err
		}
		nst := nw.RunNative(a.Program())
		if nst.Code != 0 {
			return nil, fmt.Errorf("harness: native %s exited %d", a.Name, nst.Code)
		}
		bw, err := NewWorld()
		if err != nil {
			return nil, err
		}
		bst, err := bw.RunBoxed(core.Options{}, a.Program())
		if err != nil {
			return nil, err
		}
		if bst.Code != 0 {
			return nil, fmt.Errorf("harness: boxed %s exited %d", a.Name, bst.Code)
		}
		n := nst.Runtime.Seconds()
		bx := bst.Runtime.Seconds()
		rows = append(rows, Fig5bRow{
			Name:             app.Name,
			NativeSeconds:    n,
			BoxedSeconds:     bx,
			OverheadPct:      (bx - n) / n * 100,
			PaperOverheadPct: app.PaperOverheadPct,
			PaperRuntime:     app.PaperRuntimeSeconds,
		})
	}
	return rows, nil
}

// RenderFigure5b formats the rows as the paper's chart data.
func RenderFigure5b(rows []Fig5bRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5(b): application runtime, seconds (virtual)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %12s %14s\n",
		"app", "unmodified", "with box", "overhead", "paper ovhd", "paper runtime")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.1f %12.1f %+9.1f%% %+11.1f%% %14.0f\n",
			r.Name, r.NativeSeconds, r.BoxedSeconds, r.OverheadPct, r.PaperOverheadPct, r.PaperRuntime)
	}
	return b.String()
}

// --- Figure 1 ---------------------------------------------------------------

// Fig1Result pairs a measured row with the paper's.
type Fig1Result struct {
	Measured mapping.Measured
	Paper    mapping.PaperRow
	Matches  bool
}

// RunFigure1 probes the seven identity-mapping methods with 20 users.
func RunFigure1() ([]Fig1Result, error) {
	mappers, worlds, err := mapping.AllMappers("svcowner")
	if err != nil {
		return nil, err
	}
	paper := mapping.PaperFigure1()
	users := mapping.ProbeUsers(20)
	var out []Fig1Result
	for i, m := range mappers {
		got, err := mapping.Probe(m, worlds[i], users)
		if err != nil {
			return nil, fmt.Errorf("harness: probing %s: %w", m.Name(), err)
		}
		want := paper[i]
		matches := got.RequiresRoot == want.RequiresRoot &&
			got.ProtectsOwner == want.ProtectsOwner &&
			got.Privacy == want.Privacy &&
			got.Sharing == want.Sharing &&
			got.Return == want.Return &&
			got.AdminBurden == want.AdminBurden
		out = append(out, Fig1Result{Measured: got, Paper: want, Matches: matches})
	}
	return out, nil
}

// RenderFigure1 formats the measured table next to the paper's labels.
func RenderFigure1(rows []Fig1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: identity mapping methods (measured by scenario probes, 20 users)\n")
	fmt.Fprintf(&b, "%-13s %-10s %-8s %-8s %-8s %-7s %-10s %-7s %s\n",
		"method", "privilege", "protect", "privacy", "sharing", "return", "burden", "admin#", "matches paper")
	for _, r := range rows {
		priv := "-"
		if r.Measured.RequiresRoot {
			priv = "root"
		}
		fmt.Fprintf(&b, "%-13s %-10s %-8s %-8s %-8s %-7s %-10s %-7d %v\n",
			r.Measured.Method, priv, yn(r.Measured.ProtectsOwner),
			r.Measured.Privacy, r.Measured.Sharing, yn(r.Measured.Return),
			r.Measured.AdminBurden, r.Measured.AdminActions, r.Matches)
	}
	return b.String()
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// --- Figure 4 -----------------------------------------------------------------

// Fig4Result describes one trapped system call, demonstrating the
// mechanism of Figure 4.
type Fig4Result struct {
	Call            string
	NativeCost      vclock.Micros
	BoxedCost       vclock.Micros
	ContextSwitches int // per the protocol: six
	AuditLine       string
}

// RunFigure4 performs a single boxed stat and decomposes its cost.
func RunFigure4() (Fig4Result, error) {
	w, err := NewWorld()
	if err != nil {
		return Fig4Result{}, err
	}
	var nativeCost vclock.Micros
	w.RunNative(func(p *kernel.Proc, _ []string) int {
		before := p.Clock().Now()
		p.Stat(workload.BenchRoot + "/src00.c")
		nativeCost = p.Clock().Now() - before
		return 0
	})
	bw, err := NewWorld()
	if err != nil {
		return Fig4Result{}, err
	}
	box, err := bw.NewBox(core.Options{})
	if err != nil {
		return Fig4Result{}, err
	}
	var boxedCost vclock.Micros
	box.RunAt(workload.BenchRoot, func(p *kernel.Proc, _ []string) int {
		before := p.Clock().Now()
		p.Stat(workload.BenchRoot + "/src00.c")
		boxedCost = p.Clock().Now() - before
		return 0
	})
	audit := box.Audit()
	line := ""
	for _, rec := range audit {
		if rec.Call.Sys == kernel.SysStat {
			line = rec.Call.String()
		}
	}
	return Fig4Result{
		Call:            "stat",
		NativeCost:      nativeCost,
		BoxedCost:       boxedCost,
		ContextSwitches: 6,
		AuditLine:       line,
	}, nil
}
