// Package identitybox's top-level benchmarks regenerate every table and
// figure of the paper's evaluation:
//
//	BenchmarkFig1Mappers     — Figure 1, the identity-mapping table
//	BenchmarkFig4TrapRoundTrip — Figure 4, one trapped call's mechanism
//	BenchmarkFig5aMicro/...  — Figure 5(a), per-syscall latency
//	BenchmarkFig5bApps/...   — Figure 5(b), application overhead
//	BenchmarkAblation...     — design-choice ablations (DESIGN.md §4)
//
// Simulated results are reported as custom metrics (vus = virtual
// microseconds; overhead%), while ns/op measures the simulator itself.
// Run: go test -bench=. -benchmem
package identitybox

import (
	"testing"

	"identitybox/internal/core"
	"identitybox/internal/harness"
	"identitybox/internal/kernel"
	"identitybox/internal/mapping"
	"identitybox/internal/workload"
)

// BenchmarkFig1Mappers probes all seven identity-mapping methods.
func BenchmarkFig1Mappers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		matched := 0
		for _, r := range rows {
			if r.Matches {
				matched++
			}
		}
		b.ReportMetric(float64(matched), "rows-matching-paper")
	}
}

// BenchmarkFig4TrapRoundTrip measures one fully trapped system call:
// virtual cost in the custom metric, simulator speed in ns/op.
func BenchmarkFig4TrapRoundTrip(b *testing.B) {
	w, err := harness.NewWorld()
	if err != nil {
		b.Fatal(err)
	}
	box, err := w.NewBox(core.Options{AuditLimit: 16})
	if err != nil {
		b.Fatal(err)
	}
	var virtual float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		box.RunAt(workload.BenchRoot, func(p *kernel.Proc, _ []string) int {
			before := p.Clock().Now()
			p.Getpid()
			virtual = float64(p.Clock().Now() - before)
			return 0
		})
	}
	b.ReportMetric(virtual, "vus/trap")
}

// BenchmarkFig5aMicro reproduces each bar pair of Figure 5(a).
func BenchmarkFig5aMicro(b *testing.B) {
	for _, m := range workload.Micros() {
		m := m
		b.Run(sanitizeBenchName(m.Name), func(b *testing.B) {
			var native, boxed float64
			for i := 0; i < b.N; i++ {
				nw, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				native, err = workload.MeasureMicro(m, nw.RunNative)
				if err != nil {
					b.Fatal(err)
				}
				bw, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				box, err := bw.NewBox(core.Options{AuditLimit: 16})
				if err != nil {
					b.Fatal(err)
				}
				boxed, err = workload.MeasureMicro(m, func(prog kernel.Program) kernel.ExitStatus {
					return box.RunAt(workload.BenchRoot, prog)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(native, "vus/call-unmod")
			b.ReportMetric(boxed, "vus/call-boxed")
			b.ReportMetric(boxed/native, "slowdown-x")
		})
	}
}

// fig5bScale shrinks the paper-sized workloads so a full bench sweep
// stays interactive; overhead percentages are scale-invariant.
const fig5bScale = 0.01

// BenchmarkFig5bApps reproduces each bar pair of Figure 5(b).
func BenchmarkFig5bApps(b *testing.B) {
	for _, app := range workload.Apps() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			a := app.Scaled(fig5bScale)
			var overhead float64
			for i := 0; i < b.N; i++ {
				nw, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				nst := nw.RunNative(a.Program())
				if nst.Code != 0 {
					b.Fatalf("native exited %d", nst.Code)
				}
				bw, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				bst, err := bw.RunBoxed(core.Options{AuditLimit: 16}, a.Program())
				if err != nil {
					b.Fatal(err)
				}
				if bst.Code != 0 {
					b.Fatalf("boxed exited %d", bst.Code)
				}
				overhead = (bst.Runtime.Seconds() - nst.Runtime.Seconds()) / nst.Runtime.Seconds() * 100
			}
			b.ReportMetric(overhead, "overhead-%")
			b.ReportMetric(app.PaperOverheadPct, "paper-overhead-%")
		})
	}
}

// BenchmarkAblationChannelVsPeekPoke compares bulk 8 kB reads through
// the I/O channel against word-at-a-time peek/poke: the reason the
// channel exists (Figure 4b).
func BenchmarkAblationChannelVsPeekPoke(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"channel", core.Options{AuditLimit: 16}},
		{"peekpoke", core.Options{AuditLimit: 16, ForcePeekPoke: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			m, _ := workload.MicroByName("read 8 kbyte")
			var boxed float64
			for i := 0; i < b.N; i++ {
				w, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				box, err := core.New(w.K, "dthain", harness.BenchIdentity, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				boxed, err = workload.MeasureMicro(m, func(prog kernel.Program) kernel.ExitStatus {
					return box.RunAt(workload.BenchRoot, prog)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(boxed, "vus/read8k")
		})
	}
}

// BenchmarkAblationPolicyCost separates enforcement cost (ACL checks)
// from pure interposition cost on the metadata-heavy build workload.
func BenchmarkAblationPolicyCost(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"full-policy", core.Options{AuditLimit: 16}},
		{"mechanism-only", core.Options{AuditLimit: 16, DisablePolicy: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			app, _ := workload.AppByName("make")
			a := app.Scaled(0.002)
			var runtime float64
			for i := 0; i < b.N; i++ {
				w, err := harness.NewWorld()
				if err != nil {
					b.Fatal(err)
				}
				bst, err := w.RunBoxed(cfg.opts, a.Program())
				if err != nil {
					b.Fatal(err)
				}
				if bst.Code != 0 {
					b.Fatalf("boxed exited %d", bst.Code)
				}
				runtime = bst.Runtime.Seconds()
			}
			b.ReportMetric(runtime, "vsec/build")
		})
	}
}

// BenchmarkMapperLogin measures admission throughput per method: the
// operational cost behind the Figure-1 burden column.
func BenchmarkMapperLogin(b *testing.B) {
	kinds := []struct {
		name string
		mk   func(w *mapping.World) mapping.Mapper
	}{
		{"private", func(w *mapping.World) mapping.Mapper { return mapping.NewPrivateMapper(w) }},
		{"pool", func(w *mapping.World) mapping.Mapper { return mapping.NewPoolMapper(w, 4096) }},
		{"identity-box", func(w *mapping.World) mapping.Mapper { return &mapping.BoxMapper{W: w} }},
	}
	users := mapping.ProbeUsers(64)
	for _, kind := range kinds {
		kind := kind
		b.Run(kind.name, func(b *testing.B) {
			w, err := mapping.NewWorld("svcowner")
			if err != nil {
				b.Fatal(err)
			}
			m := kind.mk(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := m.Login(users[i%len(users)])
				if err != nil {
					b.Fatal(err)
				}
				s.End()
			}
		})
	}
}

func sanitizeBenchName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
