// Command benchfig regenerates the paper's tables and figures from the
// library's experiment harness.
//
// Usage:
//
//	benchfig [-fig 1|4|5a|5b|all] [-scale f] [-metrics file]
//	         [-cpuprofile file] [-memprofile file]
//
// -scale shrinks the Figure 5(b) workloads (1.0 = paper-sized runs;
// overhead percentages are scale-invariant). -metrics dumps the
// telemetry collected during the Figure 5(a) runs (per-class latency
// histograms and box counters) as Prometheus text exposition to the
// given file, or to stdout with "-". Instrumentation charges no
// virtual time, so the figures are bit-identical with or without it.
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (CI attaches them to bench-regression artifacts).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"identitybox/internal/harness"
	"identitybox/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 1, 4, 5a, 5b, burden, all")
	scale := flag.Float64("scale", 0.05, "workload scale factor for figure 5(b)")
	metrics := flag.String("metrics", "", `dump figure 5(a) telemetry to this file ("-" for stdout)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("benchfig: -cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("benchfig: starting CPU profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("benchfig: -memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("benchfig: writing heap profile: %v", err)
			}
		}()
	}

	switch *fig {
	case "1":
		figure1()
	case "4":
		figure4()
	case "5a":
		figure5a(*metrics)
	case "5b":
		figure5b(*scale)
	case "burden":
		burden()
	case "sens":
		sensitivity(*scale)
	case "intensity":
		intensity()
	case "all":
		figure1()
		fmt.Println()
		figure4()
		fmt.Println()
		figure5a(*metrics)
		fmt.Println()
		figure5b(*scale)
		fmt.Println()
		burden()
		fmt.Println()
		sensitivity(*scale)
		fmt.Println()
		intensity()
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func burden() {
	counts := []int{1, 10, 50, 100}
	rows, err := harness.RunBurdenScaling(counts)
	if err != nil {
		log.Fatalf("burden: %v", err)
	}
	fmt.Print(harness.RenderBurdenScaling(rows, counts))
}

func sensitivity(scale float64) {
	rows, err := harness.RunSensitivity([]float64{0.5, 1.0, 2.0}, scale/10)
	if err != nil {
		log.Fatalf("sensitivity: %v", err)
	}
	fmt.Print(harness.RenderSensitivity(rows))
}

func intensity() {
	rows, err := harness.RunOverheadVsIntensity([]float64{100, 1000, 5000, 15000, 40000})
	if err != nil {
		log.Fatalf("intensity: %v", err)
	}
	fmt.Print(harness.RenderIntensity(rows))
}

func figure1() {
	rows, err := harness.RunFigure1()
	if err != nil {
		log.Fatalf("figure 1: %v", err)
	}
	fmt.Print(harness.RenderFigure1(rows))
}

func figure4() {
	res, err := harness.RunFigure4()
	if err != nil {
		log.Fatalf("figure 4: %v", err)
	}
	fmt.Println("Figure 4: system-call trapping mechanism (one boxed stat)")
	fmt.Printf("  context switches per trapped call: %d\n", res.ContextSwitches)
	fmt.Printf("  native cost:  %v\n", res.NativeCost)
	fmt.Printf("  boxed cost:   %v (%.1fx)\n", res.BoxedCost, float64(res.BoxedCost)/float64(res.NativeCost))
	fmt.Printf("  audit record: %s\n", res.AuditLine)
}

func figure5a(metricsOut string) {
	var reg *obs.Registry
	if metricsOut != "" {
		reg = obs.NewRegistry()
	}
	rows, err := harness.RunFigure5a(reg, nil)
	if err != nil {
		log.Fatalf("figure 5a: %v", err)
	}
	fmt.Print(harness.RenderFigure5a(rows))
	if reg == nil {
		return
	}
	text := reg.Text()
	if metricsOut == "-" {
		fmt.Println()
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(metricsOut, []byte(text), 0o644); err != nil {
		log.Fatalf("metrics dump: %v", err)
	}
}

func figure5b(scale float64) {
	fmt.Printf("(workloads scaled by %g; overhead percentages are scale-invariant)\n", scale)
	rows, err := harness.RunFigure5b(scale)
	if err != nil {
		log.Fatalf("figure 5b: %v", err)
	}
	fmt.Print(harness.RenderFigure5b(rows))
}
