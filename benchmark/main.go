// Command benchmark is the production-configuration Chirp serving
// benchmark: a primary with a state directory on the real disk, a sharded
// group-commit WAL, one semi-sync follower, admission control and
// deadline budgets, assembled in-process through the constructors
// cmd/chirpd uses, and driven by five named workloads. See README.md.
//
// One run of one workload (what the benchmark driver invokes):
//
//	bash benchmark/run.sh --workload meta_shared --seed 1 --seconds 15 --trace 0
//
// prints, as its last line, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
//
// The whole suite in one command (every workload, both runs, oracle,
// probes), with the numbers also written to a file:
//
//	bash benchmark/run.sh -seed 1 -out bench.json [-repeat 5] [-scale 0.1]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the driver's JSON line (empty: run the suite)")
		seed      = flag.Uint64("seed", 1, "generator seed: op order, key choice, payload bytes, arrival times")
		seconds   = flag.Float64("seconds", 0, "timed window per run in seconds (0: 15 x scale)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (counters pass, traced pass, probes)")
		stateRoot = flag.String("state-root", ".bench_build/state", "directory the runs' state directories are created under")
		scale     = flag.Float64("scale", 1, "scale the windows and the working sets together (smoke tests)")
		out       = flag.String("out", "", "suite mode: also write the report as JSON to this file")
		repeat    = flag.Int("repeat", 1, "suite mode: run the suite this many times in fresh state directories and print the spread")
	)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(float64(nominalWindow) * *scale)
	}
	if err := os.MkdirAll(*stateRoot, 0o755); err != nil {
		fatal(err)
	}
	prov := provenance(*stateRoot, *seed, window)
	if prov.StateFS == "tmpfs" {
		fmt.Fprintln(os.Stderr, "chirpbench: WARNING: the state directory is on tmpfs: fsync is free there and durable_write measures nothing")
	}
	base := options{seed: *seed, window: window, stateRoot: *stateRoot, scale: *scale, setups: endToEndSetups}

	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames))
		}
		opt := base
		opt.workload, opt.trace = *workload, *trace != 0
		if opt.trace {
			opt.setups = 1
		}
		res, err := runWorkload(opt)
		if err != nil {
			fatal(err)
		}
		for _, n := range res.notes {
			fmt.Fprintln(os.Stderr, "chirpbench:", n)
		}
		printJSON(prov)
		printJSON(driverLine(res, opt.trace))
		return
	}

	rep, err := runSuite(base, *repeat, prov)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		var buf bytes.Buffer
		if err := rep.writeResults(&buf); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
	}
	if !rep.Correct {
		fmt.Fprintln(os.Stderr, "chirpbench: the oracle reported violations (see above)")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chirpbench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// metricValue is one metric in the driver's JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object the benchmark driver reads from the last
// line of standard output.
func driverLine(res *result, traced bool) map[string]any {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	return map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   ms,
	}
}

// provenanceInfo says what was measured where, so numbers from
// different configurations are never compared. Config pairs each
// resolved setting with the chirpd flag it corresponds to.
type provenanceInfo struct {
	Config     map[string]string `json:"config"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Seed       uint64            `json:"seed"`
	WindowS    float64           `json:"window_s"`
	StateDir   string            `json:"state_dir"`
	StateFS    string            `json:"state_fs"`
	Transport  string            `json:"transport"`
}

// relToWD names a path relative to the working directory when it lies
// under it, so the record does not depend on where the checkout sits.
func relToWD(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, path); err == nil && filepath.IsLocal(rel) {
		return rel
	}
	return path
}

func provenance(stateRoot string, seed uint64, window time.Duration) provenanceInfo {
	cfg := defaultConfig()
	scale := float64(window) / float64(nominalWindow)
	orDefault := func(v any, def string) string {
		if s := fmt.Sprint(v); s != "0" && s != "0s" {
			return s
		}
		return def
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return provenanceInfo{
		Config: map[string]string{
			"-state":                 "primary and follower each on their own directory",
			"-wal-shards":            fmt.Sprint(cfg.WALShards),
			"-fsync":                 fmt.Sprint(cfg.Fsync),
			"-commit-window":         orDefault(cfg.CommitWindow, "default (200us)"),
			"-commit-batch":          orDefault(cfg.CommitBatch, "default (128)"),
			"-compact-every":         fmt.Sprint(time.Duration(float64(cfg.CompactEvery) * scale)),
			"-replicate":             "one semi-sync follower (-replica-of the primary), no catalog",
			"-lease-ttl":             fmt.Sprint(cfg.LeaseTTL),
			"-admit-queue":           fmt.Sprint(cfg.AdmitQueue),
			"-exec-slots":            orDefault(cfg.ExecSlots, "default (8)"),
			"-window":                orDefault(cfg.Window, "default (64)"),
			"-workers":               orDefault(cfg.Workers, "default (4)"),
			"-req-timeout":           fmt.Sprint(cfg.ReqTimeout),
			"-trace-spans":           "0 (end-to-end run); one ring (per-layer run)",
			"chirp -deadline-budget": fmt.Sprint(cfg.DeadlineBudget),
			"connections":            fmt.Sprint(cfg.Conns),
		},
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		WindowS:    window.Seconds(),
		StateDir:   relToWD(stateRoot),
		StateFS:    fsType(stateRoot),
		Transport:  "loopback TCP, one process",
	}
}
