package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables the run emits from must say the same
// thing, inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(b.EndToEnd), len(endToEnd))
	}
	seen := make(map[string]bool)
	hasSetup := false
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, the benchmark emits %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
		if seen[m.Name] || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("bad or repeated name/unit: %q %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, the benchmark emits %+v", i, m, d)
		}
		if seen[m.Name] || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("bad or repeated name/unit: %q %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for i := range openRates {
		if !seen[stepMetric(i)] {
			t.Errorf("no per-layer metric %s for the %v ops/s step", stepMetric(i), openRates[i])
		}
	}
}

// RESULTS.json is where the things the contract leaves no room for in
// BENCHMARK.json are published: each per-layer metric's layer and the
// end-to-end metric it should move, and the latest numbers. It must
// cover every name in BENCHMARK.json on every workload.
func TestResultsJSONCoversBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	data, err := os.ReadFile("RESULTS.json")
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Passes   int `json:"passes"`
		EndToEnd []struct {
			Name, Unit string
			Gated      bool
			Workloads  map[string]struct{ Median float64 }
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Layer, Unit, Moves string
			Median                   map[string]float64
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Passes < 1 {
		t.Error("RESULTS.json records no suite pass")
	}
	gated := make(map[string]bool)
	for _, m := range res.EndToEnd {
		if !m.Gated {
			continue
		}
		gated[m.Name] = true
		for _, wl := range workloadNames {
			if m.Workloads[wl].Median <= 0 {
				t.Errorf("RESULTS.json: %s on %s is %v", m.Name, wl, m.Workloads[wl].Median)
			}
		}
	}
	for i, m := range b.EndToEnd {
		if !gated[m.Name] {
			t.Errorf("RESULTS.json has no numbers for end-to-end metric %s", m.Name)
		}
		if endToEnd[i].moves != "" {
			t.Errorf("%s: an end-to-end metric moves nothing but itself", m.Name)
		}
	}
	if len(res.PerLayer) != len(perLayer) {
		t.Fatalf("RESULTS.json has %d per-layer metrics, the benchmark emits %d", len(res.PerLayer), len(perLayer))
	}
	for i, m := range res.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Layer != d.layer() || m.Moves != d.moves || m.Moves == "" {
			t.Errorf("RESULTS.json per_layer[%d] = %s/%s/%s/%q, the benchmark has %s/%s/%s/%q", i, m.Name, m.Layer, m.Unit, m.Moves, d.name, d.layer(), d.unit, d.moves)
		}
		if len(m.Median) != len(workloadNames) {
			t.Errorf("RESULTS.json: %s has numbers for %d workloads", m.Name, len(m.Median))
		}
	}
}

// Every workload, both runs, scaled down: each name in BENCHMARK.json is
// emitted as a finite number, and nothing fails.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against real state directories")
	}
	b := loadBenchmarkJSON(t)
	const scale = 0.02
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			opt := options{
				workload:  wl,
				seed:      1,
				window:    time.Duration(float64(nominalWindow) * scale),
				trace:     traced,
				stateRoot: t.TempDir(),
				scale:     scale,
				setups:    1,
			}
			res, err := runWorkload(opt)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", wl, traced, err)
			}
			overrun := raceEnabled && wl == "mixed_open"
			if !res.correct || (res.failed != 0 && !overrun) || res.attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", wl, traced, res.correct, res.failed, res.attempted, res.notes)
			}
			line := driverLine(res, traced)["metrics"].(map[string]metricValue)
			want := len(b.EndToEnd)
			if traced {
				want = len(b.PerLayer)
			}
			if len(line) != want {
				t.Errorf("%s (trace %v): %d metrics emitted, BENCHMARK.json lists %d", wl, traced, len(line), want)
			}
			check := func(name, unit string) {
				m, ok := line[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s not emitted", wl, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, want %q", wl, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s is %v", wl, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v: they are never zero", wl, name, m.Value)
				}
			}
			if traced {
				for _, m := range b.PerLayer {
					check(m.Name, m.Unit)
				}
				for _, name := range []string{"driver.failed_frac", "durable.acked_lost", "durable.degraded", "replica.sync_timeouts"} {
					v := line[name].Value
					if name == "durable.acked_lost" {
						v -= res.extra["acked_lost_known"] // see checkDurability
					}
					if v != 0 && !(overrun && name == "driver.failed_frac") {
						t.Errorf("%s: %s = %v, want 0", wl, name, v)
					}
				}
			} else {
				for _, m := range b.EndToEnd {
					check(m.Name, m.Unit)
				}
			}
		}
	}
}
