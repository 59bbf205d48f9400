package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ungated are the issue's end-to-end metrics the driver cannot gate: the
// four timing metrics, which on identical code spread more than the
// issue's 0.10 with the sandbox's disk and neighbours, and five that are
// zero by design or undefined on some workload. The suite report prints
// them beside the gated ones, from the same end-to-end run; the driver
// sees them among the per-layer metrics under the second name.
var ungated = []struct{ name, unit, better, layerName string }{
	{"goodput_ops_s", "1/s", "higher", "driver.goodput_ops_s"},
	{"lat_p50_us", "us", "lower", "driver.lat_p50_us"},
	{"lat_p99_us", "us", "lower", "driver.lat_p99_us"},
	{"cpu_us_per_op", "us", "lower", "driver.cpu_us_per_op"},
	{"failed_frac", "frac", "lower", "driver.failed_frac"},
	{"wal_bytes_per_user_byte", "ratio", "lower", "durable.wal_bytes_per_user_byte"},
	{"recover_ms", "ms", "lower", "durable.recover_ms"},
	{"acked_lost", "count", "lower", "durable.acked_lost"},
	{"max_rate_ok", "1/s", "higher", "driver.max_rate_ok"},
}

// applies says whether an ungated end-to-end metric means anything on a
// workload; where it does not it is omitted, never zero-filled.
func applies(metric, workload string) bool {
	switch metric {
	case "wal_bytes_per_user_byte":
		return workload == "durable_write" || workload == "stage_exec" || workload == "mixed_open"
	case "recover_ms":
		return workload == "durable_write"
	case "acked_lost":
		return workload != "meta_private" && workload != "meta_shared"
	case "max_rate_ok":
		return workload == "mixed_open"
	}
	return true
}

// workloadReport is one workload's numbers from one suite pass: the
// end-to-end run and the per-layer run.
type workloadReport struct {
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Notes     []string
}

// spreadRow is one metric × workload over the repeats.
type spreadRow struct {
	Workload string  `json:"workload,omitempty"`
	Metric   string  `json:"metric,omitempty"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Spread   float64 `json:"spread"` // (q3-q1)/median
}

// suiteReport is what the one-command suite prints and writes.
type suiteReport struct {
	Provenance provenanceInfo
	Correct    bool
	Runs       []map[string]*workloadReport
	Spread     []spreadRow
}

// runSuite runs every workload, end-to-end run then per-layer run,
// repeat times over, each run in a fresh state directory.
func runSuite(base options, repeat int, prov provenanceInfo) (*suiteReport, error) {
	rep := &suiteReport{Provenance: prov, Correct: true}
	for n := 0; n < repeat; n++ {
		pass := make(map[string]*workloadReport)
		for _, name := range workloadNames {
			opt := base
			opt.workload = name
			e2e, err := runWorkload(opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			opt.trace, opt.setups = true, 1
			layer, err := runWorkload(opt)
			if err != nil {
				return nil, fmt.Errorf("%s (per-layer run): %w", name, err)
			}
			wr := &workloadReport{
				Correct:   e2e.correct && layer.correct,
				Attempted: e2e.attempted,
				Failed:    e2e.failed,
				EndToEnd:  e2e.metrics,
				PerLayer:  layer.metrics,
				Notes:     append(e2e.notes, layer.notes...),
			}
			for _, u := range ungated {
				if !applies(u.name, name) {
					continue
				}
				// recover_ms is only measured in the per-layer run; the
				// rest come from the end-to-end run itself.
				if v, ok := e2e.extra[u.name]; ok {
					wr.EndToEnd[u.name] = v
				} else {
					wr.EndToEnd[u.name] = layer.metrics[u.layerName]
				}
			}
			rep.Correct = rep.Correct && wr.Correct
			pass[name] = wr
		}
		rep.Runs = append(rep.Runs, pass)
	}
	if repeat > 1 {
		rep.Spread = spreadOf(rep.Runs)
	}
	return rep, nil
}

// spreadOf computes, per end-to-end metric × workload, the quartiles
// over the repeats and the inter-quartile spread relative to the median.
func spreadOf(runs []map[string]*workloadReport) []spreadRow {
	var rows []spreadRow
	for _, name := range workloadNames {
		metrics := make(map[string][]float64)
		for _, pass := range runs {
			for m, v := range pass[name].EndToEnd {
				metrics[m] = append(metrics[m], v)
			}
		}
		names := make([]string, 0, len(metrics))
		for m := range metrics {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			q1, q2, q3 := quartiles(metrics[m])
			row := spreadRow{Workload: name, Metric: m, Q1: q1, Median: q2, Q3: q3}
			if q2 != 0 {
				row.Spread = (q3 - q1) / q2
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// results is the suite's machine-readable output (-out), and what is
// committed as benchmark/RESULTS.json: each metric with its unit and
// direction, for a per-layer metric its layer and the end-to-end metric
// it should move, and per workload the median over the suite's passes
// (end-to-end metrics: the quartiles and the spread too, when there were
// several passes). One metric per line.
func (rep *suiteReport) writeResults(w io.Writer) error {
	line := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			panic(err) // maps of strings and finite numbers
		}
		return string(data)
	}
	values := func(get func(*workloadReport) (float64, bool)) map[string][]float64 {
		out := make(map[string][]float64)
		for _, wl := range workloadNames {
			for _, pass := range rep.Runs {
				if v, ok := get(pass[wl]); ok {
					out[wl] = append(out[wl], v)
				}
			}
		}
		return out
	}
	notes := make(map[string][]string)
	for _, wl := range workloadNames {
		for _, pass := range rep.Runs {
			notes[wl] = append(notes[wl], pass[wl].Notes...)
		}
	}
	fmt.Fprintf(w, "{\n\"provenance\": %s,\n\"correct\": %v,\n\"passes\": %d,\n\"notes\": %s,\n\"end_to_end\": [\n",
		line(rep.Provenance), rep.Correct, len(rep.Runs), line(notes))
	type e2eRow struct {
		Name      string                `json:"name"`
		Unit      string                `json:"unit"`
		Better    string                `json:"better"`
		Gated     bool                  `json:"gated"` // false: reaches the driver as a per-layer metric
		Workloads map[string]*spreadRow `json:"workloads"`
	}
	var rows []string
	e2e := func(name, unit, better string, gated bool) {
		row := e2eRow{Name: name, Unit: unit, Better: better, Gated: gated, Workloads: make(map[string]*spreadRow)}
		for wl, vs := range values(func(r *workloadReport) (float64, bool) { v, ok := r.EndToEnd[name]; return v, ok }) {
			sr := &spreadRow{}
			sr.Q1, sr.Median, sr.Q3 = quartiles(vs)
			if sr.Median != 0 {
				sr.Spread = (sr.Q3 - sr.Q1) / sr.Median
			}
			row.Workloads[wl] = sr
		}
		rows = append(rows, line(row))
	}
	for _, d := range endToEnd {
		e2e(d.name, d.unit, d.better, true)
	}
	for _, u := range ungated {
		e2e(u.name, u.unit, u.better, false)
	}
	fmt.Fprintf(w, "%s\n],\n\"per_layer\": [\n", strings.Join(rows, ",\n"))
	type layerRow struct {
		Name   string             `json:"name"`
		Layer  string             `json:"layer"`
		Unit   string             `json:"unit"`
		Better string             `json:"better"`
		Moves  string             `json:"moves"`
		Median map[string]float64 `json:"median"`
	}
	rows = rows[:0]
	for _, d := range perLayer {
		row := layerRow{Name: d.name, Layer: d.layer(), Unit: d.unit, Better: d.better, Moves: d.moves, Median: make(map[string]float64)}
		for wl, vs := range values(func(r *workloadReport) (float64, bool) { v, ok := r.PerLayer[d.name]; return v, ok }) {
			row.Median[wl] = median(vs)
		}
		rows = append(rows, line(row))
	}
	_, err := fmt.Fprintf(w, "%s\n]\n}\n", strings.Join(rows, ",\n"))
	return err
}

func (rep *suiteReport) print(w io.Writer) {
	p := rep.Provenance
	fmt.Fprintf(w, "production configuration (chirpd flag = resolved value):\n")
	keys := make([]string, 0, len(p.Config))
	for k := range p.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-24s %s\n", k, p.Config[k])
	}
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, window %.1fs, state on %s (%s), %s\n\n",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Seed, p.WindowS, p.StateDir, p.StateFS, p.Transport)

	last := rep.Runs[len(rep.Runs)-1]
	header := fmt.Sprintf("%-34s %-6s", "metric", "unit")
	for _, name := range workloadNames {
		header += fmt.Sprintf(" %14s", name)
	}
	row := func(name, unit string, get func(*workloadReport) (float64, bool)) {
		line := fmt.Sprintf("%-34s %-6s", name, unit)
		for _, wl := range workloadNames {
			if v, ok := get(last[wl]); ok {
				line += fmt.Sprintf(" %14s", formatValue(v))
			} else {
				line += fmt.Sprintf(" %14s", "-")
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "end-to-end (tracing off):")
	fmt.Fprintln(w, header)
	for _, d := range endToEnd {
		d := d
		row(d.name, d.unit, func(r *workloadReport) (float64, bool) { v, ok := r.EndToEnd[d.name]; return v, ok })
	}
	for _, u := range ungated {
		u := u
		row(u.name, u.unit, func(r *workloadReport) (float64, bool) { v, ok := r.EndToEnd[u.name]; return v, ok })
	}
	fmt.Fprintln(w, "\nper-layer (counters pass, traced pass, probes):")
	fmt.Fprintln(w, header)
	for _, d := range perLayer {
		d := d
		row(d.name, d.unit, func(r *workloadReport) (float64, bool) { v, ok := r.PerLayer[d.name]; return v, ok })
	}
	if len(rep.Spread) > 0 {
		fmt.Fprintf(w, "\nspread over %d repeats (end-to-end; spread = (q3-q1)/median):\n", len(rep.Runs))
		fmt.Fprintf(w, "%-14s %-26s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
		for _, s := range rep.Spread {
			fmt.Fprintf(w, "%-14s %-26s %14s %14s %14s %8.3f\n", s.Workload, s.Metric,
				formatValue(s.Q1), formatValue(s.Median), formatValue(s.Q3), s.Spread)
		}
	}
	for _, wl := range workloadNames {
		r := last[wl]
		verdict := "ok"
		if !r.Correct {
			verdict = "VIOLATIONS"
		}
		fmt.Fprintf(w, "\noracle %-14s %s (%d attempted, %d failed)\n", wl, verdict, r.Attempted, r.Failed)
		for _, n := range r.Notes {
			fmt.Fprintln(w, "  "+n)
		}
	}
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	if strings.Contains(s, "e+") {
		s = fmt.Sprintf("%.0f", v)
	}
	return s
}
