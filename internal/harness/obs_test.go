package harness

import (
	"testing"

	"identitybox/internal/core"
	"identitybox/internal/obs"
)

// TestFigure5aObservedIsDeterministic is the zero-tick acceptance
// check at figure granularity: running the microbenchmarks with a
// metrics registry attached must reproduce the exact same rows as an
// unobserved run, and afterwards the registry must hold a latency
// histogram for every Figure 5(a) syscall class.
func TestFigure5aObservedIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full microbenchmark sweep")
	}
	plain, err := RunFigure5a(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	observed, err := RunFigure5a(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(observed) {
		t.Fatalf("row counts differ: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Errorf("row %q changed under observation:\nplain:    %+v\nobserved: %+v",
				plain[i].Name, plain[i], observed[i])
		}
	}
	for _, class := range core.Fig5aClasses() {
		h := reg.Histogram(obs.With(core.MetricLatencyFamily, "class", class), nil)
		if h.Count() == 0 {
			t.Errorf("class %q has no latency observations after the sweep", class)
		}
	}
}

// TestTracedFigure5aTickIdentical is the same zero-tick invariant for
// request-tracing spans: a run recording wall-clock "box.run" spans
// must reproduce the exact same virtual-clock rows as an untraced run,
// while the span ring actually fills. Spans are wall clock only; if a
// span recorder ever read or charged the virtual clock, the boxed
// microsecond columns here would drift and this test would fail.
func TestTracedFigure5aTickIdentical(t *testing.T) {
	plain, err := RunFigure5a(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := obs.NewSpanRing(1024)
	traced, err := RunFigure5a(nil, spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("row counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Errorf("row %q changed under tracing:\nplain:  %+v\ntraced: %+v",
				plain[i].Name, plain[i], traced[i])
		}
	}
	if spans.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, s := range spans.Spans() {
		if s.Name != "box.run" {
			t.Errorf("unexpected span name %q", s.Name)
		}
		if s.Trace == 0 {
			t.Error("span recorded with a zero trace ID")
		}
		if s.Dur < 0 {
			t.Errorf("span with negative duration %v", s.Dur)
		}
	}
}
