package harness

import (
	"math"
	"strings"
	"testing"
)

func TestFigure5aShape(t *testing.T) {
	rows, err := RunFigure5a(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	t.Logf("\n%s", RenderFigure5a(rows))
	byName := map[string]Fig5aRow{}
	for _, r := range rows {
		byName[r.Name] = r
		// Every call must be slower in the box.
		if r.BoxedUS <= r.NativeUS {
			t.Errorf("%s: boxed (%.2f) not slower than native (%.2f)", r.Name, r.BoxedUS, r.NativeUS)
		}
	}
	// The paper's claim: metadata-ish calls are slowed by roughly an
	// order of magnitude.
	for _, name := range []string{"getpid", "stat", "open/close", "read 1 byte", "write 1 byte"} {
		r := byName[name]
		if r.Slowdown < 5 || r.Slowdown > 40 {
			t.Errorf("%s: slowdown %.1fx outside order-of-magnitude band [5,40]", name, r.Slowdown)
		}
	}
	// Bulk transfers amortize the trap cost: the ratio is smaller than
	// for metadata calls, as in the paper (6->27 is ~4.5x).
	for _, name := range []string{"read 8 kbyte", "write 8 kbyte"} {
		r := byName[name]
		if r.Slowdown < 2 || r.Slowdown > 10 {
			t.Errorf("%s: slowdown %.1fx outside bulk band [2,10]", name, r.Slowdown)
		}
		if r.Slowdown >= byName["getpid"].Slowdown {
			t.Errorf("%s: bulk slowdown (%.1fx) should be below getpid's (%.1fx)", name, r.Slowdown, byName["getpid"].Slowdown)
		}
	}
	// Absolute calibration: within 3x of the paper's bar heights.
	for _, r := range rows {
		if r.NativeUS < r.PaperNativeUS/3 || r.NativeUS > r.PaperNativeUS*3 {
			t.Errorf("%s: native %.2fus vs paper %.1fus (off >3x)", r.Name, r.NativeUS, r.PaperNativeUS)
		}
		if r.BoxedUS < r.PaperBoxedUS/3 || r.BoxedUS > r.PaperBoxedUS*3 {
			t.Errorf("%s: boxed %.2fus vs paper %.1fus (off >3x)", r.Name, r.BoxedUS, r.PaperBoxedUS)
		}
	}
}

func TestFigure5bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long workload sweep")
	}
	rows, err := RunFigure5b(0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	t.Logf("\n%s", RenderFigure5b(rows))
	byName := map[string]Fig5bRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Scientific applications: small overhead (paper: 0.7 - 6.5%).
	for _, name := range []string{"amanda", "blast", "cms", "hf", "ibis"} {
		r := byName[name]
		if r.OverheadPct < 0.2 || r.OverheadPct > 10 {
			t.Errorf("%s: overhead %.1f%% outside scientific band [0.2,10]", name, r.OverheadPct)
		}
		// Within a factor of two of the paper's annotation.
		if r.OverheadPct < r.PaperOverheadPct/2 || r.OverheadPct > r.PaperOverheadPct*2 {
			t.Errorf("%s: overhead %.1f%% vs paper %.1f%% (off >2x)", name, r.OverheadPct, r.PaperOverheadPct)
		}
	}
	// The build: large overhead (paper: 35%).
	mk := byName["make"]
	if mk.OverheadPct < 20 || mk.OverheadPct > 55 {
		t.Errorf("make: overhead %.1f%% outside band [20,55]", mk.OverheadPct)
	}
	// Ordering: make dwarfs every scientific app; ibis is the cheapest.
	for _, name := range []string{"amanda", "blast", "cms", "hf", "ibis"} {
		if byName[name].OverheadPct >= mk.OverheadPct {
			t.Errorf("%s overhead (%.1f%%) >= make (%.1f%%)", name, byName[name].OverheadPct, mk.OverheadPct)
		}
	}
	if byName["ibis"].OverheadPct >= byName["hf"].OverheadPct {
		t.Errorf("ibis (%.1f%%) should undercut hf (%.1f%%)", byName["ibis"].OverheadPct, byName["hf"].OverheadPct)
	}
}

func TestFigure1Harness(t *testing.T) {
	rows, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	t.Logf("\n%s", RenderFigure1(rows))
	for _, r := range rows {
		if !r.Matches {
			t.Errorf("%s: measured row does not match the paper:\n measured %+v\n paper %+v",
				r.Measured.Method, r.Measured, r.Paper)
		}
	}
	// The burden numbers behind the labels.
	for _, r := range rows {
		switch r.Measured.Method {
		case "private":
			if r.Measured.AdminActions != r.Measured.Users {
				t.Errorf("private: %d actions for %d users", r.Measured.AdminActions, r.Measured.Users)
			}
		case "identity box", "single", "anonymous":
			if r.Measured.AdminActions != 0 {
				t.Errorf("%s: %d admin actions, want 0", r.Measured.Method, r.Measured.AdminActions)
			}
		}
	}
}

func TestFigure4Mechanism(t *testing.T) {
	res, err := RunFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwitches != 6 {
		t.Fatalf("context switches = %d, want 6", res.ContextSwitches)
	}
	if res.BoxedCost <= res.NativeCost {
		t.Fatalf("boxed stat (%v) not slower than native (%v)", res.BoxedCost, res.NativeCost)
	}
	if res.AuditLine == "" || !strings.Contains(res.AuditLine, "stat") {
		t.Fatalf("audit line missing: %q", res.AuditLine)
	}
}

func TestOrderOfMagnitudeSlowdown(t *testing.T) {
	// Section 7's headline: "Each call is slowed down by an order of
	// magnitude." Checked on the geometric mean of the metadata calls.
	rows, err := RunFigure5a(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	product, n := 1.0, 0
	for _, r := range rows {
		if strings.Contains(r.Name, "8 kbyte") {
			continue
		}
		product *= r.Slowdown
		n++
	}
	gm := math.Pow(product, 1.0/float64(n))
	if gm < 6 || gm > 30 {
		t.Fatalf("geometric-mean metadata slowdown %.1fx; want order of magnitude [6,30]", gm)
	}
}

func TestBurdenScaling(t *testing.T) {
	counts := []int{1, 10, 50}
	rows, err := RunBurdenScaling(counts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderBurdenScaling(rows, counts))
	actions := map[string]map[int]int{}
	for _, r := range rows {
		if actions[r.Method] == nil {
			actions[r.Method] = map[int]int{}
		}
		actions[r.Method][r.Users] = r.Actions
	}
	// Private accounts scale linearly with users.
	for _, n := range counts {
		if actions["private"][n] != n {
			t.Errorf("private: %d actions for %d users", actions["private"][n], n)
		}
	}
	// Groups scale with the number of communities (2 here), regardless
	// of N (once both orgs appear).
	if actions["group"][10] != 2 || actions["group"][50] != 2 {
		t.Errorf("group actions = %v", actions["group"])
	}
	// Pools cost exactly one setup action at any scale.
	for _, n := range counts {
		if actions["pool"][n] != 1 {
			t.Errorf("pool: %d actions for %d users", actions["pool"][n], n)
		}
	}
	// Anonymous and the identity box need none, ever.
	for _, m := range []string{"anonymous", "identity box"} {
		for _, n := range counts {
			if actions[m][n] != 0 {
				t.Errorf("%s: %d actions for %d users, want 0", m, actions[m][n], n)
			}
		}
	}
}

func TestSensitivityConclusionsRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	rows, err := RunSensitivity([]float64{0.5, 1.0, 2.0}, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderSensitivity(rows))
	for _, r := range rows {
		// The qualitative conclusions must hold from half to double the
		// calibrated trap cost: per-call slowdown stays order-of-
		// magnitude-ish, ibis stays cheap, make stays expensive, and
		// make always dwarfs ibis.
		if r.GetpidSlowdown < 5 {
			t.Errorf("scale %.2f: getpid slowdown %.1fx below 5x", r.TrapScale, r.GetpidSlowdown)
		}
		if r.IbisOverheadPct > 3 {
			t.Errorf("scale %.2f: ibis overhead %.1f%% above 3%%", r.TrapScale, r.IbisOverheadPct)
		}
		if r.MakeOverheadPct < 12 {
			t.Errorf("scale %.2f: make overhead %.1f%% below 12%%", r.TrapScale, r.MakeOverheadPct)
		}
		if r.MakeOverheadPct < 10*r.IbisOverheadPct {
			t.Errorf("scale %.2f: make (%.1f%%) not >> ibis (%.1f%%)", r.TrapScale, r.MakeOverheadPct, r.IbisOverheadPct)
		}
	}
	// And overheads grow monotonically with trap cost.
	for i := 1; i < len(rows); i++ {
		if rows[i].MakeOverheadPct <= rows[i-1].MakeOverheadPct {
			t.Errorf("make overhead not monotone in trap cost: %+v", rows)
		}
	}
}

func TestOverheadVsIntensity(t *testing.T) {
	rates := []float64{100, 1000, 5000, 15000, 40000}
	rows, err := RunOverheadVsIntensity(rates)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderIntensity(rows))
	// Monotone in intensity.
	for i := 1; i < len(rows); i++ {
		if rows[i].OverheadPct <= rows[i-1].OverheadPct {
			t.Fatalf("overhead not monotone: %+v", rows)
		}
	}
	// Science-like rates stay in the paper's band; build-like rates
	// blow past it.
	if rows[0].OverheadPct > 2 {
		t.Errorf("100 calls/s overhead %.1f%% too high", rows[0].OverheadPct)
	}
	if rows[len(rows)-1].OverheadPct < 25 {
		t.Errorf("40000 calls/s overhead %.1f%% too low", rows[len(rows)-1].OverheadPct)
	}
}
