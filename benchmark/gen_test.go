package main

import (
	"bytes"
	"math"
	"testing"
)

func testGeometry(workload string) geometry { return geometryFor(workload, 2, 1) }

// The seed is the only source of requests: the same seed must give the
// same op sequence, arrival schedule and payload bytes, and another
// seed must not.
func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloadNames {
		geo := testGeometry(wl)
		a := digestOps(newOpGen(1, wl, 0, geo), 5000)
		b := digestOps(newOpGen(1, wl, 0, geo), 5000)
		if a != b {
			t.Errorf("%s: seed 1 gave two op-sequence digests: %x, %x", wl, a, b)
		}
		if wl == "stage_exec" {
			continue // one op kind, no keys: its sequence cannot differ
		}
		if c := digestOps(newOpGen(2, wl, 0, geo), 5000); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", wl)
		}
		if c := digestOps(newOpGen(1, wl, 1, geo), 5000); c == a {
			t.Errorf("%s: callers 0 and 1 gave the same op sequence", wl)
		}
	}

	geo := testGeometry("mixed_open")
	x := poissonArrivals(newOpGen(7, "mixed_open", 0, geo), 4000, 1e9)
	y := poissonArrivals(newOpGen(7, "mixed_open", 0, geo), 4000, 1e9)
	if len(x) != len(y) {
		t.Fatalf("same seed, %d and %d arrivals", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("arrival %d differs: %+v, %+v", i, x[i], y[i])
		}
	}
	if n := float64(len(x)); math.Abs(n-4000) > 4*math.Sqrt(4000) {
		t.Errorf("4000/s for 1 s gave %d arrivals", len(x))
	}

	p, q, r := make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)
	fileContent(1, contentSlot, 17, 3, p)
	fileContent(1, contentSlot, 17, 3, q)
	fileContent(1, contentSlot, 17, 4, r)
	if !bytes.Equal(p, q) || bytes.Equal(p, r) {
		t.Error("payload bytes must depend on exactly (seed, stream, key, version)")
	}
}

// The mixes are normative: check the generator's shares against them.
func TestMixShares(t *testing.T) {
	const n = 200000
	for _, c := range []struct {
		workload string
		want     map[opKind]float64
	}{
		{"meta_shared", map[opKind]float64{opStat: 0.50, opOpenRead: 0.30, opReaddir: 0.10, opGetACL: 0.05, opLstat: 0.05}},
		{"durable_write", map[opKind]float64{opPutFile: 0.60, opCreateUnlink: 0.15, opRename: 0.08, opRenameCross: 0.02, opMkdirRmdir: 0.10, opSetACL: 0.05}},
	} {
		g := newOpGen(3, c.workload, 0, testGeometry(c.workload))
		got := make(map[opKind]int)
		for i := 0; i < n; i++ {
			got[g.next().kind]++
		}
		for k, want := range c.want {
			if share := float64(got[k]) / n; math.Abs(share-want) > 0.005 {
				t.Errorf("%s: %s is %.3f of the mix, want %.2f", c.workload, k, share, want)
			}
		}
	}
	g := newOpGen(3, "mixed_open", 0, testGeometry("mixed_open"))
	writes := 0
	for i := 0; i < n; i++ {
		if g.next().kind.isWrite() {
			writes++
		}
	}
	if share := float64(writes) / n; math.Abs(share-0.10) > 0.005 {
		t.Errorf("mixed_open: writes are %.3f of the mix, want 0.10", share)
	}
}

// Key popularity is zipf with s = 1: the head's measured share must be
// within 5 % of theory.
func TestZipfHeadShare(t *testing.T) {
	z := newZipf(256, 1)
	r := newRNG(11)
	const n, head = 400000, 16
	hits := 0
	for i := 0; i < n; i++ {
		if z.draw(r) < head {
			hits++
		}
	}
	got, want := float64(hits)/n, z.headShare(head)
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("top-%d share %.4f, theory %.4f", head, got, want)
	}
	// Theory itself: H(16)/H(256).
	h := func(k int) (s float64) {
		for i := 1; i <= k; i++ {
			s += 1 / float64(i)
		}
		return s
	}
	if th := h(head) / h(256); math.Abs(want-th) > 1e-9 {
		t.Errorf("headShare(%d) = %v, want %v", head, want, th)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
