package core

import (
	"testing"

	"identitybox/internal/kernel"
)

// TestBoxedSyscallAllocBudget pins the heap allocations of one trapped
// call in a box built with no options: an 8 KiB pread moves its bytes
// through the process's reused channel region and allocates nothing,
// and neither does a stat: its policy check reads each ACL's memoised
// parse, and the audit record is kept as a value.
func TestBoxedSyscallAllocBudget(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	path := b.Home() + "/data"
	if err := k.FS().WriteFile(path, make([]byte, 64<<10), 0o644, "dthain"); err != nil {
		t.Fatal(err)
	}
	b.Run(func(p *kernel.Proc, _ []string) int {
		fd, err := p.Open(path, kernel.ORdonly, 0)
		if err != nil {
			t.Errorf("open: %v", err)
			return 1
		}
		buf := make([]byte, 8192)
		for _, c := range []struct {
			op     string
			budget float64
			call   func() error
		}{
			{"pread 8 KiB", 0, func() error { _, err := p.Pread(fd, buf, 4096); return err }},
			{"stat", 0, func() error { _, err := p.Stat(path); return err }},
		} {
			var callErr error
			got := testing.AllocsPerRun(100, func() {
				if err := c.call(); err != nil {
					callErr = err
				}
			})
			if callErr != nil {
				t.Errorf("%s: %v", c.op, callErr)
			}
			if got > c.budget {
				t.Errorf("boxed %s allocates %.0f per call, budget %.0f", c.op, got, c.budget)
			}
			t.Logf("boxed %s: %.0f allocs per call", c.op, got)
		}
		return 0
	})
}

// TestAuditRecordingAllocatesNothing: a boxed program making 100 stat
// calls costs exactly the allocations of one making 10. The box keeps
// each call's audit record as a value and renders no text until the
// log is read.
func TestAuditRecordingAllocatesNothing(t *testing.T) {
	k := newWorld(t)
	b := newBox(t, k, "Freddy", Options{})
	path := b.Home() + "/data"
	if err := k.FS().WriteFile(path, []byte("x"), 0o644, "dthain"); err != nil {
		t.Fatal(err)
	}
	stats := func(n int) kernel.Program {
		return func(p *kernel.Proc, _ []string) int {
			for i := 0; i < n; i++ {
				if _, err := p.Stat(path); err != nil {
					return 1
				}
			}
			return 0
		}
	}
	ten, hundred := stats(10), stats(100)
	var bad bool
	run := func(prog kernel.Program) func() {
		return func() {
			if st := b.Run(prog); st.Code != 0 {
				bad = true
			}
		}
	}
	a10 := testing.AllocsPerRun(50, run(ten))
	a100 := testing.AllocsPerRun(50, run(hundred))
	if bad {
		t.Fatal("a stat failed")
	}
	if a10 != a100 {
		t.Errorf("a boxed run allocates %.1f with 10 stat calls, %.1f with 100: recording allocates per call", a10, a100)
	}
	t.Logf("boxed run: %.1f allocs with 10 stats, %.1f with 100", a10, a100)
}
