package core

import (
	"testing"

	"identitybox/internal/kernel"
)

// TestBoxedSyscallAllocBudget pins the heap allocations of one trapped
// call in a box built with no options: an 8 KiB pread moves its bytes
// through the reused I/O channel and allocates only its audit line, and
// so does a stat: its policy check reads each ACL's memoised parse.
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
			{"pread 8 KiB", 1, func() error { _, err := p.Pread(fd, buf, 4096); return err }},
			{"stat", 1, func() error { _, err := p.Stat(path); return err }},
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
