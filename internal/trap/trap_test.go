package trap

import (
	"bytes"
	"testing"
	"testing/quick"

	"identitybox/internal/kernel"
	"identitybox/internal/vclock"
	"identitybox/internal/vfs"
)

func testProc(t *testing.T) (*kernel.Kernel, *kernel.Proc) {
	t.Helper()
	k := kernel.New(vfs.New(kernel.RootAccount), vclock.Default())
	var proc *kernel.Proc
	k.Run(kernel.ProcSpec{Account: "u"}, func(p *kernel.Proc, _ []string) int {
		proc = p
		return 0
	})
	// proc has exited but its clock remains usable for cost tests.
	return k, proc
}

func TestWords(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3},
	}
	for _, c := range cases {
		if got := words(c.n); got != c.want {
			t.Errorf("words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPeekPokeCost(t *testing.T) {
	m := vclock.Default()
	if PeekPokeCost(m, 0) != 0 {
		t.Error("zero bytes should cost nothing")
	}
	one := PeekPokeCost(m, 1)
	if one != m.PeekPokeSetup+m.PeekPokeWord {
		t.Errorf("1 byte = %v", one)
	}
	// Cost grows with word count.
	if PeekPokeCost(m, 1024) <= PeekPokeCost(m, 8) {
		t.Error("peek/poke cost should grow with size")
	}
	// 8 kB by peek/poke should be far more expensive than by channel —
	// the reason Parrot uses the channel for bulk I/O.
	channel := m.ChannelPerByte * 8192
	if PeekPokeCost(m, 8192) < 3*channel {
		t.Errorf("peek/poke 8k (%v) should dwarf channel copy (%v)", PeekPokeCost(m, 8192), channel)
	}
}

func TestPokePeekBytesChargeAndCopy(t *testing.T) {
	_, p := testProc(t)
	m := vclock.Default()
	src := []byte("hello world")
	dst := make([]byte, len(src))
	before := p.Clock().Now()
	n := PokeBytes(p, m, dst, src)
	if n != len(src) || !bytes.Equal(dst, src) {
		t.Fatalf("poke = %d, %q", n, dst)
	}
	if p.Clock().Now() <= before {
		t.Fatal("poke did not charge")
	}
	out := make([]byte, len(src))
	before = p.Clock().Now()
	n = PeekBytes(p, m, out, dst)
	if n != len(src) || !bytes.Equal(out, src) {
		t.Fatalf("peek = %d, %q", n, out)
	}
	if p.Clock().Now() <= before {
		t.Fatal("peek did not charge")
	}
}

// TestChannelDefaults: a zero Channel holds no buffer until its first
// transfer, and then no more than the transfer.
func TestChannelDefaults(t *testing.T) {
	_, p := testProc(t)
	var c Channel
	if cap(c.buf) != 0 {
		t.Fatalf("zero channel holds %d bytes", cap(c.buf))
	}
	if staged := c.StageRead(p, vclock.Default(), make([]byte, 300)); len(staged) != 300 || cap(c.buf) != 300 {
		t.Fatalf("first transfer: staged %d, buffer %d; want 300, 300", len(staged), cap(c.buf))
	}
}

// TestChannelRegionGrowsOnDemand: a region grows to at least twice its
// size when a larger transfer comes, reuses its buffer for smaller
// ones, and never exceeds DefaultChannelBytes.
func TestChannelRegionGrowsOnDemand(t *testing.T) {
	var c Channel
	c.ReserveWrite(300)
	if region := c.ReserveWrite(400); len(region) != 400 || cap(c.buf) != 600 {
		t.Fatalf("larger transfer: region %d, buffer %d; want 400, 600", len(region), cap(c.buf))
	}
	first := &c.buf[0]
	if region := c.ReserveWrite(100); len(region) != 100 || &region[0] != first {
		t.Fatal("a smaller transfer did not reuse the buffer")
	}
	if region := c.ReserveWrite(2 * DefaultChannelBytes); len(region) != DefaultChannelBytes || cap(c.buf) != DefaultChannelBytes {
		t.Fatalf("oversized transfer: region %d, buffer %d; want both %d", len(region), cap(c.buf), DefaultChannelBytes)
	}
}

func TestChannelStageReadTruncatesToCapacity(t *testing.T) {
	_, p := testProc(t)
	m := vclock.Default()
	var c Channel
	data := bytes.Repeat([]byte("x"), DefaultChannelBytes+100)
	staged := c.StageRead(p, m, data)
	if len(staged) != DefaultChannelBytes {
		t.Fatalf("staged %d bytes, want %d (channel capacity)", len(staged), DefaultChannelBytes)
	}
}

func TestChannelWriteRoundTrip(t *testing.T) {
	_, p := testProc(t)
	m := vclock.Default()
	var c Channel
	region := c.ReserveWrite(8192)
	if len(region) != 8192 {
		t.Fatalf("reserve = %d", len(region))
	}
	payload := bytes.Repeat([]byte("ab"), 4096)
	copy(region, payload)
	before := p.Clock().Now()
	got := c.CollectWrite(p, m, region)
	if !bytes.Equal(got, payload) {
		t.Fatal("collect returned different data")
	}
	if p.Clock().Now() <= before {
		t.Fatal("collect did not charge the channel copy")
	}
}

func TestBulkThresholdSane(t *testing.T) {
	m := vclock.Default()
	// At the threshold, channel staging should already be no worse than
	// peek/poke; that is what justifies the threshold.
	pp := PeekPokeCost(m, BulkThreshold+1)
	ch := m.ChannelPerByte * vclock.Micros(BulkThreshold+1)
	if ch > pp {
		t.Fatalf("channel (%v) costs more than peek/poke (%v) just above threshold", ch, pp)
	}
}

func TestPeekPokeCostMonotoneProperty(t *testing.T) {
	m := vclock.Default()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return PeekPokeCost(m, x) <= PeekPokeCost(m, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
