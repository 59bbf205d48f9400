package acl

import (
	"fmt"
	"strings"
	"testing"
)

// canonicalText is an n-entry ACL in canonical form, shaped like a
// community directory's: wildcard organisation lines, then members.
func canonicalText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "globus:/O=Org%d/* rl\n", i)
		} else {
			fmt.Fprintf(&b, "unix:member%d rwlax\n", i)
		}
	}
	return b.String()
}

// TestACLVersionAllocsFlat pins what a version of an ACL file costs: a
// canonical file of 2 entries and one of 64 allocate the same, at most
// 4 (the string, the ACL, its entries and the Version), and rendering
// an ACL into a buffer with room for it allocates nothing.
func TestACLVersionAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, n := range []int{2, 64} {
		data := []byte(canonicalText(n))
		if v := ParseVersion(data); v.Text != v.Raw || len(v.ACL.Entries) != n {
			t.Fatalf("%d entries: text %q, %d entries; want the raw text, canonical", n, v.Text, len(v.ACL.Entries))
		}
		allocs = append(allocs, testing.AllocsPerRun(100, func() { ParseVersion(data) }))
	}
	if allocs[0] != allocs[1] || allocs[1] > 4 {
		t.Errorf("ParseVersion allocates %v at 2 and %v at 64 entries; want equal, at most 4", allocs[0], allocs[1])
	}

	a, err := Parse(canonicalText(64))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4<<10)
	if n := testing.AllocsPerRun(100, func() { buf = a.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("AppendText into a sized buffer allocates %v, want 0", n)
	}
	if string(buf) != a.String() {
		t.Errorf("AppendText = %q, String = %q", buf, a.String())
	}
}

// TestParseSizesEntriesToEntryLines pins that Entries has room for the
// entry lines only: one entry padded to a large payload with blank,
// white-space and comment lines must not make a memoised version hold
// room for a line count's worth of entries.
func TestParseSizesEntriesToEntryLines(t *testing.T) {
	pad := strings.Repeat("\n", 1<<16) + strings.Repeat(" \t\n#c\n", 1<<12)
	for _, text := range []string{"p rl\n" + pad, pad + "p rl\n", pad + "p rl"} {
		v := ParseVersionString(text)
		if got := v.ACL.Entries; len(got) != 1 || cap(got) != 1 {
			t.Errorf("%d-byte text with one entry: len %d cap %d, want 1 and 1", len(text), len(got), cap(got))
		}
	}
	if a, err := Parse(pad); err != nil || a.Entries != nil {
		t.Errorf("Parse of padding only = %v, %v; want nil Entries", a, err)
	}
}

// BenchmarkACLParseVersion derives one version of a canonical ACL file
// of 2 and of 64 entries: a box home's ACL and a community directory's.
func BenchmarkACLParseVersion(b *testing.B) {
	for _, n := range []int{2, 64} {
		data := []byte(canonicalText(n))
		b.Run(fmt.Sprintf("e%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParseVersion(data)
			}
		})
	}
}
