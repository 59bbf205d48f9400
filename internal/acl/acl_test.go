package acl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"identitybox/internal/identity"
)

func TestParseRights(t *testing.T) {
	r, err := ParseRights("rwlax")
	if err != nil {
		t.Fatal(err)
	}
	if r != All {
		t.Fatalf("ParseRights(rwlax) = %v, want All", r)
	}
	if !r.Has(Read | Execute) {
		t.Error("All should include rx")
	}
	if _, err := ParseRights("rq"); err == nil {
		t.Error("unknown letter should fail")
	}
	none, err := ParseRights("-")
	if err != nil || none != None {
		t.Errorf("ParseRights(-) = %v, %v", none, err)
	}
}

func TestRightsString(t *testing.T) {
	if got := (Read | List).String(); got != "rl" {
		t.Errorf("rl String = %q", got)
	}
	if got := All.String(); got != "rwlax" {
		t.Errorf("All String = %q, want rwlax", got)
	}
	if got := None.String(); got != "-" {
		t.Errorf("None String = %q, want -", got)
	}
}

func TestParseEntryPaperExamples(t *testing.T) {
	// Directly from Section 3 of the paper.
	e1, err := ParseEntry("/O=UnivNowhere/CN=Fred rwlax")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Pattern != "/O=UnivNowhere/CN=Fred" || e1.Rights != All {
		t.Fatalf("entry 1 = %+v", e1)
	}
	e2, err := ParseEntry("/O=UnivNowhere/* rl")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Rights != Read|List {
		t.Fatalf("entry 2 rights = %v", e2.Rights)
	}
	// From Section 4: the reserve right with amplification set.
	e3, err := ParseEntry("globus:/O=UnivNowhere/* v(rwlax)")
	if err != nil {
		t.Fatal(err)
	}
	if !e3.Rights.Has(Reserve) || e3.ReserveRights != All {
		t.Fatalf("entry 3 = %+v", e3)
	}
	// Combined plain and reserve rights.
	e4, err := ParseEntry("hostname:*.nowhere.edu rlxv(rwl)")
	if err != nil {
		t.Fatal(err)
	}
	if !e4.Rights.Has(Read|List|Execute|Reserve) || e4.ReserveRights != Read|Write|List {
		t.Fatalf("entry 4 = %+v", e4)
	}
}

func TestParseEntryErrors(t *testing.T) {
	bad := []string{
		"",
		"onlypattern",
		"p r extra",
		"p v(rw",      // unterminated
		"p v(v)",      // nested reserve
		"p q",         // unknown right
		"p rwv(q)",    // unknown right inside reserve
		"a b c d e f", // too many fields
	}
	for _, line := range bad {
		if _, err := ParseEntry(line); err == nil {
			t.Errorf("ParseEntry(%q) should fail", line)
		}
	}
}

func TestEntryStringRoundTrip(t *testing.T) {
	lines := []string{
		"/O=UnivNowhere/CN=Fred rwlax",
		"/O=UnivNowhere/* rl",
		"globus:/O=UnivNowhere/* v(rwlax)",
		"hostname:*.nowhere.edu rlxv(rwl)",
		"anyone -",
	}
	for _, line := range lines {
		e, err := ParseEntry(line)
		if err != nil {
			t.Fatalf("ParseEntry(%q): %v", line, err)
		}
		e2, err := ParseEntry(e.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", e.String(), err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Errorf("round trip changed %q: %+v vs %+v", line, e, e2)
		}
	}
}

func TestParseACLIgnoresCommentsAndBlank(t *testing.T) {
	text := "# home directory ACL\n\n/O=UnivNowhere/CN=Fred rwlax\n  \n# tail\n"
	a, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(a.Entries))
	}
}

func TestLookupUnion(t *testing.T) {
	a, err := Parse("/O=UnivNowhere/CN=Fred rw\n/O=UnivNowhere/* rl\n")
	if err != nil {
		t.Fatal(err)
	}
	fred := identity.Principal("/O=UnivNowhere/CN=Fred")
	r, _ := a.Lookup(fred)
	if r != Read|Write|List {
		t.Fatalf("Fred's union rights = %v, want rwl", r)
	}
	george := identity.Principal("/O=UnivNowhere/CN=George")
	r, _ = a.Lookup(george)
	if r != Read|List {
		t.Fatalf("George's rights = %v, want rl", r)
	}
	outsider := identity.Principal("/O=Elsewhere/CN=Eve")
	r, _ = a.Lookup(outsider)
	if r != None {
		t.Fatalf("outsider rights = %v, want none", r)
	}
}

func TestLookupReserveUnion(t *testing.T) {
	a, err := Parse("globus:/O=UnivNowhere/* v(rwl)\nglobus:* v(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	p := identity.Principal("globus:/O=UnivNowhere/CN=Fred")
	r, rr := a.Lookup(p)
	if !r.Has(Reserve) {
		t.Fatal("should hold reserve right")
	}
	if rr != Read|Write|List|Execute {
		t.Fatalf("reserve set = %v, want rwlx", rr)
	}
}

func TestAllows(t *testing.T) {
	a := ForOwner("Freddy")
	if !a.Allows("Freddy", Read|Write|Admin) {
		t.Fatal("owner should hold rwa")
	}
	if a.Allows("Eve", Read) {
		t.Fatal("stranger should hold nothing")
	}
	if a.Allows("Freddy", Reserve) {
		t.Fatal("ForOwner should not grant reserve")
	}
}

func TestSetReplaceRemove(t *testing.T) {
	a := &ACL{}
	a.Set("alice", Read, None)
	a.Set("bob", Read|Write, None)
	a.Set("alice", All, None) // replace
	if len(a.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(a.Entries))
	}
	if r, _ := a.Lookup("alice"); r != All {
		t.Fatalf("alice = %v, want All", r)
	}
	a.Set("bob", None, None) // remove via Set(None)
	if r, _ := a.Lookup("bob"); r != None {
		t.Fatalf("bob = %v, want none", r)
	}
	if a.Remove("nobodyhome") {
		t.Error("Remove of missing pattern should report false")
	}
	if !a.Remove("alice") {
		t.Error("Remove of present pattern should report true")
	}
	if len(a.Entries) != 0 {
		t.Fatalf("entries = %d, want 0", len(a.Entries))
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := &ACL{}
	a.Set("alice", Read, None)
	b := a.Clone()
	b.Set("alice", All, None)
	if r, _ := a.Lookup("alice"); r != Read {
		t.Fatal("mutating clone changed original")
	}
}

// TestValidOwnerRoundTrips: for any valid principal, its own ACL
// (ForOwner) derives a version that grants it every right, so a box
// home or a reserved directory never locks its owner out. Candidates mix
// plain letters with white space of several scripts, '#', '*', control
// bytes and bytes that are not UTF-8.
func TestValidOwnerRoundTrips(t *testing.T) {
	alphabet := []string{"a", "Z", "/", "=", ":", "@", "#", "*", "-", "v(", ")",
		" ", "\t", "\x7f", "\x00", "\u0085", "\u00a0", "\u2003", "\u3000", "é", "\xff", "\xe2\x80"}
	r := rand.New(rand.NewSource(1))
	valid := 0
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := 1 + r.Intn(8); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		p := identity.Principal(b.String())
		if !p.Valid() {
			continue
		}
		valid++
		v := ParseVersion([]byte(ForOwner(p).String()))
		if got, _ := v.ACL.Lookup(p); got != All || v.Text != v.Raw {
			t.Fatalf("ForOwner(%q) derives %q granting %v; want canonical, %v", p, v.Raw, got, All)
		}
	}
	if valid < 1000 {
		t.Fatalf("only %d valid candidates; the alphabet tests too little", valid)
	}
}

func TestReserveChild(t *testing.T) {
	// Section 4: Fred mkdirs /work holding v(rwlax); the new ACL grants
	// exactly rwlax to Fred and nothing else.
	child := ReserveChild("globus:/O=UnivNowhere/CN=Fred", All)
	if len(child.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(child.Entries))
	}
	r, rr := child.Lookup("globus:/O=UnivNowhere/CN=Fred")
	if r != All || rr != None {
		t.Fatalf("child rights = %v/%v, want rwlax/none", r, rr)
	}
	if child.Allows("globus:/O=UnivNowhere/CN=George", List) {
		t.Fatal("other users must not inherit access")
	}
}

func TestACLStringParseRoundTrip(t *testing.T) {
	a := &ACL{}
	a.Set("globus:/O=UnivNowhere/*", Read|List|Reserve, All)
	a.Set("kerberos:fred@nowhere.edu", All, None)
	b, err := Parse(a.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip:\n%swant\n%s", b.String(), a.String())
	}
}

// randomRights yields a random valid rights value; reserve only with a
// non-reserve reserve-set.
func randomRights(r *rand.Rand) (Rights, Rights) {
	plain := Rights(r.Intn(int(All) + 1))
	var rr Rights
	if r.Intn(2) == 1 {
		plain |= Reserve
		rr = Rights(r.Intn(int(All) + 1))
	}
	return plain, rr
}

func TestACLRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	patterns := []string{
		"globus:/O=UnivNowhere/*", "kerberos:*@nowhere.edu", "unix:dthain",
		"hostname:laptop.cs.nowhere.edu", "Freddy", "*",
	}
	for i := 0; i < 200; i++ {
		a := &ACL{}
		n := r.Intn(len(patterns))
		for _, p := range patterns[:n] {
			rights, rr := randomRights(r)
			if rights == None && rr == None {
				continue
			}
			a.Set(p, rights, rr)
		}
		b, err := Parse(a.String())
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", i, err, a.String())
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iter %d: round trip changed ACL\n%s\nvs\n%s", i, a.String(), b.String())
		}
	}
}

func TestLookupMonotonicProperty(t *testing.T) {
	// Adding an entry never removes rights from anyone (rights are a
	// union over matching entries).
	f := func(sub string, extra uint8) bool {
		if strings.ContainsAny(sub, "* \t\n") || sub == "" {
			return true
		}
		p := identity.Principal(sub)
		a, err := Parse("globus:* rl\n")
		if err != nil {
			return false
		}
		before, _ := a.Lookup(p)
		a.Set("*", Rights(extra)&All, None)
		after, _ := a.Lookup(p)
		return after.Has(before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNilACLGrantsNothing(t *testing.T) {
	var a *ACL
	r, rr := a.Lookup("anyone")
	if r != None || rr != None {
		t.Fatal("nil ACL must grant nothing")
	}
	if a.String() != "" {
		t.Fatal("nil ACL renders empty")
	}
}

func TestPatternsSorted(t *testing.T) {
	a := &ACL{}
	a.Set("zeta", Read, None)
	a.Set("alpha", Read, None)
	got := a.Patterns()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Patterns = %v", got)
	}
}

// TestParseVersion: a version keeps the file's bytes and the canonical
// text getacl replies with; a malformed file fails closed, with no
// entries and no text.
func TestParseVersion(t *testing.T) {
	for _, c := range []struct {
		raw, text string
		entries   int
	}{
		{"unix:alice rl\nunix:bob rwlax\n", "unix:alice rl\nunix:bob rwlax\n", 2},
		{"  unix:alice   rl\n\n# note\n", "unix:alice rl\n", 1},
		{"unix:alice rl trailing\n", "", 0},
		{"", "", 0},
	} {
		v := ParseVersion([]byte(c.raw))
		if v.Raw != c.raw || v.Text != c.text || len(v.ACL.Entries) != c.entries {
			t.Errorf("ParseVersion(%q) = raw %q, text %q, %d entries; want text %q, %d entries",
				c.raw, v.Raw, v.Text, len(v.ACL.Entries), c.text, c.entries)
		}
	}
}
