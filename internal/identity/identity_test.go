package identity

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNewWithMethod(t *testing.T) {
	p := New("globus", "/O=UnivNowhere/CN=Fred")
	if got := p.String(); got != "globus:/O=UnivNowhere/CN=Fred" {
		t.Fatalf("New = %q", got)
	}
	if p.Method() != "globus" {
		t.Errorf("Method = %q, want globus", p.Method())
	}
	if p.Subject() != "/O=UnivNowhere/CN=Fred" {
		t.Errorf("Subject = %q", p.Subject())
	}
}

func TestNewBareName(t *testing.T) {
	p := New("", "Freddy")
	if p.String() != "Freddy" {
		t.Fatalf("bare New = %q", p)
	}
	if p.Method() != "" {
		t.Errorf("Method = %q, want empty", p.Method())
	}
	if p.Subject() != "Freddy" {
		t.Errorf("Subject = %q, want Freddy", p.Subject())
	}
}

func TestKerberosStylePrincipal(t *testing.T) {
	p := New("kerberos", "fred@nowhere.edu")
	if p.Method() != "kerberos" || p.Subject() != "fred@nowhere.edu" {
		t.Fatalf("method/subject = %q/%q", p.Method(), p.Subject())
	}
}

func TestValid(t *testing.T) {
	valid := []Principal{"Freddy", "globus:/O=UnivNowhere/CN=Fred", "hostname:laptop.cs.nowhere.edu", Nobody}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%q should be valid", p)
		}
	}
	invalid := []Principal{"", "has space", "tab\tname", "star*name", "new\nline", "#comment", "#"}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%q should be invalid", p)
		}
	}
}

// TestValidRefusesEverySpace: the ACL file format splits a line at every
// rune unicode.IsSpace reports, so a principal holding one would not
// survive as its own pattern; each such rune makes a principal invalid.
func TestValidRefusesEverySpace(t *testing.T) {
	named := []rune{0x85, 0xa0, 0x1680, 0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2005,
		0x2006, 0x2007, 0x2008, 0x2009, 0x200a, 0x2028, 0x2029, 0x202f, 0x205f, 0x3000}
	for _, r := range named {
		if !unicode.IsSpace(r) {
			t.Errorf("U+%04X is not white space; the table is wrong", r)
		}
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !unicode.IsSpace(r) {
			continue
		}
		if p := New("unix", "fred"+string(r)+"x"); p.Valid() {
			t.Errorf("%q (U+%04X) should be invalid", p, r)
		}
	}
}

func TestSanitized(t *testing.T) {
	p := Principal("globus:/O=UnivNowhere/CN=Fred")
	s := p.Sanitized()
	if strings.ContainsAny(s, "/: ") {
		t.Fatalf("Sanitized %q contains separators", s)
	}
	if Principal("///").Sanitized() != "___" {
		t.Errorf("slashes should become underscores")
	}
	if Principal("").Sanitized() != "_" {
		t.Errorf("empty principal should sanitize to _")
	}
}

func TestMatchExact(t *testing.T) {
	if !Match("globus:/O=UnivNowhere/CN=Fred", "globus:/O=UnivNowhere/CN=Fred") {
		t.Fatal("exact match failed")
	}
	if Match("globus:/O=UnivNowhere/CN=Fred", "globus:/O=UnivNowhere/CN=George") {
		t.Fatal("distinct names should not match")
	}
}

func TestMatchWildcards(t *testing.T) {
	cases := []struct {
		pattern string
		name    Principal
		want    bool
	}{
		{"*", "anything at all", true},
		{"/O=UnivNowhere/*", "/O=UnivNowhere/CN=Fred", true},
		{"/O=UnivNowhere/*", "/O=Elsewhere/CN=Fred", false},
		{"hostname:*.nowhere.edu", "hostname:laptop.cs.nowhere.edu", true},
		{"hostname:*.nowhere.edu", "hostname:laptop.cs.elsewhere.edu", false},
		{"globus:/O=UnivNowhere/*", "globus:/O=UnivNowhere/", true},
		{"*:fred", "kerberos:fred", true},
		{"*Fred*", "globus:/O=UnivNowhere/CN=Fred", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "aXXcYYb", false},
		{"", "", true},
		{"", "x", false},
		{"**", "whatever", true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.name); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}

func TestMatchSelfProperty(t *testing.T) {
	// Any wildcard-free string matches itself.
	f := func(s string) bool {
		if strings.ContainsRune(s, '*') {
			return true
		}
		return Match(s, Principal(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchStarProperty(t *testing.T) {
	f := func(s string) bool { return Match("*", Principal(s)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchPrefixStarProperty(t *testing.T) {
	// prefix + "*" matches prefix + suffix for wildcard-free parts.
	f := func(prefix, suffix string) bool {
		if strings.ContainsRune(prefix, '*') {
			return true
		}
		return Match(prefix+"*", Principal(prefix+suffix))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchDoesNotMatchShorterName(t *testing.T) {
	if Match("abc", "ab") || Match("ab", "abc") {
		t.Fatal("length mismatch without wildcard must not match")
	}
}
