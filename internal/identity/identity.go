// Package identity defines the high-level names that identity boxing
// attaches to processes and resources.
//
// A principal is a free-form string of the form "method:subject", where
// method names the authentication mechanism that proved the identity
// (globus, kerberos, unix, hostname) and subject is the proven name, e.g.
//
//	globus:/O=UnivNowhere/CN=Fred
//	kerberos:fred@nowhere.edu
//	hostname:laptop.cs.nowhere.edu
//
// Interactive identity boxes may also use bare names with no method
// ("Freddy", "JoeHacker"); the supervising user can choose absolutely any
// name for a visitor. Patterns used in access-control lists may contain
// the wildcard '*', which matches any run of characters.
package identity

import (
	"strings"
	"unicode"
)

// Principal is a high-level identity string. The zero value is the
// anonymous (unauthenticated) principal.
type Principal string

// Nobody is the identity used when a visiting user touches a directory
// with no ACL: the box falls back to Unix semantics as if the visitor
// were the unprivileged user "nobody".
const Nobody Principal = "nobody"

// New assembles a principal from an authentication method and a subject
// name. An empty method yields a bare name, as used in interactive boxes.
func New(method, subject string) Principal {
	if method == "" {
		return Principal(subject)
	}
	return Principal(method + ":" + subject)
}

// Method reports the authentication-method prefix, or "" for bare names.
func (p Principal) Method() string {
	if i := strings.IndexByte(string(p), ':'); i >= 0 {
		return string(p[:i])
	}
	return ""
}

// Subject reports the name proven by the authentication method. For bare
// names the whole principal is the subject.
func (p Principal) Subject() string {
	if i := strings.IndexByte(string(p), ':'); i >= 0 {
		return string(p[i+1:])
	}
	return string(p)
}

// IsZero reports whether the principal is the empty (anonymous) identity.
func (p Principal) IsZero() bool { return p == "" }

// Valid reports whether the principal is usable in an ACL or an identity
// box: non-empty, no white space of any script (unicode.IsSpace: the ACL
// file format splits its lines there) and no control characters, no
// leading '#' (the ACL file format's comment), and no '*' (wildcards
// belong in patterns, not in concrete identities). A valid principal's
// own ACL line, acl.ForOwner, parses back to an entry naming it.
func (p Principal) Valid() bool {
	if p == "" || p[0] == '#' {
		return false
	}
	for _, r := range string(p) {
		if r <= ' ' || r == 0x7f || r == '*' || unicode.IsSpace(r) {
			return false
		}
	}
	return true
}

// String returns the principal as a plain string.
func (p Principal) String() string { return string(p) }

// Sanitized returns the principal rewritten so it can be used as a single
// path component, e.g. for the visitor's temporary home directory.
// Slashes, colons and other separators become underscores.
func (p Principal) Sanitized() string {
	var b strings.Builder
	for _, r := range string(p) {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_', r == '=', r == '@':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	out := b.String()
	// "." and ".." would escape the directory the component is joined
	// under (e.g. the visitor-home base): never emit them.
	allDots := true
	for i := 0; i < len(out); i++ {
		if out[i] != '.' {
			allDots = false
			break
		}
	}
	if allDots {
		return "_" + out
	}
	return out
}

// Match reports whether the concrete name matches the pattern. Patterns
// are matched literally except for '*', which matches any (possibly
// empty) run of characters; multiple wildcards are permitted. This is the
// matching used by ACL entries such as "globus:/O=UnivNowhere/*".
func Match(pattern string, name Principal) bool {
	return globMatch(pattern, string(name))
}

// globMatch implements iterative glob matching with backtracking over a
// single '*' at a time, O(len(p)*len(s)) worst case.
func globMatch(p, s string) bool {
	var pi, si int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		// The wildcard case must come first: a literal '*' in the name
		// must not consume a wildcard '*' in the pattern.
		case pi < len(p) && p[pi] == '*':
			star = pi
			mark = si
			pi++
		case pi < len(p) && (p[pi] == s[si]):
			pi++
			si++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}
