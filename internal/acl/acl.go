// Package acl implements the per-directory access-control lists used
// inside identity boxes and by the Chirp storage system.
//
// Because visiting identities are free-form strings, they do not fit the
// Unix integer-UID protection scheme; the identity box abandons Unix
// permissions and adopts ACLs instead. Each directory holds a file named
// ".__acl" listing, one per line, an identity pattern and the set of
// operations principals matching that pattern may perform on files in
// the directory:
//
//	/O=UnivNowhere/CN=Fred   rwlax
//	/O=UnivNowhere/*         rl
//	hostname:*.nowhere.edu   rlx
//	globus:/O=UnivNowhere/*  v(rwlax)
//
// Rights are r (read), w (write), l (list), x (execute), a (administer:
// modify the ACL itself) and the reserve right v. The reserve right is a
// variation upon amplification: a principal holding only v(...) in a
// directory may mkdir there, and the newly created directory is
// initialized with an ACL granting that principal the parenthesized
// rights — giving each visitor a fresh private namespace they can then
// share by editing the ACL (if a was in the reserve set).
package acl

import (
	"fmt"
	"sort"
	"strings"

	"identitybox/internal/identity"
)

// FileName is the name of the ACL file stored in each directory. (The
// production Chirp implementation uses the same "hidden file in the
// directory" scheme.)
const FileName = ".__acl"

// Rights is a bitmask of the operations a principal may perform.
type Rights uint8

const (
	Read    Rights = 1 << iota // r: read files in the directory
	Write                      // w: create, modify and delete files
	List                       // l: list the directory
	Execute                    // x: execute programs in the directory
	Admin                      // a: modify the directory's ACL
	Reserve                    // v: mkdir with a fresh ACL (amplification)
)

// All is every non-reserve right: rwlax.
const All = Read | Write | List | Execute | Admin

// None is the empty right set.
const None Rights = 0

// Has reports whether r includes every right in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// String renders the rights in the canonical order "rwlaxv". The reserve
// right renders as a bare "v"; use Entry.String for the v(...) form.
func (r Rights) String() string {
	if r == None {
		return "-"
	}
	var b strings.Builder
	for _, f := range rightLetters {
		if r.Has(f.bit) {
			b.WriteByte(f.letter)
		}
	}
	return b.String()
}

var rightLetters = []struct {
	letter byte
	bit    Rights
}{
	{'r', Read}, {'w', Write}, {'l', List}, {'a', Admin}, {'x', Execute}, {'v', Reserve},
}

// ParseRights parses a string of right letters such as "rwlax". It does
// not accept the v(...) form; use ParseEntry for full entries.
func ParseRights(s string) (Rights, error) {
	var r Rights
	if s == "-" {
		return None, nil
	}
	for i := 0; i < len(s); i++ {
		bit, err := rightForLetter(s[i])
		if err != nil {
			return None, err
		}
		r |= bit
	}
	return r, nil
}

func rightForLetter(c byte) (Rights, error) {
	switch c {
	case 'r':
		return Read, nil
	case 'w':
		return Write, nil
	case 'l':
		return List, nil
	case 'a':
		return Admin, nil
	case 'x':
		return Execute, nil
	case 'v':
		return Reserve, nil
	default:
		return None, fmt.Errorf("acl: unknown right %q", string(c))
	}
}

// Entry is one line of an ACL: an identity pattern, the rights granted
// to principals matching it, and — when the Reserve bit is set — the
// rights placed in the ACL of a directory created under the reserve
// right.
type Entry struct {
	Pattern       string
	Rights        Rights
	ReserveRights Rights
}

// Matches reports whether the entry's pattern matches the principal.
func (e Entry) Matches(p identity.Principal) bool {
	return identity.Match(e.Pattern, p)
}

// String renders the entry in the file format, e.g.
// "globus:/O=UnivNowhere/* rlv(rwlax)".
func (e Entry) String() string {
	var b strings.Builder
	b.WriteString(e.Pattern)
	b.WriteByte(' ')
	plain := e.Rights &^ Reserve
	if plain != None {
		b.WriteString(plain.String())
	}
	if e.Rights.Has(Reserve) {
		b.WriteByte('v')
		if e.ReserveRights != None {
			b.WriteByte('(')
			b.WriteString(e.ReserveRights.String())
			b.WriteByte(')')
		}
	}
	if plain == None && !e.Rights.Has(Reserve) {
		b.WriteByte('-')
	}
	return b.String()
}

// ParseEntry parses one ACL line: "<pattern> <rights>", where rights is
// a run of right letters optionally containing v(<rights>).
func ParseEntry(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Entry{}, fmt.Errorf("acl: malformed entry %q: want \"pattern rights\"", line)
	}
	e := Entry{Pattern: fields[0]}
	if e.Pattern == "" {
		return Entry{}, fmt.Errorf("acl: empty pattern in %q", line)
	}
	s := fields[1]
	if s == "-" {
		return e, nil
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 'v' {
			e.Rights |= Reserve
			if i+1 < len(s) && s[i+1] == '(' {
				j := strings.IndexByte(s[i+2:], ')')
				if j < 0 {
					return Entry{}, fmt.Errorf("acl: unterminated v( in %q", line)
				}
				rr, err := ParseRights(s[i+2 : i+2+j])
				if err != nil {
					return Entry{}, err
				}
				if rr.Has(Reserve) {
					return Entry{}, fmt.Errorf("acl: reserve right may not nest in %q", line)
				}
				e.ReserveRights = rr
				i += 2 + j
			}
			continue
		}
		bit, err := rightForLetter(c)
		if err != nil {
			return Entry{}, fmt.Errorf("acl: %v in %q", err, line)
		}
		e.Rights |= bit
	}
	return e, nil
}

// ACL is an ordered list of entries. The rights of a principal are the
// union of all matching entries. The zero value is an empty ACL that
// grants nothing.
type ACL struct {
	Entries []Entry
}

// Parse reads an ACL from its file representation. Blank lines and lines
// starting with '#' are ignored.
func Parse(text string) (*ACL, error) {
	a := &ACL{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseEntry(line)
		if err != nil {
			return nil, fmt.Errorf("acl: line %d: %v", ln+1, err)
		}
		a.Entries = append(a.Entries, e)
	}
	return a, nil
}

// Version is one content version of an ACL file, parsed: the value
// vfs.FS.MemoIn keeps on the file's inode for every reader of that file
// system — the Chirp server's checks and any identity box on the same
// kernel alike, so all of them must memoise this one type, built by
// MemoVersion. It is shared by every check that finds that version, so
// it is immutable: callers Clone before editing.
type Version struct {
	ACL  *ACL
	Text string // String(): the body Chirp's getacl replies with ("" when malformed)
	Raw  string // the file's bytes, as a box's getacl returns them
}

// ParseVersion parses one version of an ACL file. A malformed file
// grants nothing (fail closed): its Version holds an empty ACL.
func ParseVersion(data []byte) *Version {
	raw := string(data)
	a, err := Parse(raw)
	if err != nil {
		return &Version{ACL: &ACL{}, Raw: raw}
	}
	text := a.String()
	if text == raw {
		text = raw // a canonical file: keep the one copy the patterns already point into
	}
	return &Version{ACL: a, Text: text, Raw: raw}
}

// MemoVersion is ParseVersion as a vfs.FS.MemoIn derive step, the one
// every reader of an ACL file passes.
func MemoVersion(data []byte) any { return ParseVersion(data) }

// String renders the ACL in its file representation, one entry per line
// with a trailing newline (empty ACLs render as the empty string).
func (a *ACL) String() string {
	if a == nil || len(a.Entries) == 0 {
		return ""
	}
	var b strings.Builder
	for _, e := range a.Entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a deep copy of the ACL.
func (a *ACL) Clone() *ACL {
	c := &ACL{Entries: make([]Entry, len(a.Entries))}
	copy(c.Entries, a.Entries)
	return c
}

// Lookup reports the union of rights granted to the principal by all
// matching entries, and separately the union of reserve rights.
func (a *ACL) Lookup(p identity.Principal) (rights, reserveRights Rights) {
	if a == nil {
		return None, None
	}
	for _, e := range a.Entries {
		if e.Matches(p) {
			rights |= e.Rights
			reserveRights |= e.ReserveRights
		}
	}
	return rights, reserveRights
}

// Allows reports whether the principal holds every right in want.
func (a *ACL) Allows(p identity.Principal, want Rights) bool {
	got, _ := a.Lookup(p)
	return got.Has(want)
}

// Set grants rights to a pattern, replacing any existing entry with the
// same pattern. Granting None removes the entry.
func (a *ACL) Set(pattern string, r Rights, reserve Rights) {
	if r == None && reserve == None {
		a.Remove(pattern)
		return
	}
	for i := range a.Entries {
		if a.Entries[i].Pattern == pattern {
			a.Entries[i].Rights = r
			a.Entries[i].ReserveRights = reserve
			return
		}
	}
	a.Entries = append(a.Entries, Entry{Pattern: pattern, Rights: r, ReserveRights: reserve})
}

// Remove deletes the entry with the given pattern, if present, and
// reports whether an entry was removed.
func (a *ACL) Remove(pattern string) bool {
	for i := range a.Entries {
		if a.Entries[i].Pattern == pattern {
			a.Entries = append(a.Entries[:i], a.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// Patterns reports the sorted list of patterns in the ACL.
func (a *ACL) Patterns() []string {
	out := make([]string, 0, len(a.Entries))
	for _, e := range a.Entries {
		out = append(out, e.Pattern)
	}
	sort.Strings(out)
	return out
}

// ForOwner returns a fresh ACL granting the principal full rights
// (rwlax), as placed in a visitor's new home directory or in a directory
// created under the reserve right with reserve set rwlax.
func ForOwner(p identity.Principal) *ACL {
	a := &ACL{}
	a.Set(p.String(), All, None)
	return a
}

// ReserveChild builds the ACL for a directory created by p under the
// reserve right: the new directory's ACL contains exactly the reserve
// set for the creating principal (Section 4 of the paper).
func ReserveChild(p identity.Principal, reserveSet Rights) *ACL {
	a := &ACL{}
	a.Set(p.String(), reserveSet&^Reserve, None)
	return a
}
