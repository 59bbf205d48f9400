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
	"slices"
	"sort"
	"strings"
	"unicode"

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
	return string(r.AppendText(make([]byte, 0, len(rightLetters))))
}

// AppendText appends r as String renders it to dst and returns the
// extended buffer.
func (r Rights) AppendText(dst []byte) []byte {
	if r == None {
		return append(dst, '-')
	}
	for _, f := range rightLetters {
		if r.Has(f.bit) {
			dst = append(dst, f.letter)
		}
	}
	return dst
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

// lineTail is the most an entry's line adds to its pattern: the
// separating space, the longest rights field and the newline.
const lineTail = len(" rwlaxv(rwlaxv)\n")

// String renders the entry in the file format, e.g.
// "globus:/O=UnivNowhere/* rlv(rwlax)".
func (e Entry) String() string {
	return string(e.AppendText(make([]byte, 0, len(e.Pattern)+lineTail)))
}

// AppendText appends e as String renders it to dst and returns the
// extended buffer.
func (e Entry) AppendText(dst []byte) []byte {
	dst = append(dst, e.Pattern...)
	return e.appendRights(append(dst, ' '))
}

// appendRights appends the entry's rights field: the plain rights, then
// v or v(<reserve rights>), or "-" when it grants nothing.
func (e Entry) appendRights(dst []byte) []byte {
	plain := e.Rights &^ Reserve
	if plain != None {
		dst = plain.AppendText(dst)
	}
	if e.Rights.Has(Reserve) {
		dst = append(dst, 'v')
		if e.ReserveRights != None {
			dst = append(e.ReserveRights.AppendText(append(dst, '(')), ')')
		}
	}
	if plain == None && !e.Rights.Has(Reserve) {
		dst = append(dst, '-')
	}
	return dst
}

// ParseEntry parses one ACL line: "<pattern> <rights>", separated by
// white space (unicode.IsSpace), where rights is a run of right letters
// optionally containing v(<rights>).
func ParseEntry(line string) (Entry, error) {
	pattern, s, ok := twoFields(line)
	if !ok {
		return Entry{}, fmt.Errorf("acl: malformed entry %q: want \"pattern rights\"", line)
	}
	e := Entry{Pattern: pattern}
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

// twoFields splits line around runs of white space (unicode.IsSpace)
// as strings.Fields does, and reports whether it held exactly two
// fields. The fields are substrings of line.
func twoFields(line string) (first, second string, ok bool) {
	line = strings.TrimSpace(line)
	i := strings.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return "", "", false
	}
	first, second = line[:i], strings.TrimLeftFunc(line[i:], unicode.IsSpace)
	return first, second, strings.IndexFunc(second, unicode.IsSpace) < 0
}

// ACL is an ordered list of entries. The rights of a principal are the
// union of all matching entries. The zero value is an empty ACL that
// grants nothing.
type ACL struct {
	Entries []Entry
}

// Parse reads an ACL from its file representation. Blank lines and lines
// starting with '#' are ignored. The patterns are substrings of text,
// and Entries is sized once, to the count of entry lines: a parse costs
// the same few allocations whatever the entry count, and never holds
// room for more entries than the text has.
func Parse(text string) (*ACL, error) {
	a := &ACL{}
	if n := entryLines(text); n > 0 {
		a.Entries = make([]Entry, 0, n)
	}
	for ln := 1; text != ""; ln++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		e, err := ParseEntry(line)
		if err != nil {
			return nil, fmt.Errorf("acl: line %d: %v", ln, err)
		}
		a.Entries = append(a.Entries, e)
	}
	return a, nil
}

// entryLines counts the lines of text that Parse reads as entries: those
// neither blank nor comments. For an ACL that parses, that is exactly
// its entry count.
func entryLines(text string) int {
	n := 0
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			n++
		}
	}
	return n
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
// grants nothing (fail closed): its Version holds an empty ACL. A
// canonical file costs four allocations whatever its entry count — the
// string, the ACL, its entries and the Version — and a non-canonical one
// a rendered Text on top.
func ParseVersion(data []byte) *Version { return ParseVersionString(string(data)) }

// ParseVersionString is ParseVersion of a file's bytes already held as
// a string, which the Version keeps as Raw.
func ParseVersionString(raw string) *Version {
	a, err := Parse(raw)
	if err != nil {
		return &Version{ACL: &ACL{}, Raw: raw}
	}
	text := raw // a canonical file: keep the one copy the patterns already point into
	if !a.rendersAs(raw) {
		text = a.String()
	}
	return &Version{ACL: a, Text: text, Raw: raw}
}

// rendersAs reports whether raw is exactly a's rendering. It compares
// entry by entry, each pattern in place and each rights field rendered
// into one stack buffer, so it builds no second copy of the text.
func (a *ACL) rendersAs(raw string) bool {
	var tail [lineTail]byte
	for _, e := range a.Entries {
		rest, ok := strings.CutPrefix(raw, e.Pattern)
		if !ok {
			return false
		}
		t := append(e.appendRights(append(tail[:0], ' ')), '\n')
		if len(rest) < len(t) || rest[:len(t)] != string(t) {
			return false
		}
		raw = rest[len(t):]
	}
	return raw == ""
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
	return string(a.AppendText(nil))
}

// AppendText appends a as String renders it to dst and returns the
// extended buffer: the encoder every rendering of an ACL goes through.
// It grows dst at most once, up front, to a bound on the text's length.
func (a *ACL) AppendText(dst []byte) []byte {
	if a == nil {
		return dst
	}
	n := 0
	for _, e := range a.Entries {
		n += len(e.Pattern) + lineTail
	}
	dst = slices.Grow(dst, n)
	for _, e := range a.Entries {
		dst = append(e.AppendText(dst), '\n')
	}
	return dst
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
