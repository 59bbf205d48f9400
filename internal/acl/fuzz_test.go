package acl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refParseEntry and refParse are the parser as first written, over
// strings.Fields and strings.Split: the references the hand-written
// field split and line walk are held to.
func refParseEntry(line string) (Entry, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Entry{}, fmt.Errorf("acl: malformed entry %q: want \"pattern rights\"", line)
	}
	e := Entry{Pattern: fields[0]}
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

func refParse(text string) (*ACL, error) {
	a := &ACL{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := refParseEntry(line)
		if err != nil {
			return nil, fmt.Errorf("acl: line %d: %v", ln+1, err)
		}
		a.Entries = append(a.Entries, e)
	}
	return a, nil
}

// FuzzParse checks that the ACL parser never panics, accepts and
// refuses what the reference does with the same entries, and that
// anything it accepts round-trips through String() unchanged.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"/O=UnivNowhere/CN=Fred rwlax\n",
		"globus:/O=UnivNowhere/* v(rwlax)\n",
		"hostname:*.nowhere.edu rlxv(rwl)\n# comment\n\n",
		"a -\n",
		"p v(\n",
		"p rwv(q)\n",
		"x y z\n",
		"\x00\x01\x02",
		"pattern rv()x\n",
		"p rl\n",
		"p　rl \n",
		"\u0085p\vrl\f\n",
		"p\xffq rl\r\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		a, err := Parse(text)
		want, wantErr := refParse(text)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Parse(%q) error %v, reference %v", text, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("Parse(%q) error %q, reference %q", text, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("Parse(%q) = %+v, reference %+v", text, a.Entries, want.Entries)
		}
		if cap(a.Entries) != len(a.Entries) {
			t.Fatalf("Parse(%q) holds room for %d entries, has %d", text, cap(a.Entries), len(a.Entries))
		}
		out := a.String()
		b, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered ACL failed to re-parse: %q: %v", out, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("round trip changed ACL:\n%q\nvs\n%q", a.String(), b.String())
		}
		if v := ParseVersion([]byte(text)); v.Text != out {
			t.Fatalf("ParseVersion(%q).Text = %q, want %q", text, v.Text, out)
		}
	})
}

// FuzzParseEntry checks single-entry parsing for panics, agreement
// with the reference and round-trip stability.
func FuzzParseEntry(f *testing.F) {
	for _, s := range []string{
		"p rwlax", "p v(rl)", "p -", "p rv(w)x", " p  rl ", "p", "p q", "",
		"p rl", "p rl ", "p rl\u0085x", "\xffp\xfe rl",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseEntry(line)
		want, wantErr := refParseEntry(line)
		if (err != nil) != (wantErr != nil) || e != want {
			t.Fatalf("ParseEntry(%q) = %+v, %v; reference %+v, %v", line, e, err, want, wantErr)
		}
		if err != nil {
			return
		}
		e2, err := ParseEntry(e.String())
		if err != nil {
			t.Fatalf("rendered entry failed to re-parse: %q: %v", e.String(), err)
		}
		if e != e2 {
			t.Fatalf("round trip changed entry: %+v vs %+v", e, e2)
		}
	})
}
