package chirp

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"identitybox/internal/workload"
)

// refSplitFields is the tokenizer as it was before it counted fields
// first (append-grown, one pass): the reference splitFields is checked
// against.
func refSplitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("chirp: unterminated quote in %q", line)
			}
			tok, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, fmt.Errorf("chirp: bad quoting in %q: %v", line, err)
			}
			out = append(out, tok)
			i = j + 1
			continue
		}
		j := strings.IndexByte(line[i:], ' ')
		if j < 0 {
			out = append(out, line[i:])
			break
		}
		out = append(out, line[i:i+j])
		i += j
	}
	return out, nil
}

// FuzzSplitFields checks the protocol tokenizer never panics and that
// quoting any token yields a line that parses back to the same token.
func FuzzSplitFields(f *testing.F) {
	f.Add(`open 0 644 "/plain"`)
	f.Add(`stat "/with space"`)
	f.Add(`x "esc \" quote"`)
	f.Add(`bad "unterminated`)
	f.Add("")
	f.Add(`""`)
	f.Add(`a"b c" "d"e  "\"`)
	f.Fuzz(func(t *testing.T, line string) {
		fields, err := splitFields(line)
		want, werr := refSplitFields(line)
		if (err != nil) != (werr != nil) || !reflect.DeepEqual(fields, want) {
			t.Fatalf("splitFields(%q) = %q, %v; the reference says %q, %v", line, fields, err, want, werr)
		}
		if err != nil {
			return
		}
		// The raw tokens are the same tokens, before unquoting.
		raw, rerr := tokenize(line, false)
		if rerr != nil || len(raw) != len(fields) {
			t.Fatalf("raw tokens of %q = %q, %v; want %d of them", line, raw, rerr, len(fields))
		}
		for i, tok := range raw {
			if tok[0] == '"' {
				tok, _ = strconv.Unquote(tok)
			}
			if tok != fields[i] {
				t.Fatalf("raw token %d of %q = %q, field is %q", i, line, raw[i], fields[i])
			}
		}
		// Re-quote every field: must parse back identically.
		requoted := ""
		for i, tok := range fields {
			if i > 0 {
				requoted += " "
			}
			requoted += q(tok)
		}
		back, err := splitFields(requoted)
		if err != nil {
			t.Fatalf("requoted line failed: %q: %v", requoted, err)
		}
		if len(back) != len(fields) {
			t.Fatalf("token count changed: %v vs %v", back, fields)
		}
		for i := range fields {
			if back[i] != fields[i] {
				t.Fatalf("token %d changed: %q vs %q", i, back[i], fields[i])
			}
		}
	})
}

// FuzzLineAppender checks the append-style encoder against the form it
// replaced: for arbitrary fields (spaces, quotes, backslashes, invalid
// UTF-8, empty) the line is byte for byte what joining strconv.Quote of
// each field gave, numbers what strconv.Format gave, and the tokenizer
// reads the fields back — unquoted, and raw exactly as written.
func FuzzLineAppender(f *testing.F) {
	f.Add("stat", "/plain", "", int64(0), uint64(0))
	f.Add("x y", `esc \" quote\`, "new\nline\r", int64(-1), uint64(1)<<63)
	f.Add("\xff\xfe", "\x00", "é\u2028", int64(1)<<62, uint64(0o7777))
	f.Fuzz(func(t *testing.T, a, b, c string, n int64, u uint64) {
		fs := []string{a, b, c}
		quoted := make([]string, len(fs))
		for i, s := range fs {
			quoted[i] = strconv.Quote(s)
		}
		want := "ok " + strings.Join(quoted, " ") + " " + strconv.FormatInt(n, 10) + " " +
			strconv.FormatUint(u, 10) + " " + strconv.FormatUint(uint64(uint32(u)), 8) + " raw"
		l := new(lineBuf).start("stale line, overwritten").start("ok")
		for _, s := range fs {
			l.quoted(s)
		}
		got := string(l.int(n).uint(u).oct(uint32(u)).str("raw").b)
		if got != want {
			t.Fatalf("encoded %q\n    want %q", got, want)
		}
		if err := checkLine(l.b); err != nil {
			t.Fatalf("quoted fields left a raw newline: %v", err)
		}
		fields, err := splitFields(got)
		if err != nil || len(fields) != 8 || !reflect.DeepEqual(fields[1:4], fs) {
			t.Fatalf("splitFields(%q) = %q, %v; want the fields %q back", got, fields, err, fs)
		}
		raw, err := tokenize(got, false)
		if err != nil || !reflect.DeepEqual(raw[1:4], quoted) || strings.Join(raw, " ") != got {
			t.Fatalf("raw tokens of %q = %q, %v", got, raw, err)
		}
	})
}

// FuzzTraceParse lives here to avoid an extra fuzz package; it checks
// the workload trace parser is panic-free and render-stable.
func FuzzTraceParse(f *testing.F) {
	f.Add("open f /x ro\nread f 10\nclose f\n")
	f.Add("compute 5\nstat /a\n")
	f.Add("spawn /x # note\n")
	f.Add("read\x00 f 1")
	f.Fuzz(func(t *testing.T, text string) {
		tr, err := workload.ParseTrace(text)
		if err != nil {
			return
		}
		if _, err := workload.ParseTrace(tr.Render()); err != nil {
			t.Fatalf("rendered trace failed to re-parse: %v\n%s", err, tr.Render())
		}
	})
}
