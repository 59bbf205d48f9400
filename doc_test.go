package identitybox

// The prose docs are held to the tree: a test, path, flag, option field
// or DESIGN.md section a doc names must exist, so a deletion or rename
// breaks this test instead of silently rotting the doc.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// lintedDocs are the docs whose backticked names must exist; refDocs
// also carry DESIGN.md section references. A missing file is skipped.
var (
	lintedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}
	refDocs    = []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}
)

// designMaxBytes caps DESIGN.md: a change that adds to it makes room by
// saying something else in fewer words, or raises the cap on purpose.
const designMaxBytes = 48 << 10

// knobStructs maps the struct names the DESIGN.md knob table uses to
// the package directory and type that declare them.
var knobStructs = map[string][2]string{
	"ServerOptions":     {"internal/chirp", "ServerOptions"},
	"ClientOptions":     {"internal/chirp", "ClientOptions"},
	"durable.Options":   {"internal/durable", "Options"},
	"admission.Options": {"internal/admission", "Options"},
	"replica.Config":    {"internal/replica", "Config"},
	"core.Options":      {"internal/core", "Options"},
}

// flaggedCommands are the commands whose -flags a backticked span
// starting with the command's name is checked against.
var flaggedCommands = []string{"chirpd", "chirp", "catalogd", "identbox", "benchfig"}

// repoFacts is what the docs are checked against.
type repoFacts struct {
	funcs      map[string]bool            // Test/Benchmark/Fuzz funcs outside benchmark/
	paths      map[string]bool            // every file and directory, repo-relative
	bases      map[string]bool            // base name of every file
	flags      map[string]map[string]bool // command -> flags its main.go defines
	fields     map[string][]string        // knob-table struct -> exported fields
	goComments map[string]string          // *.go file -> its comments
}

func TestDocsNameOnlyRealThings(t *testing.T) {
	facts := loadRepoFacts(t)
	docs := readDocs(t)
	for _, p := range lintDocs(facts, docs) {
		t.Error(p)
	}
	if n := len(docs["DESIGN.md"]); n > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap", n, designMaxBytes)
	}

	t.Run("planted faults", func(t *testing.T) {
		planted := make(map[string]string, len(docs))
		for k, v := range docs {
			planted[k] = v
		}
		planted["README.md"] += "\n`TestNoSuchThing`, `internal/nope.go` and `chirpd -no-such-flag`; see DESIGN.md §99.\n"
		const nameRow = "| `ServerOptions.Name` |"
		if !strings.Contains(planted["DESIGN.md"], nameRow) {
			t.Fatalf("DESIGN.md has no %q knob row to plant faults in", nameRow)
		}
		// One edit plants two faults: a row for a field that does not
		// exist, and no row for one that does. A third is a pull-request
		// number, which is history.
		const history = "PR" + " 7"
		planted["DESIGN.md"] = strings.Replace(planted["DESIGN.md"], nameRow, "| `ServerOptions.Bogus` |", 1) +
			"\nThis landed in " + history + ".\n"
		got := lintDocs(facts, planted)
		wants := []string{"TestNoSuchThing", "internal/nope.go", "-no-such-flag",
			"ServerOptions.Bogus", "ServerOptions.Name", "§99", history}
		for _, want := range wants {
			found := false
			for _, p := range got {
				found = found || strings.Contains(p, want)
			}
			if !found {
				t.Errorf("planted fault %q not reported", want)
			}
		}
		if len(got) != len(wants) {
			t.Errorf("%d planted faults, %d reports:\n%s", len(wants), len(got), strings.Join(got, "\n"))
		}
	})

	t.Run("ci run lists", func(t *testing.T) {
		ci, err := os.ReadFile(".github/workflows/ci.yml")
		if err != nil {
			t.Skip(err)
		}
		for _, p := range lintRunLists(facts, string(ci)) {
			t.Error(p)
		}
		planted := lintRunLists(facts, "go test -run 'TestMux|TestNoSuchThing' ./internal/chirp")
		if len(planted) != 1 || !strings.Contains(planted[0], "TestNoSuchThing") {
			t.Errorf("planted -run alternative: got %q, want one report naming TestNoSuchThing", planted)
		}
	})
}

func readDocs(t *testing.T) map[string]string {
	t.Helper()
	docs := make(map[string]string)
	for _, name := range append(append([]string{}, lintedDocs...), refDocs...) {
		b, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	if docs["DESIGN.md"] == "" {
		t.Fatal("DESIGN.md is missing or empty")
	}
	return docs
}

func loadRepoFacts(t *testing.T) *repoFacts {
	t.Helper()
	f := &repoFacts{
		funcs:      make(map[string]bool),
		paths:      make(map[string]bool),
		bases:      make(map[string]bool),
		flags:      make(map[string]map[string]bool),
		fields:     make(map[string][]string),
		goComments: make(map[string]string),
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		// Hidden directories (.git, build caches) are not the tree,
		// except the two that hold docs and CI.
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") && p != ".claude" && p != ".github" {
			return filepath.SkipDir
		}
		f.paths[p] = true
		if d.IsDir() {
			return nil
		}
		f.bases[d.Name()] = true
		if !strings.HasSuffix(p, ".go") || strings.Contains(p, "testdata/") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var comments strings.Builder
		for _, g := range file.Comments {
			comments.WriteString(g.Text())
		}
		f.goComments[p] = comments.String()
		if !strings.HasSuffix(p, "_test.go") || strings.HasPrefix(p, "benchmark/") {
			return nil
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncRE.MatchString(fn.Name.Name) {
				f.funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, cmd := range flaggedCommands {
		file, err := parser.ParseFile(fset, "cmd/"+cmd+"/main.go", nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		f.flags[cmd] = flagsDefined(file)
	}

	for name, loc := range knobStructs {
		fields, err := exportedFields(fset, loc[0], loc[1])
		if err != nil {
			t.Fatal(err)
		}
		f.fields[name] = fields
	}
	return f
}

// flagsDefined returns the names passed to the flag package's
// definition calls: flag.String("name", ...) or flag.StringVar(&v, "name", ...).
func flagsDefined(file *ast.File) map[string]bool {
	flags := make(map[string]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
		}
		return true
	})
	return flags
}

// exportedFields lists the exported fields of struct typ declared in
// the non-test files of dir.
func exportedFields(fset *token.FileSet, dir, typ string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		var fields []string
		found := false
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok || spec.Name.Name != typ {
				return true
			}
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				return true
			}
			found = true
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						fields = append(fields, id.Name)
					}
				}
			}
			return false
		})
		if found {
			return fields, nil
		}
	}
	return nil, os.ErrNotExist
}

var (
	testFuncRE   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_]`)
	testNameRE   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	spanRE       = regexp.MustCompile("`([^`]+)`")
	flagRE       = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	lineSuffixRE = regexp.MustCompile(`:\d+(-\d+)?$`)
	headingRE    = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	designRefRE  = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)`)
	selfRefRE    = regexp.MustCompile(`§(\d+)`)
	prRE         = regexp.MustCompile(`\bPR \d+`)
	knobRowRE    = regexp.MustCompile("^`((?:[a-z]+\\.)?[A-Z]\\w*)\\.([A-Z]\\w*)`$")
	runFlagRE    = regexp.MustCompile(`-run\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)
)

// lintDocs returns one line per name a doc uses that the tree lacks.
func lintDocs(f *repoFacts, docs map[string]string) []string {
	var probs []string
	report := func(doc, format string, args ...any) {
		probs = append(probs, doc+": "+fmt.Sprintf(format, args...))
	}

	for _, doc := range lintedDocs {
		for _, span := range inlineSpans(docs[doc]) {
			for _, name := range testNameRE.FindAllString(span, -1) {
				if !f.hasFunc(name) {
					report(doc, "`%s` names no Test/Benchmark/Fuzz func outside benchmark/", name)
				}
			}
			fields := strings.Fields(span)
			for _, tok := range fields {
				if p, ok := repoPath(tok); ok && !f.exists(p) {
					report(doc, "`%s` names no file or directory in the tree", p)
				}
			}
			if len(fields) > 0 && f.flags[fields[0]] != nil {
				for _, tok := range fields[1:] {
					if m := flagRE.FindStringSubmatch(tok); m != nil && !f.flags[fields[0]][m[1]] {
						report(doc, "`%s -%s`: cmd/%s/main.go defines no such flag", fields[0], m[1], fields[0])
					}
				}
			}
		}
	}

	design := docs["DESIGN.md"]
	sections := make(map[string]bool)
	var knobs string
	for _, m := range headingRE.FindAllStringSubmatchIndex(design, -1) {
		sections[design[m[2]:m[3]]] = true
		if strings.HasPrefix(design[m[4]:m[5]], "Knobs") {
			knobs = design[m[1]:]
			if next := strings.Index(knobs, "\n## "); next >= 0 {
				knobs = knobs[:next]
			}
		}
	}
	checkRefs := func(doc, text string, re *regexp.Regexp) {
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if !sections[m[1]] {
				report(doc, "%q: DESIGN.md has no \"## %s.\" section", m[0], m[1])
			}
		}
	}
	checkRefs("DESIGN.md", design, selfRefRE)
	for _, doc := range refDocs {
		checkRefs(doc, docs[doc], designRefRE)
	}
	for _, file := range sortedKeys(f.goComments) {
		checkRefs(file, f.goComments[file], designRefRE)
	}

	for _, m := range prRE.FindAllString(design, -1) {
		report("DESIGN.md", "%q: history belongs in CHANGES.md", m)
	}
	if strings.Contains(design, "ROADMAP item") {
		report("DESIGN.md", "cites a ROADMAP item; state the limitation instead")
	}

	if knobs == "" {
		report("DESIGN.md", "no \"## N. Knobs\" section")
		return probs
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(knobs, "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if !strings.HasPrefix(line, "|") || len(cells) == 0 {
			continue
		}
		m := knobRowRE.FindStringSubmatch(strings.TrimSpace(cells[0]))
		if m == nil {
			continue
		}
		key := m[1] + "." + m[2]
		switch {
		case rows[key]:
			report("DESIGN.md", "knob row `%s` appears twice", key)
		case !slices.Contains(f.fields[m[1]], m[2]):
			report("DESIGN.md", "knob row `%s` names no exported field", key)
		case len(cells) < 3 || strings.TrimSpace(cells[len(cells)-1]) == "":
			report("DESIGN.md", "knob row `%s` does not say who sets it", key)
		}
		rows[key] = true
	}
	for _, st := range sortedKeys(f.fields) {
		for _, field := range f.fields[st] {
			if !rows[st+"."+field] {
				report("DESIGN.md", "knob table has no row for `%s.%s`", st, field)
			}
		}
	}
	for _, flag := range sortedKeys(f.flags["chirpd"]) {
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(flag) + `($|[^\w-])`).MatchString(knobs) {
			report("DESIGN.md", "knob table never mentions `chirpd -%s`", flag)
		}
	}
	return probs
}

// lintRunLists returns one line per -run alternative in a CI workflow
// that no Test/Benchmark/Fuzz func matches: a renamed test would
// otherwise drop out of its CI job silently.
func lintRunLists(f *repoFacts, ci string) []string {
	var probs []string
	for _, m := range runFlagRE.FindAllStringSubmatch(ci, -1) {
		for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
			alt, _, _ = strings.Cut(alt, "/")
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				probs = append(probs, fmt.Sprintf("ci.yml: -run alternative %q: %v", alt, err))
				continue
			}
			matched := false
			for name := range f.funcs {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				probs = append(probs, fmt.Sprintf("ci.yml: -run alternative %q matches no Test/Benchmark/Fuzz func", alt))
			}
		}
	}
	return probs
}

// inlineSpans returns the backticked spans of a markdown text, fenced
// code blocks excluded. A span may wrap lines but not cross a blank one.
func inlineSpans(text string) []string {
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose.WriteString(line + "\n")
		}
	}
	var spans []string
	for _, para := range strings.Split(prose.String(), "\n\n") {
		for _, m := range spanRE.FindAllStringSubmatch(para, -1) {
			spans = append(spans, m[1])
		}
	}
	return spans
}

// repoPath reports whether a span token names a repository path, and
// which: internal/, cmd/, examples/ and benchmark/ paths, or a .go file.
func repoPath(tok string) (string, bool) {
	tok = strings.TrimLeft(tok, "(")
	tok = strings.TrimRight(tok, ",.;)")
	tok = lineSuffixRE.ReplaceAllString(tok, "")
	tok = strings.TrimPrefix(tok, "./")
	if strings.ContainsAny(tok, "…<{*") {
		return "", false
	}
	for _, dir := range []string{"internal/", "cmd/", "examples/", "benchmark/"} {
		if strings.HasPrefix(tok, dir) {
			return strings.TrimSuffix(tok, "/"), true
		}
	}
	return tok, strings.HasSuffix(tok, ".go")
}

// exists reports whether p names something in the tree; a bare file
// name may live in any directory.
func (f *repoFacts) exists(p string) bool {
	return f.paths[p] || !strings.Contains(p, "/") && f.bases[p]
}

// hasFunc reports whether name (a trailing * meaning any suffix) is a
// test func.
func (f *repoFacts) hasFunc(name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return f.funcs[name]
	}
	for fn := range f.funcs {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
