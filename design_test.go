package acdc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designAnchor is one anchor of DESIGN.md's paper ↔ code table: a Go
	// file, then the declarations it holds, in parentheses.
	designAnchor = regexp.MustCompile("`([\\w./-]+\\.go)` \\(([^)]*)\\)")
	designFile   = regexp.MustCompile("`[^`]+\\.go(:[0-9]+)?`")
	designName   = regexp.MustCompile("`([\\w.]+)`")

	// codeSpan is one inline code span; citedTest a test, benchmark or fuzz
	// target named in one.
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	citedTest = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)`)
)

// TestDesignAnchorsResolve holds DESIGN.md's paper ↔ code table to its
// anchors: each cites a file with the declarations it holds, never a line
// number, and every named declaration is in that file — a function, type,
// variable or constant by its name, a method as Recv.Name.
func TestDesignAnchorsResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## 2a.")
	if !ok {
		t.Fatal(`DESIGN.md has no "## 2a." section`)
	}
	table, _, _ = strings.Cut(table, "\n#")
	decls := map[string]map[string]bool{}
	checked := 0
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			continue
		}
		cell := cells[len(cells)-2]
		anchors := designAnchor.FindAllStringSubmatch(cell, -1)
		if files := designFile.FindAllString(cell, -1); len(files) != len(anchors) {
			t.Errorf("anchor cell %q: every file must be followed by its declarations in parentheses, with no line number", cell)
			continue
		}
		for _, a := range anchors {
			file := a[1]
			if decls[file] == nil {
				decls[file] = declaredNames(t, file)
			}
			for _, n := range designName.FindAllStringSubmatch(a[2], -1) {
				if checked++; !decls[file][n[1]] {
					t.Errorf("DESIGN.md anchors %s in %s, which does not declare it", n[1], file)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("checked %d anchors; the paper ↔ code table has more", checked)
	}
}

// declaredNames parses a Go file and returns the names it declares at top
// level, methods both bare and as Recv.Name.
func declaredNames(t *testing.T, file string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("DESIGN.md anchors %s: %v", file, err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				names[recv.(*ast.Ident).Name+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// TestDocsCiteLiveTests: every test, benchmark or fuzz target the documents
// name in a code span is declared by some _test.go file of either module, so
// a deleted test cannot go on vouching for what it once measured. A span with
// a * names a family, not one test, and is skipped; ROADMAP.md (plans) and
// CHANGES.md (history) may name tests that do not exist yet or any more.
func TestDocsCiteLiveTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md", "EXPERIMENTS.md", "SCENARIOS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(string(text), -1) {
			if strings.Contains(span, "*") {
				continue
			}
			for _, m := range citedTest.FindAllStringSubmatch(span, -1) {
				if checked++; !declared[m[1]] {
					t.Errorf("%s cites %s, which no _test.go declares", doc, m[1])
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("checked %d citations; the documents make more", checked)
	}
}
