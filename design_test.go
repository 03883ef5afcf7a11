package acdc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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
