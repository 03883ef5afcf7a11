package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkUsesOnlyStableSurface enforces the rule that lets this
// benchmark outlive the refactors it measures: later changes may not edit
// bench/, so it must not lean on packages the roadmap folds away or on the
// three generations of datapath entry points the roadmap collapses into one.
// The vSwitch is driven through Host.Output and Host.HandlePacket alone.
func TestBenchmarkUsesOnlyStableSurface(t *testing.T) {
	bannedImport := regexp.MustCompile(`^acdc/internal/(benchkit|experiments|scenario)(/|$)`)
	bannedIdent := map[string]bool{
		"Egress": true, "EgressPath": true, "EgressBatch": true,
		"Ingress": true, "IngressPath": true, "IngressBatch": true,
		"PathHook": true, "BatchPathHook": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				// Standard library and this module only: neither has a dot.
				if bannedImport.MatchString(path) || strings.Contains(path, ".") {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && bannedIdent[id.Name] {
					t.Errorf("%s: identifier %s", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
}
