package acdc

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// TestMetricSeriesWritten fails on a metric series that nothing but tests
// updates: a struct field of the module holding a metrics Counter,
// LazyCounter, Gauge or Histogram, by value or by pointer, with no call of
// its Add, Inc, Set or Observe in non-test code. Such a series reads 0 in
// every run and shows nothing: delete it. The fields are found from source,
// as TestNoDeadExports finds declarations, so DatapathMetrics' series, the
// fault injector's and the fault domains' are all covered.
func TestMetricSeriesWritten(t *testing.T) {
	g, modPath, paths, err := loadModule(".", "")
	if err != nil {
		t.Fatal(err)
	}
	instrument := func(typ types.Type) bool {
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		n, ok := typ.(*types.Named)
		if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != modPath+"/internal/metrics" {
			return false
		}
		switch n.Obj().Name() {
		case "Counter", "LazyCounter", "Gauge", "Histogram":
			return true
		}
		return false
	}
	declared := make(map[*types.Var]bool)
	written := make(map[*types.Var]bool)
	for _, path := range paths {
		p := g.pkgs[path]
		for _, obj := range p.info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && instrument(v.Type()) {
				declared[v] = true
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if field, ok := method.X.(*ast.SelectorExpr); ok {
					switch method.Sel.Name {
					case "Add", "Inc", "Set", "Observe":
						if v, ok := p.info.Uses[field.Sel].(*types.Var); ok {
							written[v] = true
						}
					}
				}
				return true
			})
		}
	}
	var names []string
	for v := range declared {
		names = append(names, v.Name())
		if !written[v] {
			t.Errorf("%s: metric series %s is updated by no non-test code: delete it", g.fset.Position(v.Pos()), v.Name())
		}
	}
	sort.Strings(names)
	t.Logf("%d series found", len(names))
	// The finder must see the series it guards: one of each owner's.
	for _, want := range []string{"FailOpen", "EgressSegs", "drops", "linkDowns"} {
		if i := sort.SearchStrings(names, want); i == len(names) || names[i] != want {
			t.Errorf("found %d series, not %s: the finder is broken", len(names), want)
		}
	}
}
