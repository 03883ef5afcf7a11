package acdc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllow holds the declarations TestNoDeadExports accepts although no
// program reaches them, each with its reason: surface that other packages'
// tests need and that cannot live in a _test.go file, which only its own
// package's tests see. Keys are as the test prints them.
var deadAllow = map[string]string{
	"internal/cc.DCTCP.Alpha":               "tcpstack's light-marking test reads the guest's α through an interface",
	"internal/core.VSwitch.PolicyOverrides": "the daemon's policy fuzz checks every stored override",
	"internal/daemon.Client.WithToken":      "the only way the Client authenticates to a daemon started with acdcd's -admin-token",
	"internal/netsim.Link.AvgQueueBytes":    "tcpstack's Figure 2 contrast test compares the bottleneck's time-averaged queue under DCTCP and CUBIC",
	"internal/netsim.Link.QueueBytes":       "tcpstack's TSQ test samples the NIC's queue",
	"internal/packet.Build":                 "the tests' one-line packet constructor (BuildIn without a pool): core's, netsim's, tcpstack's, soak's and five other packages' tests build packets with it",
	"internal/packet.IPv4.VerifyChecksum":   "the header checksum check core's, faults' and netsim's tests hold rewritten packets to",
	"internal/sim.Slots.Check":              "the shape check core's flow table and tcpstack's TIME_WAIT table tests run over their Slots",
	"internal/sim.Slots.Home":               "tcpstack's TIME_WAIT test finds colliding keys by their home slot; Check uses it too",
	"internal/tcpstack.Conn.SndWnd":         "core's RWND-rewrite test reads the window the guest sees",
	"internal/tcpstack.Stack.ConnRecords":   "the root package's TIME_WAIT pin counts the Conn records a stack holds",
}

// TestNoDeadExports fails on every package-level function, method, type or
// constant of the module that no program reaches: what only tests call
// belongs in a _test.go file, and what nothing calls goes. The bench/
// module, tests included, counts as a program (bench/README.md's surface).
func TestNoDeadExports(t *testing.T) {
	dead, err := findDead(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unallowed(dead, deadAllow, "deadAllow",
		"is reached by no program: delete it, move it into a _test.go file, or allow-list it with a reason") {
		t.Error(msg)
	}
}

// knobAllow holds the config fields TestNoDeadKnobs accepts although only
// tests set them, each with the behaviour a test or benchmark needs another
// value to show. Keys are as the test prints them.
var knobAllow = map[string]string{
	"internal/core.Config.CutEveryAck":    "DESIGN.md §5's cut-guard ablation benchmark runs without Figure 5's once-per-window cut guard",
	"internal/core.Config.DisablePACK":    "DESIGN.md §5's PACK-vs-FACK ablation benchmark and core's FACK-only test send all feedback in dedicated packets",
	"internal/core.Config.GenDupAcks":     "§3.3's synthesized dup-ACKs: core's dup-ACK tests show a guest whose RTO sits far above the vSwitch's timer recover by fast retransmit",
	"internal/core.Config.MaxFlows":       "eviction and fail-open at a full flow table show only at a bound the table reaches; the figures run unbounded",
	"internal/core.Config.Police":         "§3.3's policing shows only against a guest that ignores the RWND (core's policing tests, the policing ablation benchmark)",
	"internal/tcpstack.Config.IgnoreRwnd": "the non-conforming guest that §3.3's policing exists for; no figure runs one",
	"internal/tcpstack.Config.RTOMin":     "core's §3.3 dup-ACK test needs a guest RTO far above the vSwitch's timer",
	"internal/tcpstack.Config.RcvBuf":     "tcpstack's zero-window and flow-control tests need a peer that advertises less than one MSS, which AC/DC's RWND rewrite also produces in product",
	"internal/tcpstack.Config.SACK":       "the NewReno recovery a peer without SACK gets (a fault profile's option strip produces one); tcpstack's recovery and negotiation tests compare both",
}

// TestNoDeadKnobs fails on every field of a …Config or Options struct of
// the module that no program outside the declaring package writes: a value
// nothing sets is a constant. knobAllow names the fields only tests set.
func TestNoDeadKnobs(t *testing.T) {
	dead, err := findDeadKnobs(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unallowed(dead, knobAllow, "knobAllow",
		"is written by no program: make it a constant, or allow-list it with the behaviour a test needs another value to show") {
		t.Error(msg)
	}
}

// unallowed returns one message for each found declaration allow does not
// name, and one for each entry of allow that names none of them.
func unallowed(found []deadDecl, allow map[string]string, allowName, why string) []string {
	var msgs []string
	seen := make(map[string]bool)
	for _, d := range found {
		if _, ok := allow[d.name]; ok {
			seen[d.name] = true
			continue
		}
		msgs = append(msgs, fmt.Sprintf("%s: %s %s", d.pos, d.name, why))
	}
	var stale []string
	for name := range allow {
		if !seen[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		msgs = append(msgs, fmt.Sprintf("%s names %s, which a program uses or which is gone: drop the entry", allowName, name))
	}
	return msgs
}

// TestDeadFinderFixture runs the finder over testdata/deadexports, whose
// planted dead function and its helper, planted interface method that no
// program calls with its one implementation, and planted method that shares
// a reached interface method's name but not its signature must be all it
// reports: a generic method called through an instantiation, a method
// reached only through an interface, one reached only through the
// universe's error and one promoted through an embedded struct are used.
func TestDeadFinderFixture(t *testing.T) {
	dead, err := findDead(filepath.Join("testdata", "deadexports"), "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deadNames(dead), "lib.Gauge.Area lib.Shape.Perimeter lib.Square.Perimeter lib.Unused lib.helper"; got != want {
		t.Errorf("dead = %s, want %s", got, want)
	}
}

// TestKnobFinderFixture runs the knob finder over testdata/deadexports,
// whose config has one field written as a composite-literal key, one by
// assignment, one through its address, and the planted knob, which only
// its own package writes: that must be all it reports. An allow-list entry
// for a written field, or for a field that is gone, is reported as stale.
func TestKnobFinderFixture(t *testing.T) {
	dead, err := findDeadKnobs(filepath.Join("testdata", "deadexports"), "")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deadNames(dead), "lib.Config.Depth"; got != want {
		t.Fatalf("dead knobs = %s, want %s", got, want)
	}
	msgs := unallowed(dead, map[string]string{"lib.Config.Depth": "", "lib.Config.Rate": "", "lib.Config.Gone": ""}, "allow", "")
	if len(msgs) != 2 || !strings.Contains(msgs[0], "lib.Config.Gone") || !strings.Contains(msgs[1], "lib.Config.Rate") {
		t.Errorf("stale entries reported as %q, want lib.Config.Gone and lib.Config.Rate", msgs)
	}
}

// deadNames joins the names of found declarations.
func deadNames(found []deadDecl) string {
	var names []string
	for _, d := range found {
		names = append(names, d.name)
	}
	return strings.Join(names, " ")
}

// deadDecl is one declaration no program reaches.
type deadDecl struct {
	name string // package path within the module, then Name or Recv.Name
	pos  token.Position
}

// deadPkg is one package as the finder loads it.
type deadPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	user  bool // every reference from its files is a use: not itself checked
}

// deadFinder type-checks the module's packages from source, once each, so
// that a declaration is one object whichever package refers to it (the
// standard library comes from the "source" importer), and keeps the
// reference graph over their package-level functions, methods, types and
// constants.
type deadFinder struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*deadPkg
	decls map[types.Object]bool
	edges map[types.Object][]types.Object // nil key: the roots
	// impls holds, for each method of a package-level interface of the
	// module, the methods of its name and signature: each is reached once
	// both the interface method and its receiver's type are.
	impls map[types.Object][]types.Object
}

// findDead type-checks every non-test package of the module at root, and
// every file of the user module in root/users when users is not empty, and
// returns the declarations that no main, init, package-level variable or
// user-module file reaches, sorted by name. A method of a package-level
// interface of the module is a declaration too: a program reaches it by
// calling it through the interface or on any implementation. A method is
// reached from its receiver's type when such an interface method of its name
// and signature is reached, or when another interface may call it: one
// declared inside a function or type of the module with a method of its
// name, or an imported one (the universe's error included) with a method of
// its name and signature.
func findDead(root, users string) ([]deadDecl, error) {
	g, modPath, paths, err := loadModule(root, users)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		g.addPackage(g.pkgs[path])
	}
	g.addInterfaceEdges()

	reached := make(map[types.Object]bool)
	for stack := g.edges[nil]; len(stack) > 0; {
		for len(stack) > 0 {
			obj := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !reached[obj] {
				reached[obj] = true
				stack = append(stack, g.edges[obj]...)
			}
		}
		for m, impls := range g.impls {
			if !reached[m] {
				continue
			}
			for _, impl := range impls {
				if !reached[impl] && reached[deadRecv(impl)] {
					stack = append(stack, impl)
				}
			}
		}
	}
	var dead []deadDecl
	for obj := range g.decls {
		if reached[obj] {
			continue
		}
		name := obj.Name()
		if recv := deadRecv(obj); recv != nil {
			name = recv.Name() + "." + name
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), modPath), "/")
		pos := g.fset.Position(obj.Pos())
		if r, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = r
		}
		dead = append(dead, deadDecl{name: rel + "." + name, pos: pos})
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

// loadModule type-checks every non-test package of the module at root, and
// every file of the user module in root/users when users is not empty. It
// returns the module's path and the packages' paths, sorted.
func loadModule(root, users string) (*deadFinder, string, []string, error) {
	g := &deadFinder{fset: token.NewFileSet(), pkgs: make(map[string]*deadPkg),
		decls: make(map[types.Object]bool), edges: make(map[types.Object][]types.Object)}
	g.std = importer.ForCompiler(g.fset, "source", nil).(types.ImporterFrom)
	modPath, err := g.addModule(root, false)
	if err != nil {
		return nil, "", nil, err
	}
	if users != "" {
		if _, err := g.addModule(filepath.Join(root, users), true); err != nil {
			return nil, "", nil, err
		}
	}
	paths := make([]string, 0, len(g.pkgs))
	for path := range g.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := g.ImportFrom(path, "", 0); err != nil {
			return nil, "", nil, err
		}
	}
	return g, modPath, paths, nil
}

// addModule parses the packages of the module in dir (its go.mod names the
// path), skipping testdata, hidden directories and nested modules. A user
// module's test files count; the checked module's do not.
func (g *deadFinder) addModule(dir string, user bool) (string, error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", fmt.Errorf("%s/go.mod names no module", dir)
	}
	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if path != dir {
			if n := e.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		p := &deadPkg{user: user}
		for _, f := range entries {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".go") || (!user && strings.HasSuffix(name, "_test.go")) {
				continue
			}
			if ok, err := build.Default.MatchFile(path, name); err != nil || !ok {
				continue
			}
			file, err := parser.ParseFile(g.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		if len(p.files) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(dir, path)
		p.path = modPath
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		g.pkgs[p.path] = p
		return nil
	})
	return modPath, err
}

func (g *deadFinder) Import(path string) (*types.Package, error) {
	return g.ImportFrom(path, "", 0)
}

// ImportFrom type-checks a module package on first use and hands the
// standard library to the source importer.
func (g *deadFinder) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := g.pkgs[path]
	if !ok {
		return g.std.ImportFrom(path, dir, mode)
	}
	if p.pkg == nil {
		p.info = &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
		pkg, err := (&types.Config{Importer: g}).Check(path, g.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// addPackage records p's declarations and what each refers to. A main or
// init function, a package-level variable and every declaration of a user
// package refer from the roots.
func (g *deadFinder) addPackage(p *deadPkg) {
	decl := func(id *ast.Ident) types.Object {
		obj := p.info.Defs[id]
		if p.user || obj == nil || id.Name == "_" {
			return nil
		}
		g.decls[obj] = true
		return obj
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				var from types.Object
				if d.Recv != nil || d.Name.Name != "init" && (d.Name.Name != "main" || p.pkg.Name() != "main") {
					from = decl(d.Name)
				}
				g.refs(p, from, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.refs(p, decl(s.Name), s)
						if it, ok := s.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									decl(id)
								}
							}
						}
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							g.refs(p, nil, s)
							continue
						}
						for _, id := range s.Names {
							c := decl(id)
							g.refs(p, c, s)
							// A repeated iota line names no type: its constant uses one.
							if n, ok := p.info.Defs[id].Type().(*types.Named); ok && c != nil {
								g.edge(c, n.Obj())
							}
						}
					}
				}
			}
		}
	}
}

// refs adds an edge from from to every declaration node refers to.
func (g *deadFinder) refs(p *deadPkg, from types.Object, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil {
				g.edge(from, obj)
			}
		}
		return true
	})
}

// edge records that from refers to to, a generic method by its origin: a
// call through an instantiation uses the method of the instantiated type.
func (g *deadFinder) edge(from, to types.Object) {
	if f, ok := to.(*types.Func); ok {
		to = f.Origin()
	}
	if to.Pkg() != nil && g.pkgs[to.Pkg().Path()] != nil {
		g.edges[from] = append(g.edges[from], to)
	}
}

// addInterfaceEdges adds an edge from a method's receiver type to the
// method when an interface other than a package-level one of the module may
// call it, and records the rest in impls (see findDead). A method with an
// interface method's name and signature reaches the interface method.
func (g *deadFinder) addInterfaceEdges() {
	names := make(map[string]bool)
	sigs := make(map[string][]types.Type)
	// The universe's error interface belongs to no package the walk visits.
	errMethod := types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)
	sigs[errMethod.Name()] = []types.Type{errMethod.Type()}
	seen := make(map[*types.Package]bool)
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] || g.pkgs[pkg.Path()] != nil {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if iface, ok := scope.Lookup(n).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					sigs[m.Name()] = append(sigs[m.Name()], m.Type())
				}
			}
		}
	}
	for _, p := range g.pkgs {
		for _, imp := range p.pkg.Imports() {
			walk(imp)
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && !g.declaredIface(p, it) {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	ifaceMethods := make(map[string][]types.Object)
	for obj := range g.decls {
		if recv := deadRecv(obj); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods[obj.Name()] = append(ifaceMethods[obj.Name()], obj)
		}
	}
	g.impls = make(map[types.Object][]types.Object)
	for obj := range g.decls {
		recv := deadRecv(obj)
		if recv == nil || types.IsInterface(recv.Type()) {
			continue
		}
		for _, m := range ifaceMethods[obj.Name()] {
			if types.Identical(m.Type(), obj.Type()) {
				g.impls[m] = append(g.impls[m], obj)
				g.edges[obj] = append(g.edges[obj], m)
			}
		}
		match := names[obj.Name()]
		for _, sig := range sigs[obj.Name()] {
			match = match || types.Identical(sig, obj.Type())
		}
		if match {
			g.edges[recv] = append(g.edges[recv], obj)
		}
	}
}

// declaredIface reports whether it is the type of a package-level type
// declaration of p, whose methods addPackage made declarations of their own.
func (g *deadFinder) declaredIface(p *deadPkg, it *ast.InterfaceType) bool {
	for _, m := range it.Methods.List {
		if len(m.Names) > 0 {
			return g.decls[p.info.Defs[m.Names[0]]]
		}
	}
	return false
}

// deadRecv returns the type name a method is declared on, or nil for
// anything but a method.
func deadRecv(obj types.Object) *types.TypeName {
	f, ok := obj.(*types.Func)
	if !ok || f.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// findDeadKnobs returns the fields of the module's package-level …Config and
// Options structs that no non-test file of another package writes, by
// assignment, as a composite-literal key or by taking the field's address;
// the user module's non-test files count as writers. Names are as findDead
// prints them, with the struct's name before the field's.
func findDeadKnobs(root, users string) ([]deadDecl, error) {
	g, modPath, paths, err := loadModule(root, users)
	if err != nil {
		return nil, err
	}
	fields := make(map[*types.Var]string)
	written := make(map[*types.Var]bool)
	for _, path := range paths {
		p := g.pkgs[path]
		if !p.user {
			scope := p.pkg.Scope()
			rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
			for _, n := range scope.Names() {
				tn, ok := scope.Lookup(n).(*types.TypeName)
				if !ok || !strings.HasSuffix(n, "Config") && n != "Options" {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					fields[st.Field(i)] = rel + "." + n + "." + st.Field(i).Name()
				}
			}
		}
		// write marks the field e selects, when another package declares it.
		write := func(e ast.Expr) {
			e = ast.Unparen(e)
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
					written[v] = true
				}
			}
		}
		for _, f := range p.files {
			if strings.HasSuffix(g.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						write(l)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.KeyValueExpr:
					write(n.Key)
				}
				return true
			})
		}
	}
	var dead []deadDecl
	for v, name := range fields {
		if !written[v] {
			pos := g.fset.Position(v.Pos())
			if r, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = r
			}
			dead = append(dead, deadDecl{name: name, pos: pos})
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}
