package repro

import (
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
	"sync"
	"testing"
)

// apiPackages are the public packages whose exported surface must pay
// for itself.
var apiPackages = []string{"repro/pkg/search", "repro/pkg/searchclient"}

// apiExempt lists the exported names that stay without a caller outside
// their package, each with the reason it stays. Names are spelled
// "<package>.<Func|Var>" or "<package>.<Type>.<Method>".
var apiExempt = map[string]string{
	"search.ErrSaturatorClosed":                        "the sentinel callers test Saturator.Run against after Close",
	"searchclient.ErrCircuitOpen":                      "the sentinel callers test for a fast-failed call",
	"searchclient.Error.Error":                         "implements error; callers reach it through the interface",
	"searchclient.Error.Temporary":                     "how a caller that retries on its own classifies a daemon refusal",
	"searchclient.WithHTTPClient":                      "substitutes the transport: custom timeouts, and the fakes the client tests script",
	"searchclient.WithRetry":                           "sets the retry budget; tests turn retrying off to observe single attempts",
	"searchclient.Client.Pause":                        "client of the daemon's POST /v1/control/pause; its lifecycle tests drive it",
	"searchclient.Client.Resume":                       "client of the daemon's POST /v1/control/resume; its lifecycle tests drive it",
	"searchclient.Client.Crash":                        "client of the daemon's POST /v1/control/crash; its chaos tests drive it",
	"searchclient.Client.Restart":                      "client of the daemon's POST /v1/control/restart; its chaos tests drive it",
	"searchclient.BatchQueryResponse.BatchStatusError": "folds per-item failures into one *Error; the daemon's batch tests use it",
}

// internalExempt lists the exported functions and methods of internal/
// that stay without a non-test caller, each with the reason it stays.
// Names are spelled as in apiExempt.
var internalExempt = map[string]string{
	"daemon.Server.FaultStats":       "test harness: the chaos tests read the fault plane's counters through it",
	"daemon.World.QueryPlan":         "test harness: the deterministic query plan the daemon tests replay against a cluster",
	"faults.GenCrashSchedule":        "test harness: the seeded crash scripts the chaos tests play",
	"faults.Schedule.Run":            "test harness: plays a crash script against a daemon in wall-clock time",
	"faults.Transport.DecisionTrace": "test harness: renders a link's seeded fault decisions for the determinism tests",
	"live.ChanTransport.Unregister":  "test harness: removes an inbox to make a peer unreachable",
	"rng.Zipf.CDF":                   "reference: the closed-form distribution the sampler's tests compare against",
	"rng.Zipf.P":                     "reference: the closed-form probabilities the sampler's tests compare against",
	"topology.FreezeView":            "reference: the generic freeze the CSR and snapshot tests compare against",
	"trace.Buffer.Events":            "test harness: what tests read back from the in-memory sink",
	"trace.ReadJSONL":                "reference: decodes the JSONL sink's output for the round-trip tests",
}

// TestPublicAPIHasCallers applies the repository's deletion rule to its
// public packages: every exported function, method and variable of
// pkg/search and pkg/searchclient is used by non-test Go outside its
// own package — a command, internal code, a dbench workload — or by an
// Example whose output `go test` checks. A name neither reaches is
// surface nobody runs: delete it, or add it to apiExempt with the
// reason it stays.
func TestPublicAPIHasCallers(t *testing.T) {
	tree := scanTree(t)
	surface := map[string]string{}
	for _, path := range apiPackages {
		pkg := tree.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch o := obj.(type) {
			case *types.Func, *types.Var:
				surface[useKey(o)] = pkg.Name() + "." + name
			case *types.TypeName:
				for _, m := range exportedMethods(o) {
					surface[useKey(m)] = pkg.Name() + "." + name + "." + m.Name()
				}
			}
		}
	}
	checkSurface(t, surface, apiExempt, "apiExempt", func(key string) bool {
		return tree.outside[key] || tree.example[key]
	}, "has no caller outside its package and no Example with checked output")
}

// TestInternalHasCallers applies the same rule to internal/: every
// exported function and method there has a non-test use somewhere in
// the module — its own package, another internal package, a command or
// a dbench workload. A method that satisfies an interface method of the
// same name and signature counts as used, since callers reach it
// through the interface. Anything else is deleted, or listed in
// internalExempt with the reason it stays.
func TestInternalHasCallers(t *testing.T) {
	tree := scanTree(t)
	surface := map[string]string{}
	var paths []string
	for path := range tree.pkgs {
		if strings.HasPrefix(path, "repro/internal/") {
			paths = append(paths, path)
		}
	}
	for _, path := range paths {
		pkg := tree.pkgs[path]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch o := obj.(type) {
			case *types.Func:
				surface[useKey(o)] = pkg.Name() + "." + name
			case *types.TypeName:
				for _, m := range exportedMethods(o) {
					if !tree.satisfiesInterface(o, m) {
						surface[useKey(m)] = pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}
	checkSurface(t, surface, internalExempt, "internalExempt", func(key string) bool {
		return tree.inside[key]
	}, "has no non-test caller in the module")
}

// checkSurface reports every surface name that is neither used nor
// exempt, every exempt name that is used, and every exempt name that
// no longer exists.
func checkSurface(t *testing.T, surface map[string]string, exempt map[string]string, exemptName string, used func(key string) bool, missingWhy string) {
	t.Helper()
	var missing []string
	names := map[string]bool{}
	for key, name := range surface {
		names[name] = true
		_, isExempt := exempt[name]
		switch {
		case !used(key) && !isExempt:
			missing = append(missing, name)
		case used(key) && isExempt:
			t.Errorf("%s has a caller now: drop its %s entry", name, exemptName)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s %s: delete it, or exempt it with a reason", name, missingWhy)
	}
	for name := range exempt {
		if !names[name] {
			t.Errorf("%s lists %s, which is not exported any more", exemptName, name)
		}
	}
}

// tree is every resolved use of a module function, method or variable,
// keyed by useKey. The packages are parsed with go/parser and
// type-checked with go/types, so a use is a reference to that very
// object, not a look-alike name on another type.
type tree struct {
	pkgs       map[string]*types.Package // the module's importable packages, by path
	interfaces []*types.Interface        // every named interface those packages and their imports declare
	inside     map[string]bool           // a non-test use anywhere
	outside    map[string]bool           // a non-test use from another package
	example    map[string]bool           // a use inside an Example with checked output
}

var (
	scanOnce sync.Once
	scanned  *tree
	scanErr  string
)

// scanTree type-checks the module once per test binary and returns the
// uses it found; skipped under -short.
func scanTree(t *testing.T) *tree {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the tree from source, which takes seconds")
	}
	scanOnce.Do(func() {
		scanned, scanErr = buildTree()
	})
	if scanErr != "" {
		t.Fatal(scanErr)
	}
	return scanned
}

func buildTree() (*tree, string) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err.Error()
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	tr := &tree{
		pkgs:    map[string]*types.Package{},
		inside:  map[string]bool{},
		outside: map[string]bool{},
		example: map[string]bool{},
	}
	check := func(path string, files []*ast.File, counts func(ast.Node) bool, example bool) error {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			return err
		}
		for id, obj := range info.Uses {
			key := useKey(obj)
			switch {
			case key == "" || !counts(id):
			case example:
				tr.example[key] = true
			default:
				tr.inside[key] = true
				if obj.Pkg().Path() != path {
					tr.outside[key] = true
				}
			}
		}
		return nil
	}
	always := func(ast.Node) bool { return true }
	for _, top := range []string{"cmd", "internal", "pkg", filepath.Join("benchmarks", "dbench")} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			path := "repro/" + filepath.ToSlash(rel)
			files, err := parseDir(fset, dir, false)
			if err != nil || files == nil {
				return err
			}
			if files[0].Name.Name != "main" {
				pkg, err := imp.ImportFrom(path, root, 0)
				if err != nil {
					return err
				}
				tr.pkgs[path] = pkg
			}
			if err := check(path, files, always, false); err != nil {
				return err
			}
			// Test code counts only inside an Example with checked
			// output, in the external test package.
			files, err = parseDir(fset, dir, true)
			if err != nil {
				return err
			}
			var examples []*ast.FuncDecl
			for _, f := range files {
				examples = append(examples, checkedExamples(f)...)
			}
			if len(examples) == 0 {
				return nil
			}
			return check(path+"_test", files, func(n ast.Node) bool {
				for _, fn := range examples {
					if fn.Pos() <= n.Pos() && n.End() <= fn.End() {
						return true
					}
				}
				return false
			}, true)
		})
		if err != nil {
			return nil, err.Error()
		}
	}
	seen := map[*types.Package]bool{}
	var collect func(*types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if o, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := o.Type().Underlying().(*types.Interface); ok {
					tr.interfaces = append(tr.interfaces, iface)
				}
			}
		}
		for _, dep := range pkg.Imports() {
			collect(dep)
		}
	}
	for _, pkg := range tr.pkgs {
		collect(pkg)
	}
	return tr, ""
}

// satisfiesInterface reports whether m, a method of the type named by
// o, is the implementation of some interface's method of that name.
func (tr *tree) satisfiesInterface(o *types.TypeName, m *types.Func) bool {
	named := o.Type().(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range tr.interfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// exportedMethods returns the exported methods declared on the type
// named by o.
func exportedMethods(o *types.TypeName) []*types.Func {
	named, ok := o.Type().(*types.Named)
	if !ok {
		return nil
	}
	var out []*types.Func
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Exported() {
			out = append(out, m)
		}
	}
	return out
}

// useKey names a package-level function or variable, or a method of a
// named type, the same way whichever type-check produced the object:
// "<path>.<Name>" or "<path>.<Type>.<Method>". Anything else (struct
// fields, locals, interface methods, builtins) gets "".
func useKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return o.Pkg().Path() + "." + o.Name()
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			if _, isIface := n.Underlying().(*types.Interface); !isIface {
				return o.Pkg().Path() + "." + n.Obj().Name() + "." + o.Name()
			}
		}
	case *types.Var:
		if !o.IsField() && o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

// parseDir parses the Go files of dir that the default build context
// selects: the non-test files, or with tests the external test
// package's files. It returns nil when there are none.
func parseDir(fset *token.FileSet, dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if tests && !strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		files = append(files, f)
	}
	return files, nil
}

// checkedExamples returns f's Example functions that end in an
// "Output:" comment, which `go test` runs and compares.
func checkedExamples(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Example") {
			continue
		}
		for _, cg := range f.Comments {
			if fn.Body.Pos() < cg.Pos() && cg.End() < fn.Body.End() &&
				strings.HasPrefix(strings.TrimSpace(cg.Text()), "Output:") {
				out = append(out, fn)
				break
			}
		}
	}
	return out
}
