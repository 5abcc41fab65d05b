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
	"strconv"
	"strings"
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
	"search.RegisterPolicy":                            "the registry's extension point, which the built-in families register through",
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

// TestPublicAPIHasCallers applies the repository's deletion rule to its
// public packages: every exported function, method and variable of
// pkg/search and pkg/searchclient is used by non-test Go outside its
// own package — a command, internal code, a dbench workload — or by an
// Example whose output `go test` checks. A name neither reaches is
// surface nobody runs: delete it, or add it to apiExempt with the
// reason it stays.
//
// The packages are parsed with go/parser and type-checked with
// go/types, so a reference is a resolved use of that very object, not
// a look-alike name on another type.
func TestPublicAPIHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the tree from source, which takes seconds")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)

	// The exported surface, keyed by the object every use resolves to.
	surface := map[types.Object]string{}
	targets := map[string]bool{}
	for _, path := range apiPackages {
		pkg, err := imp.ImportFrom(path, root, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets[path] = true
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch o := obj.(type) {
			case *types.Func, *types.Var:
				surface[o] = pkg.Name() + "." + name
			case *types.TypeName:
				named, ok := o.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						surface[m] = pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	check := func(dir string, files []*ast.File, counts func(ast.Node) bool) {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for id, obj := range info.Uses {
			if _, ok := surface[obj]; ok && counts(id) {
				used[obj] = true
			}
		}
	}
	// Non-test code counts everywhere; test code only inside an Example
	// with checked output, the public packages' own included.
	for _, top := range []string{"cmd", "internal", "pkg", filepath.Join("benchmarks", "dbench")} {
		err := filepath.WalkDir(filepath.Join(root, top), func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if files := parseDir(t, fset, dir, false, targets); files != nil {
				check(dir, files, func(ast.Node) bool { return true })
			}
			files := parseDir(t, fset, dir, true, targets)
			var examples []*ast.FuncDecl
			for _, f := range files {
				examples = append(examples, checkedExamples(f)...)
			}
			if len(examples) > 0 {
				check(dir, files, func(n ast.Node) bool {
					for _, fn := range examples {
						if fn.Pos() <= n.Pos() && n.End() <= fn.End() {
							return true
						}
					}
					return false
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var missing []string
	names := map[string]bool{}
	for obj, name := range surface {
		names[name] = true
		_, exempt := apiExempt[name]
		switch {
		case !used[obj] && !exempt:
			missing = append(missing, name)
		case used[obj] && exempt:
			t.Errorf("%s has a caller now: drop its apiExempt entry", name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no caller outside its package and no Example with checked output: delete it, or exempt it with a reason", name)
	}
	for name := range apiExempt {
		if !names[name] {
			t.Errorf("apiExempt lists %s, which is not exported any more", name)
		}
	}
}

// parseDir parses the Go files of dir that the default build context
// selects — the non-test files, or with tests the external test
// package's files — and returns them only if one of them imports a
// target package.
func parseDir(t *testing.T, fset *token.FileSet, dir string, tests bool, targets map[string]bool) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	imports := false
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
			t.Fatal(err)
		}
		if tests && !strings.HasSuffix(f.Name.Name, "_test") {
			continue
		}
		for _, spec := range f.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); targets[path] {
				imports = true
			}
		}
		files = append(files, f)
	}
	if !imports {
		return nil
	}
	return files
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
