package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed lists exported functions and methods under internal/
// that no non-test code uses but that stay on purpose, keyed
// "pkg.Recv.Func" (or "pkg.Func"). Every entry says why.
var unreferencedAllowed = map[string]string{
	// The incremental-vs-rebuild switch for the speedup report and the
	// mixed-workload benchmarks; it goes with them (ROADMAP item 1(a)).
	"plusql.Engine.SetIncremental": "test-only switch for the incremental speedup report",
}

// interfaceMethods are method names that satisfy a standard-library
// interface (fmt.Stringer, error, json.Marshaler, http.Handler, sort and
// heap, io, errors.Is/As/Unwrap). They are called through the interface,
// so no identifier names them.
var interfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// TestNoUnreferencedExports keeps code that no production path calls from
// accumulating: every exported function or method under internal/ must be
// named by some non-test file of the module (cmd/ and examples/ count), or
// be listed in unreferencedAllowed with a reason.
func TestNoUnreferencedExports(t *testing.T) {
	dead, stale := unreferencedExports(t, ".")
	for _, name := range dead {
		t.Errorf("%s: exported under internal/ but no non-test code uses it; delete it, move it into the test that uses it, or allowlist it with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("allowlist entry %s: no reason given, or no such unreferenced export; fix or drop the entry", name)
	}
}

// unreferencedExports parses every non-test Go file below root and returns
// the exported functions and methods under internal/ whose name no
// identifier uses, outside the allowlist, plus the allowlist entries that
// name nothing unreferenced or give no reason.
func unreferencedExports(t *testing.T, root string) (dead, stale []string) {
	t.Helper()
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct {
		key  string
		name string
	}
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				if interfaceMethods[fd.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if used[d.name] {
			continue
		}
		if _, ok := unreferencedAllowed[d.key]; !ok {
			dead = append(dead, d.key)
		}
	}
	for key, reason := range unreferencedAllowed {
		if reason == "" || !seen[key] || used[key[strings.LastIndex(key, ".")+1:]] {
			stale = append(stale, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// recvName is the receiver's type name, without pointer or type arguments.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
