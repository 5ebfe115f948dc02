package main

// The repository lints that need one parse of the whole tree: the
// dead-code gate over internal/ and the package-doc rule. Both read
// only non-test files, parsed once by go/parser.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadcodeAllow names the declarations under internal/ that no
// non-test file calls, each with its role. An oracle is an independent
// reference that tests hold production answers to; a fixture builds
// analytic test graphs for more than one package's tests. Keys are
// the package path below internal/, then the name, with a method's
// receiver type between them.
var deadcodeAllow = map[string]string{
	"spectral.DenseSLEM":               "oracle",
	"spectral.Operator.TopEigenvector": "oracle",
	"walk.Random":                      "oracle",
	"gen.Ring":                         "fixture",
	"gen.Path":                         "fixture",
	"gen.Star":                         "fixture",
	"gen.Grid":                         "fixture",
	"gen.Barbell":                      "fixture",
	"gen.Hypercube":                    "fixture",
	"gen.ErdosRenyiM":                  "fixture",
}

// stdlibMethods are method names the standard library calls through
// its own interfaces (fmt, errors, encoding/json and encoding,
// net/http, sort, container/heap, io), so a method with one of these
// names is live although no file in the tree selects it.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
	"Len":       true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// lintReport is what one pass over a tree finds.
type lintReport struct {
	Dead         []string // declarations under internal/ with no non-test caller
	Stale        []string // allowlist entries that name no dead declaration
	Undocumented []string // package directories without a package doc comment
}

// declaration is one top-level name declared under internal/.
type declaration struct {
	dir, recv, name string
}

func (d declaration) key() string {
	k := strings.TrimPrefix(d.dir, "internal/") + "."
	if d.recv != "" {
		k += d.recv + "."
	}
	return k + d.name
}

// treeRefs is every reference the non-test files of a tree make.
type treeRefs struct {
	names   map[string]bool // "dir.Name" used outside its own declaration
	sels    map[string]bool // names selected as x.Name, outside a method of that name
	aliased map[string]bool // "dir.Type" re-exported by a root `type X = pkg.Type`
}

// lintTree parses every non-test Go file under root, a module whose
// path is module, skipping testdata and dot directories, and checks
// both rules. allow is the dead-code allowlist.
func lintTree(root, module string, allow map[string]string) (lintReport, error) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		pkgs[dir] = append(pkgs[dir], f)
		return nil
	})
	if err != nil {
		return lintReport{}, err
	}

	var rep lintReport
	pkgName := map[string]string{} // import path -> package name
	for dir, files := range pkgs {
		pkgName[importPath(module, dir)] = files[0].Name.Name
		documented := false
		for _, f := range files {
			documented = documented || f.Doc != nil
		}
		if !documented {
			rep.Undocumented = append(rep.Undocumented, dir)
		}
	}

	refs := treeRefs{names: map[string]bool{}, sels: map[string]bool{}, aliased: map[string]bool{}}
	var decls []declaration
	for dir, files := range pkgs {
		for _, f := range files {
			imports := fileImports(f, module, pkgName)
			for _, d := range f.Decls {
				own := declsOf(dir, d)
				if strings.HasPrefix(dir, "internal/") {
					decls = append(decls, own...)
				}
				collectRefs(&refs, dir, imports, d, own)
			}
		}
	}

	seen := map[string]bool{}
	for _, d := range decls {
		k := d.key()
		if seen[k] {
			continue // one name declared in several build-tagged files
		}
		seen[k] = true
		live := refs.names[d.dir+"."+d.name]
		if d.recv != "" {
			live = refs.sels[d.name] || stdlibMethods[d.name] ||
				(refs.aliased[d.dir+"."+d.recv] && ast.IsExported(d.name))
		}
		_, allowed := allow[k]
		switch {
		case !live && !allowed:
			rep.Dead = append(rep.Dead, k)
		case live && allowed:
			rep.Stale = append(rep.Stale, k+" (has a non-test caller)")
		}
	}
	for k, role := range allow {
		switch {
		case !seen[k]:
			rep.Stale = append(rep.Stale, k+" (no such declaration)")
		case role != "oracle" && role != "fixture":
			rep.Stale = append(rep.Stale, k+" (role "+strconv.Quote(role)+" is neither oracle nor fixture)")
		}
	}
	sort.Strings(rep.Dead)
	sort.Strings(rep.Stale)
	sort.Strings(rep.Undocumented)
	return rep, nil
}

func importPath(module, dir string) string {
	if dir == "." {
		return module
	}
	return module + "/" + dir
}

// fileImports maps each in-tree import's local name to its directory.
func fileImports(f *ast.File, module string, pkgName map[string]string) map[string]string {
	m := map[string]string{}
	for _, s := range f.Imports {
		p, err := strconv.Unquote(s.Path.Value)
		if err != nil {
			continue
		}
		var dir string
		switch {
		case p == module:
			dir = "."
		case strings.HasPrefix(p, module+"/"):
			dir = strings.TrimPrefix(p, module+"/")
		default:
			continue
		}
		name := pkgName[p]
		if s.Name != nil {
			name = s.Name.Name
		}
		if name == "" {
			name = path.Base(p)
		}
		m[name] = dir
	}
	return m
}

// declsOf lists the names one top-level declaration declares.
func declsOf(dir string, d ast.Decl) []declaration {
	var out []declaration
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
			return nil
		}
		out = append(out, declaration{dir: dir, recv: recvType(d), name: d.Name.Name})
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				out = append(out, declaration{dir: dir, name: s.Name.Name})
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.Name != "_" {
						out = append(out, declaration{dir: dir, name: n.Name})
					}
				}
			}
		}
	}
	return out
}

// recvType is the base type name of a method's receiver, or "".
func recvType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// collectRefs records the references one top-level declaration makes.
// References inside a declaration to the names it declares itself do
// not count, nor does a receiver count as a use of its type.
func collectRefs(refs *treeRefs, dir string, imports map[string]string, d ast.Decl, own []declaration) {
	self := map[string]bool{}
	for _, o := range own {
		if o.recv == "" {
			self[dir+"."+o.name] = true
		}
	}
	selfMethod := ""
	var visit func(ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if to, ok := imports[id.Name]; ok {
						refs.names[to+"."+x.Sel.Name] = true
						return false
					}
				}
				if x.Sel.Name != selfMethod {
					refs.sels[x.Sel.Name] = true
				}
				visit(x.X)
				return false
			case *ast.Field: // the names a field list declares are not uses
				visit(x.Type)
				return false
			case *ast.Ident:
				if k := dir + "." + x.Name; !self[k] {
					refs.names[k] = true
				}
			}
			return true
		})
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			selfMethod = d.Name.Name
		}
		visit(d.Type)
		if d.Body != nil {
			visit(d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if s.TypeParams != nil {
					visit(s.TypeParams)
				}
				visit(s.Type)
				if dir == "." && s.Assign.IsValid() {
					markAlias(refs, imports, s.Type)
				}
			case *ast.ValueSpec:
				if s.Type != nil {
					visit(s.Type)
				}
				for _, v := range s.Values {
					visit(v)
				}
			}
		}
	}
}

// markAlias records the target of a root `type X = pkg.Y` alias, whose
// exported methods are then part of the root package's surface.
func markAlias(refs *treeRefs, imports map[string]string, t ast.Expr) {
	if sel, ok := t.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if to, ok := imports[id.Name]; ok {
				refs.aliased[to+"."+sel.Sel.Name] = true
			}
		}
	}
}

// moduleOf reads the module path from a go.mod file.
func moduleOf(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// TestRepoLints runs the dead-code gate and the package-doc rule over
// the repository. A dead declaration is deleted, or given an allowlist
// entry in deadcodeAllow when a test needs it as an oracle or fixture.
func TestRepoLints(t *testing.T) {
	module, err := moduleOf("../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lintTree("..", module, deadcodeAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range rep.Dead {
		t.Errorf("internal/%s: no non-test file uses it; delete it or allowlist it in deadcodeAllow", k)
	}
	for _, k := range rep.Stale {
		t.Errorf("stale deadcodeAllow entry %s", k)
	}
	for _, dir := range rep.Undocumented {
		t.Errorf("package %s has no package doc comment on any non-test file", dir)
	}
}

// TestRepoLintsFixture runs both rules over testdata/deadcode, a small
// tree with one of each finding.
func TestRepoLintsFixture(t *testing.T) {
	allow := map[string]string{
		"lib.Oracle": "oracle",  // dead and allowlisted: not reported
		"lib.Called": "fixture", // stale: it has a non-test caller
		"lib.Gone":   "oracle",  // stale: nothing declares it
	}
	rep, err := lintTree("testdata/deadcode", "fixture", allow)
	if err != nil {
		t.Fatal(err)
	}
	want := lintReport{
		Dead: []string{"lib.Uncalled", "lib.hidden.Orphan"},
		Stale: []string{
			"lib.Called (has a non-test caller)",
			"lib.Gone (no such declaration)",
		},
		Undocumented: []string{"internal/nodoc"},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("lintTree(testdata/deadcode) =\n%+v\nwant\n%+v", rep, want)
	}
}
