package openflame

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachedAllowlist is the committed list of exported names that no
// non-test file references, one per line: the name, then the reason it
// stays. The list only shrinks: code production stops reaching is deleted
// with the tests that exercise only it, not added here.
const unreachedAllowlist = "testdata/unreached.txt"

// TestUnreachedExports is the ratchet on dead surface. It lists every
// exported func, exported type and exported method of an exported type
// that no non-test file in the module references, and fails unless that
// list equals the allowlist. bench/, cmd/ and examples/ count as callers.
func TestUnreachedExports(t *testing.T) {
	got, err := unreachedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(unreachedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if !allowed[name] {
			t.Errorf("%s: no non-test file references it; delete it (with the tests that exercise only it) or add it to %s with a reason", name, unreachedAllowlist)
		}
	}
	found := make(map[string]bool, len(got))
	for _, name := range got {
		found[name] = true
	}
	for name := range allowed {
		if !found[name] {
			t.Errorf("%s: allowlisted but now referenced or gone; remove it from %s", name, unreachedAllowlist)
		}
	}
}

// readAllowlist returns the allowlisted names, checking that each has a
// reason of a known kind.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		kind, why, _ := strings.Cut(reason, ":")
		if !allowedKinds[kind] || strings.TrimSpace(why) == "" {
			return nil, fmt.Errorf(`%s:%d: want "<name> <kind>: <reason>" with a known kind`, path, line)
		}
		if out[name] {
			return nil, fmt.Errorf("%s:%d: duplicate entry %s", path, line, name)
		}
		out[name] = true
	}
	return out, sc.Err()
}

// allowedKinds are the reasons an unreached export may stay.
var allowedKinds = map[string]bool{
	"test oracle":          true,
	"fault-injection hook": true,
	"experiment baseline":  true,
	"fuzz entry":           true,
	"public client API":    true,
	"pending N5":           true,
}

// goPackage is one directory's non-test files, parsed.
type goPackage struct {
	path  string // import path
	name  string // package clause
	files []*ast.File
}

// unreachedExports parses every non-test Go file under root (skipping
// testdata and dot- or underscore-prefixed directories, as the go tool
// does) and returns the unreferenced exported names, sorted, each as
// "<dir>.<Name>" or "<dir>.<Type>.<Method>" with dir relative to root.
//
// A reference is pkg.Name resolved through the file's imports, a bare
// Name inside the declaring package, or, for a method, its name used as
// any selector (there is no type checker to resolve the receiver). A
// composite-literal key such as sync.Pool{New: …} is not a reference, nor
// is a function's reference to itself.
func unreachedExports(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string]*goPackage{} // by import path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		p := pkgs[imp]
		if p == nil {
			p = &goPackage{path: imp, name: f.Name.Name}
			pkgs[imp] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	pkgRefs := map[string]bool{} // "<import path>.<Name>"
	selectors := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			collectRefs(p, f, pkgs, pkgRefs, selectors)
		}
	}

	var out []string
	for _, p := range pkgs {
		short := strings.TrimPrefix(strings.TrimPrefix(p.path, module), "/")
		if short == "" {
			short = module
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						if !pkgRefs[p.path+"."+d.Name.Name] {
							out = append(out, short+"."+d.Name.Name)
						}
						continue
					}
					recv := receiverType(d.Recv.List[0].Type)
					if ast.IsExported(recv) && !selectors[d.Name.Name] {
						out = append(out, short+"."+recv+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() && !pkgRefs[p.path+"."+ts.Name.Name] {
							out = append(out, short+"."+ts.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// collectRefs records f's references: package-level names into pkgRefs
// (keyed by the declaring package's import path) and selector names into
// selectors.
func collectRefs(p *goPackage, f *ast.File, pkgs map[string]*goPackage, pkgRefs, selectors map[string]bool) {
	imports := map[string]string{} // local name → module import path
	for _, is := range f.Imports {
		path, _ := strconv.Unquote(is.Path.Value)
		target := pkgs[path]
		if target == nil {
			continue // outside the module
		}
		name := target.name
		if is.Name != nil {
			name = is.Name.Name
		}
		imports[name] = path
	}
	// Identifiers in declaring or key position are not references.
	skip := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		if d, ok := decl.(*ast.GenDecl); ok && d.Tok == token.IMPORT {
			continue
		}
		self := "" // a function's reference to itself does not count
		if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
			self = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							skip[id] = true
						}
					}
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if id, ok := n.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						pkgRefs[path+"."+n.Sel.Name] = true
						return false
					}
				}
				selectors[n.Sel.Name] = true
			case *ast.Ident:
				if !skip[n] && n.Name != self {
					pkgRefs[p.path+"."+n.Name] = true
				}
			}
			return true
		})
	}
}

// receiverType returns the base type name of a method receiver,
// unwrapping pointers and type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
