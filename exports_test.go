package multirag

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

// exportAllowlist names the exported functions and methods under internal/
// and in this package that no non-test code calls but that stay in the
// product build, each with the reason it stays. Keys are
// "<import path>.<Func>" or "<import path>.<Type>.<Method>". The table only
// shrinks: an entry whose function gains a product caller or is deleted fails
// TestProductExportsHaveCallers until it is removed.
var exportAllowlist = map[string]string{
	"multirag/internal/core.SnapshotHandle.Encode":       "the root package's replica tests compare a replica's serving snapshot with the primary's by checkpoint body",
	"multirag/internal/core.System.Index":                "the root package's replica tests read each engine's stored vectors through it",
	"multirag/internal/fault.Disable":                    "fault-injection seam: the chaos and fault tests of core, serve and the root package disarm a point",
	"multirag/internal/fault.Enable":                     "fault-injection seam: the chaos and fault tests of core, serve and the root package arm a point",
	"multirag/internal/fault.Hits":                       "fault-injection seam: the chaos tests count how often an armed point fired",
	"multirag/internal/fault.Reset":                      "fault-injection seam: every fault test disarms all points on cleanup",
	"multirag/internal/kg.Graph.ForEachKeyPosting":       "the whole-graph key walk behind the line-graph oracles of linegraph, confidence, core and the root package; no lookup may scan, so a product caller must fail here",
	"multirag/internal/retrieval.Index.ForEachEmbedded":  "core's and the root package's tests gather stored vectors back out of the posting lists to hold recovery and replicas to them bit for bit",
	"multirag/internal/retrieval.Index.ForEachFullBlock": "core's replica tests check by address that a replica's fork left every full posting block and chunk block the primary's",
	"multirag/internal/wal.MemFS.Crash":                  "crash model of the in-memory filesystem, driven by the durability tests of wal and core",
	"multirag/internal/wal.MemFS.FileSize":               "crash model of the in-memory filesystem: tests size a segment before tearing it",
	"multirag/internal/wal.MemFS.FlipBit":                "crash model of the in-memory filesystem: corruption tests of wal, core and the root package",
	"multirag/internal/wal.MemFS.UnsyncedTail":           "crash model of the in-memory filesystem: core's tests assert what a crash would lose",
}

// TestProductExportsHaveCallers type-checks every package's non-test files,
// the `layers`-tagged benchmark pass included, and fails on any exported
// function or method under internal/ or in the root package that no non-test
// code calls and exportAllowlist does not name. A function only tests use
// belongs in a _test.go file. A method counts as called when its type
// implements an interface the module declares or reaches (the adapters'
// formats, wal.FS, sort.Interface, error, fmt.Stringer), because the call is
// then dynamic.
func TestProductExportsHaveCallers(t *testing.T) {
	mod, err := loadModule(".", []string{"layers"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range mod.uncalled() {
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s is exported but has no non-test caller: move it into a _test.go file or add it to exportAllowlist with a reason", key)
		}
	}
	for key := range exportAllowlist {
		switch fn, ok := mod.exported[key]; {
		case !ok:
			t.Errorf("exportAllowlist names %s, which is not an exported function of the module: remove the entry", key)
		case mod.used[fn]:
			t.Errorf("exportAllowlist names %s, which has a non-test caller now: remove the entry", key)
		}
	}
}

// module is the type-checked non-test build of every package in a module.
type module struct {
	path     string // module path from go.mod
	fset     *token.FileSet
	pkgs     map[string]*types.Package // by import path
	infos    []*types.Info
	exported map[string]*types.Func // checked exports by allowlist key
	used     map[*types.Func]bool   // called, referenced or reached through an interface
	stringer *types.Interface       // fmt.Stringer, which fmt calls on any operand
}

// loadModule parses and type-checks every package below root, honouring
// build constraints with the extra tags set. Any parse or type error in the
// module's own files is an error: a partial check would pass silently.
func loadModule(root string, tags []string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*types.Package{},
		exported: map[string]*types.Func{}, used: map[*types.Func]bool{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	ctxt := build.Default
	ctxt.BuildTags = tags
	ctxt.CgoEnabled = false
	files := map[string][]*ast.File{} // import path → parsed non-test files
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := m.path
		if rel := filepath.ToSlash(dir); rel != "." {
			ip += "/" + strings.TrimPrefix(rel, "./")
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	std := importer.Default()
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return nil, err
	}
	m.stringer = fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	var errs []error
	var check func(ip string) (*types.Package, error)
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if ip == m.path || strings.HasPrefix(ip, m.path+"/") {
			return check(ip)
		}
		return std.Import(ip)
	})
	check = func(ip string) (*types.Package, error) {
		if p, ok := m.pkgs[ip]; ok {
			return p, nil
		}
		if files[ip] == nil {
			return nil, fmt.Errorf("no non-test Go files for %s", ip)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		p, _ := conf.Check(ip, m.fset, files[ip], info)
		m.pkgs[ip] = p
		m.infos = append(m.infos, info)
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for ip := range files {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("type errors in the module (%d), first: %v", len(errs), errs[0])
	}
	m.collect()
	return m, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collect fills exported with the functions the guard checks and used with
// every function a non-test file names outside its own body, generic
// instantiations mapped back to their origin, plus every method that
// satisfies an interface the module declares or reaches.
func (m *module) collect() {
	var named []*types.Named
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
		m.stringer: true,
	}
	for ip, p := range m.pkgs {
		checked := ip == m.path || strings.HasPrefix(ip, m.path+"/internal/")
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				if checked && obj.Exported() {
					m.exported[ip+"."+name] = obj
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces[it] = true
					continue
				}
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					if fn := n.Method(i); checked && fn.Exported() {
						m.exported[ip+"."+name+"."+fn.Name()] = fn
					}
				}
			}
		}
	}
	seen := map[types.Type]bool{}
	for _, info := range m.infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if !within(fn, id.Pos()) {
					m.used[fn] = true
				}
			}
			reachInterfaces(obj.Type(), ifaces, seen)
		}
	}
	for it := range ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			if n.TypeParams() != nil {
				continue
			}
			var recv types.Type = n
			if !types.Implements(recv, it) {
				if recv = types.NewPointer(n); !types.Implements(recv, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				mm := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, true, mm.Pkg(), mm.Name()); obj != nil {
					m.used[obj.(*types.Func).Origin()] = true
				}
			}
		}
	}
}

// within reports whether pos lies in fn's own declaration: a recursive call
// is not a caller.
func within(fn *types.Func, pos token.Pos) bool {
	scope := fn.Scope()
	return scope != nil && scope.Contains(pos)
}

// reachInterfaces adds every interface with methods that t mentions —
// through signatures, containers and struct fields, stopping at named types
// whose underlying type is not an interface — to ifaces.
func reachInterfaces(t types.Type, ifaces map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			ifaces[it] = true
		}
	case *types.Alias:
		reachInterfaces(types.Unalias(t), ifaces, seen)
	case *types.Interface:
		ifaces[t] = true
	case *types.Pointer:
		reachInterfaces(t.Elem(), ifaces, seen)
	case *types.Slice:
		reachInterfaces(t.Elem(), ifaces, seen)
	case *types.Array:
		reachInterfaces(t.Elem(), ifaces, seen)
	case *types.Chan:
		reachInterfaces(t.Elem(), ifaces, seen)
	case *types.Map:
		reachInterfaces(t.Key(), ifaces, seen)
		reachInterfaces(t.Elem(), ifaces, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			reachInterfaces(t.Field(i).Type(), ifaces, seen)
		}
	case *types.Signature:
		reachInterfaces(t.Params(), ifaces, seen)
		reachInterfaces(t.Results(), ifaces, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			reachInterfaces(t.At(i).Type(), ifaces, seen)
		}
	}
}

// uncalled lists, sorted, the checked exports nothing in the module uses.
func (m *module) uncalled() []string {
	var out []string
	for key, fn := range m.exported {
		if !m.used[fn] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
