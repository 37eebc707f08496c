package dyno_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The surface audit finds what no caller needs. It type-checks every
// package of the module from source with the standard library's own
// go/types (the standard packages too, so nothing is downloaded) and
// lists
//
//   - exported package-level names and exported methods that no non-test
//     code outside their package refers to: a test is no caller. A
//     type counts as referred to when the type of a name that is referred
//     to mentions it; a method counts when it implements a method of an
//     interface of the module or of a standard package it imports.
//   - exported fields of the exported Config, Options and Env structs
//     that no non-test code outside their package sets to anything but
//     the default: the value a Default* constructor's literal gives them,
//     else the zero value. Such a field holds one value in every caller.
//   - struct fields of non-main packages that non-test code writes —
//     assigns, sets in a composite literal, increments — and that no
//     non-test code reads, bench/ and cmd/ included. A field with a json
//     tag counts as read: encoding/json reads it.
//
// Each finding is deleted, unexported, made a constant, or listed below
// with the reason it stays. A listed name the audit no longer finds fails
// the test too, so the list cannot outlive its reasons.

// keptExports are exported names the audit finds that stay exported, as
// "importpath.Name" or "importpath.Type.Method", with the reason.
var keptExports = map[string]string{
	// Errors a call returns, which callers match with errors.Is or
	// errors.As.
	"dyno/internal/cluster.ErrIdle":        "returned by Sim.RunUntil when the cluster empties first",
	"dyno/internal/runtime/wire.CapsError": "returned by Caps.Check for a worker that lacks a capability",

	"dyno/internal/dfs.WithBlockSize": "simulated hardware that only tests set, like keptKnobs' cluster rates",
	"dyno/internal/optimizer.SyntheticJoinBlock": "ROADMAP items 4 and 13 generate queries and estimator " +
		"experiments from its chain, star and bushy shapes",
	"dyno/internal/optimizer.SyntheticSlotMemory": "the slot memory SyntheticJoinBlock's shapes are sized against",

	// Read by other packages' tests, which hold no handle that would
	// make the read shorter.
	"dyno/internal/cluster.Sim.Jobs":       "the jaql and core tests walk every job a query ran",
	"dyno/internal/cluster.Sim.Quiesce":    "the server tests check that an idle shard holds no live job",
	"dyno/internal/cluster.Submission.Job": "the core tests tell pilots from the query's own jobs by name",
	"dyno/internal/cluster.Submission.Duration": "the mapreduce, physop and procruntime tests compare " +
		"a job's virtual makespan",
	"dyno/internal/dfs.FS.List": "the core and server tests list the namespace for leftover scratch files",
}

// keptWriteOnly are fields that no expression reads but that stay, as
// "importpath.Type.Field", with the non-test code that reads them.
var keptWriteOnly = map[string]string{
	"dyno/internal/runtime/procruntime.tableKey.params": "read as part of the key of Worker.tables: " +
		"two builds of one mirror file under different parameters are different tables",
}

// keptKnobs are fields that hold one value in every non-test caller and
// stay settable, as "importpath.Type.Field", with the reason.
var keptKnobs = map[string]string{
	// The simulated hardware. DefaultConfig is the paper's cluster; the
	// cluster, mapreduce, jaql, physop and core tests build small
	// clusters with round rates, so that virtual times can be checked by
	// hand, and with a tiny SlotMemory, so that builds overflow it.
	"dyno/internal/cluster.Config.BroadcastLoadBps": "simulated hardware, see above",
	"dyno/internal/cluster.Config.JobStartup":       "simulated hardware, see above",
	"dyno/internal/cluster.Config.ScanBps":          "simulated hardware, see above",
	"dyno/internal/cluster.Config.ShuffleBps":       "simulated hardware, see above",
	"dyno/internal/cluster.Config.SlotMemory":       "simulated hardware, see above",
	"dyno/internal/cluster.Config.TaskOverhead":     "simulated hardware, see above",
	"dyno/internal/cluster.Config.WriteBps":         "simulated hardware, see above",

	"dyno/internal/cluster.Config.FailInject": "the targeted failure hook core's recovery tests drive " +
		"(pilot fallback, leaf resubmission, the resubmission cap)",
	"dyno/internal/mapreduce.Env.BytesPerReducer": "tests spread small shuffles over several reduce tasks " +
		"(mapreduce, the procruntime value-order test)",
	"dyno/internal/optimizer.Config.DisableBroadcast": "the jaql, core and procruntime tests force all-repartition " +
		"plans with it; no Mmax rules out broadcasting a build estimated at zero bytes",
	"dyno/internal/runtime/procruntime.Config.HedgeMin": "the procruntime tests set an hour where they count " +
		"dispatches, so that no hedge adds one, and milliseconds where they want a hedge",
}

const modulePath = "dyno"

type module struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]*build.Package // import path -> its directory's files
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path -> non-test files
	info  *types.Info            // of the non-test files
	order []string               // import paths in load order
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:  map[string]*build.Package{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  newInfo(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		m.dirs[ip] = bp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range m.dirs {
		if _, err := m.load(ip); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func (m *module) Import(path string) (*types.Package, error) {
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		return m.load(path)
	}
	return m.std.ImportFrom(path, ".", 0)
}

func (m *module) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (m *module) load(ip string) (*types.Package, error) {
	if p, ok := m.pkgs[ip]; ok {
		return p, nil
	}
	bp, ok := m.dirs[ip]
	if !ok {
		return nil, fmt.Errorf("package %s is not in the module", ip)
	}
	files, err := m.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(ip, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = p
	m.files[ip] = files
	m.order = append(m.order, ip)
	return p, nil
}

// pkgOf is the import path of the package that declares obj, "" for the
// universe.
func pkgOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// auditExports returns the exported names that no non-test code outside
// their package refers to. A type counts as referred to when a
// referred-to name's type mentions it.
func (m *module) auditExports() []string {
	used := map[types.Object]bool{}
	for ip, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := m.info.Uses[id]; obj != nil && pkgOf(obj) != ip {
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if v, ok := obj.(*types.Var); ok {
						obj = v.Origin()
					}
					used[obj] = true
				}
				return true
			})
		}
	}
	var mention func(t types.Type)
	seen := map[types.Type]bool{}
	mention = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch x := t.(type) {
		case *types.Named:
			used[x.Origin().Obj()] = true
			for i := 0; i < x.TypeArgs().Len(); i++ {
				mention(x.TypeArgs().At(i))
			}
		case *types.Pointer:
			mention(x.Elem())
		case *types.Slice:
			mention(x.Elem())
		case *types.Array:
			mention(x.Elem())
		case *types.Map:
			mention(x.Key())
			mention(x.Elem())
		case *types.Chan:
			mention(x.Elem())
		case *types.Signature:
			mention(x.Params())
			mention(x.Results())
		case *types.Tuple:
			for i := 0; i < x.Len(); i++ {
				mention(x.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				mention(x.Field(i).Type())
			}
		}
	}
	var referred []types.Type
	for obj := range used {
		if _, ok := obj.(*types.TypeName); !ok {
			referred = append(referred, obj.Type())
		}
	}
	for _, t := range referred {
		mention(t)
	}
	ifaces := m.interfaces()
	var out []string
	for _, ip := range m.order {
		p := m.pkgs[ip]
		if p.Name() == "main" {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, ip+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !obj.Exported() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !used[fn] && !implementsSome(named, fn, ifaces) {
					out = append(out, ip+"."+name+"."+fn.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// interfaces lists every named interface type of the module and of the
// standard packages it imports, plus error.
func (m *module) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	return append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

func implementsSome(named *types.Named, fn *types.Func, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named) // its method set holds the value receiver's too
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// knobStruct reports whether a type name is one the field audit covers.
func knobStruct(name string) bool {
	return name == "Env" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Opts")
}

// auditKnobs returns the exported fields of the audited structs that no
// non-test code sets to anything but their default: the value a Default*
// constructor's literal gives them, or else the zero value.
func (m *module) auditKnobs() []string {
	fields := map[*types.Var]string{}
	for _, ip := range m.order {
		p := m.pkgs[ip]
		if p.Name() == "main" {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !knobStruct(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = ip + "." + name + "." + f.Name()
				}
			}
		}
	}
	// field reports the struct field an assigned-to expression names.
	field := func(lhs ast.Expr) *types.Var {
		var id *ast.Ident
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			id = x
		case *ast.SelectorExpr:
			id = x.Sel
		default:
			return nil
		}
		if f, ok := m.info.Uses[id].(*types.Var); ok && f.IsField() {
			return f
		}
		return nil
	}
	// sets calls fn for every field a declaration sets, with the value
	// (nil when it is not one expression: x.F++, &x.F).
	sets := func(decl ast.Decl, fn func(f *types.Var, rhs ast.Expr)) {
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if _, ok := m.info.Types[x].Type.Underlying().(*types.Struct); !ok {
					return true
				}
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if f := field(kv.Key); f != nil {
							fn(f, kv.Value)
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					var rhs ast.Expr
					if len(x.Rhs) == len(x.Lhs) && x.Tok == token.ASSIGN {
						rhs = x.Rhs[i]
					}
					if f := field(lhs); f != nil {
						fn(f, rhs)
					}
				}
			case *ast.IncDecStmt:
				if f := field(x.X); f != nil {
					fn(f, nil)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if f := field(x.X); f != nil {
						fn(f, nil)
					}
				}
			}
			return true
		})
	}
	isDefault := func(decl ast.Decl) bool {
		fd, ok := decl.(*ast.FuncDecl)
		return ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Default")
	}
	defaults := map[*types.Var]types.TypeAndValue{}
	set := map[*types.Var]bool{}
	for _, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if isDefault(decl) {
					sets(decl, func(f *types.Var, rhs ast.Expr) {
						if rhs == nil || m.info.Types[rhs].Value == nil && !m.info.Types[rhs].IsNil() {
							set[f] = true // the constructor passes its caller's value on
						} else {
							defaults[f] = m.info.Types[rhs]
						}
					})
				}
			}
		}
	}
	for ip, files := range m.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if isDefault(decl) {
					continue
				}
				sets(decl, func(f *types.Var, rhs ast.Expr) {
					if pkgOf(f) != ip && (rhs == nil || !sameConstant(m.info.Types[rhs], defaults[f])) {
						set[f] = true
					}
				})
			}
		}
	}
	var out []string
	for f, name := range fields {
		if !set[f] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// auditWriteOnly returns the fields declared in non-main packages that
// non-test code writes and never reads. A write is an assignment to the
// field (x.f = v, x.f += v), a ++ or --, or a composite literal setting
// it; any other use reads it, the base of a selector or an index
// included (x.f.g = v and x.f[k] = v read f). A field with a json tag
// is read by encoding/json; an embedded field is read wherever one of
// its fields or methods is promoted, so neither is reported.
func (m *module) auditWriteOnly() []string {
	names := map[*types.Var]string{}
	var declare func(prefix string, t ast.Expr)
	declare = func(prefix string, t ast.Expr) {
		ast.Inspect(t, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				tagged := false
				if fl.Tag != nil {
					tag, _ := strconv.Unquote(fl.Tag.Value)
					json, ok := reflect.StructTag(tag).Lookup("json")
					tagged = ok && json != "-"
				}
				for _, id := range fl.Names {
					if v, ok := m.info.Defs[id].(*types.Var); ok && !tagged {
						names[v] = prefix + "." + id.Name
					}
					declare(prefix+"."+id.Name, fl.Type)
				}
			}
			return false
		})
	}
	for _, ip := range m.order {
		if m.pkgs[ip].Name() == "main" {
			continue
		}
		for _, f := range m.files[ip] {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					declare(ip+"."+ts.Name.Name, ts.Type)
				}
				return true
			})
		}
	}
	field := func(id *ast.Ident) *types.Var {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, files := range m.files {
		for _, f := range files {
			writes := map[*ast.Ident]bool{}
			target := func(lhs ast.Expr) {
				if x, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					writes[x.Sel] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(x.X)
				case *ast.CompositeLit:
					t := m.info.Types[x].Type // *T for an element literal eliding &T
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							writes[kv.Key.(*ast.Ident)] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if v := field(id); v != nil {
						if writes[id] {
							written[v] = true
						} else {
							read[v] = true
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	for v, name := range names {
		if written[v] && !read[v] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// sameConstant reports whether a value is a constant equal to a default,
// where a missing default is the zero value.
func sameConstant(v, def types.TypeAndValue) bool {
	if v.IsNil() {
		return def.Type == nil || def.IsNil()
	}
	if v.Value == nil {
		return false
	}
	if def.Type == nil {
		switch v.Value.Kind() {
		case constant.Bool:
			return !constant.BoolVal(v.Value)
		case constant.String:
			return constant.StringVal(v.Value) == ""
		default:
			return constant.Sign(v.Value) == 0
		}
	}
	comparable := def.Value != nil &&
		(v.Value.Kind() == def.Value.Kind() || isNumeric(v.Value) && isNumeric(def.Value))
	return comparable && constant.Compare(v.Value, token.EQL, def.Value)
}

func isNumeric(v constant.Value) bool {
	k := v.Kind()
	return k == constant.Int || k == constant.Float
}

func TestSurfaceAudit(t *testing.T) {
	m := loadModule(t)
	check := func(kind string, found []string, kept map[string]string) {
		seen := map[string]bool{}
		for _, name := range found {
			seen[name] = true
			if _, ok := kept[name]; !ok {
				t.Errorf("%s: %s", kind, name)
			}
		}
		for name := range kept {
			if !seen[name] {
				t.Errorf("allowlisted as %s but no longer found: %s", kind, name)
			}
		}
	}
	check("export nothing outside its package uses", m.auditExports(), keptExports)
	check("field no caller sets off its default", m.auditKnobs(), keptKnobs)
	check("field non-test code writes and never reads", m.auditWriteOnly(), keptWriteOnly)
}
