package microgrid

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names that satisfy a standard-library
// interface, so the standard library may call them without the module
// naming them.
var stdlibMethods = map[string]bool{
	"String":    true, // fmt.Stringer
	"Error":     true, // error
	"Len":       true, // sort.Interface, heap.Interface
	"Less":      true,
	"Swap":      true,
	"Push":      true, // heap.Interface
	"Pop":       true,
	"ServeHTTP": true, // http.Handler
}

// surfaceTests are the test files that count as product surfaces: the
// paper-scale benchmark harness drives internal packages directly.
var surfaceTests = map[string]bool{"bench_test.go": true}

// keptAPI lists the exported internal funcs and methods that no non-test
// file calls but that stay: the MPI application API, the instruments
// tests use to observe behaviour the program keeps, and a few test-only
// names whose removal would take their tests with them (ROADMAP item 7).
// Keys are "pkg.Name" for funcs and "pkg.Recv.Name" for methods.
var keptAPI = map[string]string{
	"mpi.MaxOp":          "application API: a reduction op for Comm.Allreduce",
	"mpi.Comm.Allgather": "application API: every application gets an *mpi.Comm",
	"mpi.Comm.Gather":    "application API: every application gets an *mpi.Comm",
	"mpi.Comm.Probe":     "application API: every application gets an *mpi.Comm",
	"mpi.Comm.Irecv":     "application API: every application gets an *mpi.Comm",
	"mpi.Request.Data":   "application API: the payload of a completed Comm.Irecv",
	"mpi.Request.Status": "application API: the envelope of a completed Comm.Irecv",
	"virtual.Process.Malloc": "application API: AppContext.Proc's entry to the memory model; " +
		"virtual tests fill a host's memory through it",

	"autopilot.Sensor.Value":         "autopilot tests read a sensor's value",
	"core.MicroGrid.LazyHosts":       "lazy-grid tests read whether a grid builds lazily",
	"core.MicroGrid.PartitionShards": "partition tests read the shard each host landed on",
	"gis.Server.Lookup":              "GIS tests read an entry by DN",
	"memmodel.Limiter.Used":          "memory tests read a host's charge (chaos mem-pressure, crash release)",
	"memmodel.ProcMem.Used":          "memory tests read a process's charge including its overhead",
	"metrics.Counter.Value":          "Prometheus tests read a counter",
	"metrics.Distribution.Count":     "Prometheus tests read a distribution's sample count",
	"mpi.World.Err":                  "MPI, NPB, Cactus and work-queue tests read a launched world's first rank error",
	"mpi.World.MaxElapsed":           "MPI, NPB, Cactus and work-queue tests time a run by its slowest rank",
	"netsim.Node.Crashed":            "crash tests read a node's crashed flag",
	"netsim.Conn.SRTT":               "TCP tests read the smoothed RTT estimate",
	"service.Server.Pause":           "server tests hold dispatch to stage a fair-share queue",
	"service.Server.Resume":          "server tests release the staged queue",
	"simcore.Engine.Stopped":         "engine tests read whether a run was stopped",
	"simcore.Proc.Killed":            "kill tests read whether a process was killed",
	"simcore.Proc.Name":              "parallel-engine tests log process names",
	"trace.Recorder.Emitted":         "trace tests count recorded events",
	"virtual.Host.Down":              "crash tests read whether a host is down",
	"virtual.Grid.PhysHost":          "virtual tests look up the physical host a virtual host maps to",

	"simcore.ParallelEngine.Stop": "test-only until a cancelled parallel run calls it (ROADMAP item 2); " +
		"ends the parallel relay test's run",
}

// TestInternalAPIReachable fails on an exported func or method under
// internal/ that no non-test Go file of the repository (perfbench's
// module included) uses outside its own declaration, or that only such
// dead funcs use. A name like that is reachable from no product surface,
// only from its own tests, so it is dead code.
//
// Packages are type-checked from source so that a method is told apart
// from others of the same name. Imports from outside the module resolve
// to empty packages and the type errors that leaves are ignored: only
// uses of the module's own objects matter. A method reached through one
// of the module's interfaces counts as used when the interface method is.
func TestInternalAPIReachable(t *testing.T) {
	l, paths := loadModule(t)

	// The exported funcs and methods declared under internal/.
	var decls []*types.Func
	index := map[*types.Func]int{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "microgrid/internal/") {
			continue
		}
		pkg := l.pkgs[p]
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := pkg.info.Defs[fd.Name].(*types.Func)
					index[fn] = len(decls)
					decls = append(decls, fn)
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported funcs found under internal/")
	}

	// refs maps each func to the indexes in decls of the funcs that use
	// it; -1 stands for any other code, which is always live.
	refs := map[*types.Func][]int{}
	viaInterface := map[string]bool{}
	for _, p := range paths {
		pkg := l.pkgs[p]
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				from := -1
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.info.Defs[fd.Name].(*types.Func); ok {
						if i, ok := index[fn]; ok {
							from = i
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pkg.info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						viaInterface[fn.Name()] = true
					}
					refs[fn] = append(refs[fn], from)
					return true
				})
			}
		}
	}

	// The first pass exempts keptAPI; the second grants it nothing, so a
	// kept name that comes out live there is reached by non-test code and
	// its entry is stale.
	dead := deadFuncs(decls, refs, func(fn *types.Func) bool { return exempt(fn, viaInterface, true) })
	deadUnkept := deadFuncs(decls, refs, func(fn *types.Func) bool { return exempt(fn, viaInterface, false) })
	declared := map[string]bool{}
	for i, fn := range decls {
		name := apiName(fn)
		declared[name] = true
		if dead[i] {
			t.Errorf("%s: %s has no non-test caller: delete it, or list it in keptAPI with the reason it stays",
				l.fset.Position(fn.Pos()), name)
		}
		if _, kept := keptAPI[name]; kept && !deadUnkept[i] {
			t.Errorf("%s: keptAPI lists %s, which non-test code reaches: drop its entry",
				l.fset.Position(fn.Pos()), name)
		}
	}
	for name := range keptAPI {
		if !declared[name] {
			t.Errorf("keptAPI lists %s, which is not declared", name)
		}
	}
}

// deadFuncs marks the funcs of decls whose every use comes from
// themselves or from other dead funcs, iterating until no new dead func
// appears. refs maps a func to the indexes in decls of its users, -1 for
// any other code. Exempt funcs are never dead.
func deadFuncs(decls []*types.Func, refs map[*types.Func][]int, exempt func(*types.Func) bool) []bool {
	dead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, fn := range decls {
			if dead[i] || exempt(fn) {
				continue
			}
			live := false
			for _, from := range refs[fn] {
				live = live || from == -1 || (from != i && !dead[from])
			}
			if !live {
				dead[i], changed = true, true
			}
		}
	}
	return dead
}

// exempt reports whether fn stays whatever its callers: a method the
// standard library or one of the module's interfaces may call, or, when
// kept is set, a name in keptAPI.
func exempt(fn *types.Func, viaInterface map[string]bool, kept bool) bool {
	if fn.Type().(*types.Signature).Recv() != nil && (stdlibMethods[fn.Name()] || viaInterface[fn.Name()]) {
		return true
	}
	_, ok := keptAPI[apiName(fn)]
	return kept && ok
}

// apiName renders fn as "pkg.Name" or "pkg.Recv.Name", pkg relative to
// internal/.
func apiName(fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), "microgrid/internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// keptFields lists the exported internal struct fields that break a rule
// of TestInternalFieldsRead but stay: results and data a caller of the
// package reads, and counters tests read to observe behaviour the program
// keeps. Keys are "pkg.Type.Field".
var keptFields = map[string]string{
	"core.Report.Rate":              "public result: the emulation rate a MicroGrid.Run report carries",
	"autopilot.Sample.T":            "public result: the virtual time of a sensor sample",
	"globus.JobContext.RSL":         "application data: the parsed RSL handed to a job's entry point",
	"mpi.Comm.Sent":                 "public result: a rank's message count",
	"mpi.Comm.Received":             "public result: a rank's received-message count",
	"mpi.Comm.BytesSent":            "public result: a rank's sent payload bytes",
	"mpi.RankResult.Rank":           "public result: which rank a World result belongs to",
	"mpi.RankResult.Comm":           "public result: a finished rank's communicator and its counters",
	"netsim.ConnStats.MsgsSent":     "TCP tests count the messages a connection sent",
	"netsim.ConnStats.BytesSent":    "TCP tests count the payload bytes a connection sent",
	"netsim.ConnStats.SegmentsSent": "TCP tests count the segments a connection sent",
	"netsim.ConnStats.Retransmits":  "loss tests read that lost segments were resent",
	"netsim.ConnStats.AcksReceived": "TCP tests read that the peer acknowledged",
	"netsim.TrafficGen.Sent":        "traffic tests count the packets a generator sent",
	"globus.Gatekeeper.Submitted":   "gatekeeper tests count accepted submissions",
	"globus.Gatekeeper.Rejected":    "gatekeeper tests count rejected submissions",
	"simcore.Mutex.Contentions":     "mutex tests read that a lock was contended",
	"autopilot.Sensor.Updates":      "autopilot tests count a sensor's updates",
}

// TestInternalFieldsRead fails on an exported field of a struct type
// declared under internal/ that non-test code (with the same surfaceTests
// as TestInternalAPIReachable) never reads, or never writes. A field
// nothing reads is state kept for nobody; a field nothing writes is a knob
// no product sets, whose readers always see the zero value.
//
// A write is the target of =, op= or ++/--, or a composite-literal key,
// or every field of a positional composite literal; in a.F.G++, F is read
// and G is written. Taking a field's address counts as both, and so does
// changing a struct or array field in place (F above, when it is a struct
// and not a pointer). Every other use reads. Embedded fields and fields
// with a json tag (the encoder reads them) are not checked, and neither
// are names in keptFields.
func TestInternalFieldsRead(t *testing.T) {
	l, paths := loadModule(t)

	// The exported fields of the struct types declared under internal/.
	type field struct {
		v    *types.Var
		name string
	}
	var fields []field
	for _, p := range paths {
		if !strings.HasPrefix(p, "microgrid/internal/") {
			continue
		}
		scope := l.pkgs[p].pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() && !v.Embedded() && !strings.Contains(st.Tag(i), `json:"`) {
					fields = append(fields, field{v, strings.TrimPrefix(p, "microgrid/internal/") + "." + name + "." + v.Name()})
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("no exported fields found under internal/")
	}

	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range paths {
		pkg := l.pkgs[p]
		for _, f := range pkg.files {
			writes := map[ast.Expr]bool{} // expressions assigned to
			both := map[ast.Expr]bool{}   // expressions changed in place or whose address is taken
			keys := map[*ast.Ident]bool{} // composite-literal keys
			// assign records a write to e and an in-place change to every
			// struct or array value it lies in: a.F.G++ changes a.F too
			// when F is a struct, not a pointer to one.
			assign := func(e ast.Expr) {
				e = ast.Unparen(e)
				writes[e] = true
				for {
					var x ast.Expr
					switch s := e.(type) {
					case *ast.SelectorExpr:
						x = s.X
					case *ast.IndexExpr:
						x = s.X
					default:
						return
					}
					x = ast.Unparen(x)
					if !isValue(pkg.info.Types[x].Type) {
						return
					}
					both[x] = true
					e = x
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						assign(e)
					}
				case *ast.IncDecStmt:
					assign(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							if e != nil {
								assign(e)
							}
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						both[ast.Unparen(n.X)] = true
					}
				case *ast.CompositeLit:
					typ := pkg.info.Types[n].Type
					if typ == nil {
						return true
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								keys[id] = true
							}
						} else if i < st.NumFields() {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.SelectorExpr:
					sel, ok := pkg.info.Selections[n]
					if !ok || sel.Kind() == types.MethodExpr {
						return true
					}
					v, ok := sel.Obj().(*types.Var)
					if !ok {
						return true
					}
					v = v.Origin()
					switch {
					case both[n]:
						read[v], written[v] = true, true
					case writes[n]:
						written[v] = true
					default:
						read[v] = true
					}
				case *ast.Ident:
					if v, ok := pkg.info.Uses[n].(*types.Var); ok && v.IsField() && keys[n] {
						written[v.Origin()] = true
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	for _, f := range fields {
		v, name := f.v, f.name
		declared[name] = true
		pos := l.fset.Position(v.Pos())
		_, kept := keptFields[name]
		switch {
		case kept && read[v] && written[v]:
			t.Errorf("%s: keptFields lists %s, which non-test code reads and writes: drop its entry", pos, name)
		case kept:
		case !read[v]:
			t.Errorf("%s: %s is never read outside tests: delete it, or list it in keptFields with the reason it stays", pos, name)
		case !written[v]:
			t.Errorf("%s: %s is never written outside tests: delete it, or list it in keptFields with the reason it stays", pos, name)
		}
	}
	for name := range keptFields {
		if !declared[name] {
			t.Errorf("keptFields lists %s, which is not declared", name)
		}
	}
}

// isValue reports whether typ is a struct or array, whose fields and
// elements live in the value itself.
func isValue(typ types.Type) bool {
	if typ == nil {
		return false
	}
	switch typ.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// loadModule type-checks every package of the repository, perfbench's
// module included, and returns the loader and the sorted import paths.
func loadModule(t *testing.T) (*apiLoader, []string) {
	t.Helper()
	l := &apiLoader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*apiPkg{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) > 0 {
			l.dirs[importPath(path)] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			t.Fatal(err)
		}
	}
	return l, paths
}

// importPath maps a directory of the repository to its import path
// (perfbench's module path is microgrid/perfbench too).
func importPath(dir string) string {
	if dir == "." {
		return "microgrid"
	}
	return "microgrid/" + filepath.ToSlash(dir)
}

type apiPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// apiLoader type-checks the repository's packages from their non-test
// files (plus surfaceTests), resolving every other import to an empty
// package.
type apiLoader struct {
	fset *token.FileSet
	dirs map[string]string // import path → directory
	pkgs map[string]*apiPkg
}

func (l *apiLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	p.MarkComplete()
	return p, nil
}

func (l *apiLoader) load(path string) (*apiPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &apiPkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, e := range ents {
		name := e.Name()
		file := filepath.Join(dir, name)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") && !surfaceTests[file] {
			continue
		}
		f, err := parser.ParseFile(l.fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	p.pkg, _ = conf.Check(path, l.fset, p.files, p.info)
	l.pkgs[path] = p
	return p, nil
}
