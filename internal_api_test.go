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

	"gis.Entry.Remove":            "test-only: TestEntryRemove checks nothing else",
	"globus.Gatekeeper.Close":     "test-only: TestGatekeeperClose checks nothing else",
	"simcore.Engine.Rand":         "test-only: no product code draws from the engine's own stream",
	"simcore.ParallelEngine.Stop": "test-only: ends the parallel relay test's run",
	"simcore.Queue.Put":           "test-only: no product queue is bounded; the wake-order tests drive blocking puts",
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

	// A func is dead when every use comes from itself or from dead funcs;
	// iterate until no new dead func appears.
	dead := make([]bool, len(decls))
	for changed := true; changed; {
		changed = false
		for i, fn := range decls {
			if dead[i] || exempt(fn, viaInterface) {
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
	declared := map[string]bool{}
	for i, fn := range decls {
		declared[apiName(fn)] = true
		if dead[i] {
			t.Errorf("%s: %s has no non-test caller: delete it, or list it in keptAPI with the reason it stays",
				l.fset.Position(fn.Pos()), apiName(fn))
		}
	}
	for name := range keptAPI {
		if !declared[name] {
			t.Errorf("keptAPI lists %s, which is not declared", name)
		}
	}
}

// exempt reports whether fn stays whatever its callers: a method the
// standard library or one of the module's interfaces may call, or a name
// in keptAPI.
func exempt(fn *types.Func, viaInterface map[string]bool) bool {
	if fn.Type().(*types.Signature).Recv() != nil && (stdlibMethods[fn.Name()] || viaInterface[fn.Name()]) {
		return true
	}
	_, ok := keptAPI[apiName(fn)]
	return ok
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
	p := &apiPkg{info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
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
