package knlmlm

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

// Every exported function and method has a caller outside the tests. An
// export that only tests call, or nothing calls, is surface a reader has
// to learn for no run of the program: unexport it (its package's tests
// still reach it) or delete it. The check reads the module's Go files
// with go/parser alone, so it works by name, not by type:
//
//   - a function F of package p is called when a non-test file of p names
//     F, or one of another package names p.F;
//   - a method M is called when any non-test file selects .M, on whatever
//     receiver, or M is the name of a method some interface the standard
//     library calls implicitly (stdInterfaceMethods).
//
// Only packages under internal/ are checked: nothing outside the module
// can import them, so an export with no caller here has none anywhere.
// The root package is the library's API for other modules, and package
// main exports nothing; their files are callers only. A name-based check
// errs towards "called": two methods that share a name hide each other,
// and it never flags a live export.
//
// exportsWithoutCaller is what had no caller when the check went in. It
// may only shrink: an entry that gains a caller or is deleted fails here
// until it leaves the list, and a new export with no caller fails until
// it gets one or goes.
var exportsWithoutCaller = map[string]bool{
	"internal/bandwidth.Flow.Remaining":            true,
	"internal/bandwidth.RunResult.Utilization":     true,
	"internal/bandwidth.Session.Active":            true,
	"internal/bandwidth.System.Devices":            true,
	"internal/cachemodel.EffectiveBandwidth":       true,
	"internal/cachemodel.FlatDemand":               true,
	"internal/cachesim.AssocCache.AccessRange":     true,
	"internal/cachesim.AssocCache.ResetStats":      true,
	"internal/cachesim.AssocCache.Ways":            true,
	"internal/cachesim.Cache.AccessRange":          true,
	"internal/cachesim.Cache.LineSize":             true,
	"internal/cachesim.Cache.NumLines":             true,
	"internal/cachesim.Cache.ResetStats":           true,
	"internal/cachesim.ConflictProbe":              true,
	"internal/cluster.Job.Skew":                    true,
	"internal/exec.Counters.ComputeBytes":          true,
	"internal/exec.Counters.CopyInBytes":           true,
	"internal/exec.Counters.CopyOutBytes":          true,
	"internal/exec.Instrument":                     true,
	"internal/mem.SlicePool.FreeSlices":            true,
	"internal/mem.SlicePool.Warm":                  true,
	"internal/model.Params.BandwidthBound":         true,
	"internal/model.Params.OptimalAsymmetric":      true,
	"internal/model.Params.Sensitivity":            true,
	"internal/noc.KNLMesh":                         true,
	"internal/noc.Mesh.Ceiling":                    true,
	"internal/noc.Mesh.DDRMCs":                     true,
	"internal/noc.Mesh.EDCs":                       true,
	"internal/psort.Float64FromSortKey":            true,
	"internal/psort.Float64TotalLess":              true,
	"internal/psort.loserTree.Empty":               true,
	"internal/report.Seconds":                      true,
	"internal/sched.Scheduler.PoolStats":           true,
	"internal/sim.Engine.Pending":                  true,
	"internal/sim.Engine.RunUntil":                 true,
	"internal/spill.Store.LiveRuns":                true,
	"internal/spill.Store.RunElems":                true,
	"internal/stats.GeoMean":                       true,
	"internal/stats.RelErr":                        true,
	"internal/stats.Series.MinY":                   true,
	"internal/stats.Series.SortByX":                true,
	"internal/telemetry.Recorder.BytesByStage":     true,
	"internal/telemetry.Recorder.Epoch":            true,
	"internal/telemetry.Resilience.Aborts":         true,
	"internal/telemetry.Resilience.Cancellations":  true,
	"internal/telemetry.Resilience.Failures":       true,
	"internal/telemetry.Resilience.FaultsInjected": true,
	"internal/units.AlmostEqual":                   true,
	"internal/workload.Orders":                     true,
}

// stdInterfaceMethods are methods the standard library calls through an
// interface (fmt.Stringer, error, errors.Is/As/Unwrap, http.Handler,
// io.Reader/Writer/Closer, sort.Interface, heap.Interface, json).
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

func TestExportsHaveCallers(t *testing.T) {
	type export struct {
		dir, recv, name string
		pos             token.Position
	}
	var exports []export
	refs := map[string]bool{}     // "dir.F": F of dir named, in dir or as p.F
	selected := map[string]bool{} // every .M selected anywhere
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> dir
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			if !strings.HasPrefix(p, "knlmlm/") {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = strings.TrimPrefix(p, "knlmlm/")
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			exports = append(exports, export{dir, recvName(fd), fd.Name.Name, fset.Position(fd.Pos())})
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				// A declaration's own name is not a reference to it.
				if fd.Body != nil {
					inspectRefs(fd.Body, dir, imports, refs, selected)
				}
				continue
			}
			inspectRefs(decl, dir, imports, refs, selected)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	seen := map[string]bool{}
	for _, e := range exports {
		key := e.dir + "." + e.name
		called := refs[key]
		if e.recv != "" {
			key = e.dir + "." + e.recv + "." + e.name
			called = selected[e.name] || stdInterfaceMethods[e.name]
		}
		seen[key] = true
		switch {
		case !called && !exportsWithoutCaller[key]:
			uncalled = append(uncalled, key)
			t.Errorf("%s: %s is exported and no non-test file calls it", e.pos, key)
		case called && exportsWithoutCaller[key]:
			t.Errorf("%s: %s has a caller now; take it off exportsWithoutCaller", e.pos, key)
		}
	}
	for key := range exportsWithoutCaller {
		if !seen[key] {
			t.Errorf("exportsWithoutCaller lists %s, which is not an exported function or method any more", key)
		}
	}
	sort.Strings(uncalled)
	for _, key := range uncalled {
		t.Logf("\t%q: true,", key)
	}
}

// recvName is the receiver's type name of a method declaration, without
// pointer or type parameters, or "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// inspectRefs records every identifier and selector under n: p.F through
// an import of this module, a bare F of the file's own package, and the
// name of every selector.
func inspectRefs(n ast.Node, dir string, imports map[string]string, refs, selected map[string]bool) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selected[n.Sel.Name] = true
			if id, ok := n.X.(*ast.Ident); ok {
				if target, ok := imports[id.Name]; ok {
					refs[target+"."+n.Sel.Name] = true
				}
			}
			ast.Inspect(n.X, visit) // n.Sel names a member, not a function of dir
			return false
		case *ast.Ident:
			refs[dir+"."+n.Name] = true
		}
		return true
	}
	ast.Inspect(n, visit)
}
