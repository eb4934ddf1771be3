package timedice_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowed names the exported package-level functions ("pkg.Func")
// and methods ("pkg.Type.Method") under internal/ that may stay without a
// non-test caller, each with its reason.
var unreachableAllowed = map[string]string{
	"timedice/internal/core.CandidateSearch":             "test reference: the uncached Algorithm-1 search the production Pick is pinned against",
	"timedice/internal/core.SchedulabilityTest":          "test reference: the plain Algorithm-3 test the decision kernel is pinned against",
	"timedice/internal/core.Select":                      "test reference: Step 2 of Algorithm 1 over snapshots, the reference policy's lottery",
	"timedice/internal/core.Snapshot":                    "test reference: reads the live servers into the reference search's input",
	"timedice/internal/infotheory.BinaryChannelCapacity": "test reference: the closed form the Blahut-Arimoto capacity is checked against",
	"timedice/internal/check.FoldEvents":                 "test reference: folds a recorded stream for the snapshot, fork and bundle digest checks",
	"timedice/internal/gen.Decode":                       "test reference: reads simfuzz's reproducer blobs back for the bundle and fuzz tests",
	"timedice/internal/workload.Random":                  "test reference: the random-system fixture of five packages' tests",
	"timedice/internal/workload.DefaultRandomOptions":    "test reference: the options of the random-system fixture",
	"timedice/internal/core.SetCacheMutant":              "mutation hook: CI's mutation smoke step switches it",
	"timedice/internal/core.SetFastPathMutant":           "mutation hook: CI's mutation smoke step switches it",
	"timedice/internal/server.SetReplenishMutant":        "mutation hook: CI's mutation smoke step switches it",
	"timedice/internal/vtime.SetRecipMutant":             "mutation hook: CI's mutation smoke step switches it",

	"timedice/internal/engine.System.Restore":                    "snapshot reader: the golden wire-format test and FuzzSnapshotBytes decode through it, and ROADMAP item 8 (hostile snapshots) keeps it",
	"timedice/internal/infotheory.JointCounts.MutualInformation": "estimator kept for ROADMAP items 3 and 12 (exact and residual leakage)",
	"timedice/internal/experiments.Fig15Result.Bar":              "test accessor: the Fig. 15 benchmark and tests read one bar by policy and load",
	"timedice/internal/experiments.RateResult.Point":             "test accessor: the rate benchmark and tests read one point by policy and window",
	"timedice/internal/rng.Rand.NormFloat64":                     "test fixture: Gaussian draws for the stats, detect and ml tests",
	"timedice/internal/sched.TDMA.Frame":                         "test accessor: the sched and engine tests check the major frame",
}

// TestNoUnreachableExports fails when an exported package-level function
// or exported method under internal/ is referenced only from _test.go files
// (or not at all). Every non-test Go file in the tree counts as a caller,
// the facade, the examples and the separate cmd/benchrec module included.
// The scan is syntactic. For a function, a package-qualified selector or,
// inside the declaring package, a bare identifier counts as a reference,
// and a function's calls to itself do not. For a method, which the scan
// cannot resolve to a type, any selector with the method's name counts, so
// it errs toward keeping a method (an interface call or a same-named method
// elsewhere reaches it).
func TestNoUnreachableExports(t *testing.T) {
	const module = "timedice"
	type file struct {
		pkg string // import path of the file's directory
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgName := map[string]string{} // import path -> package clause name
	declared := map[string]token.Pos{}
	methods := map[string]token.Pos{} // "pkg.Type.Method" -> position
	for _, f := range files {
		pkgName[f.pkg] = f.ast.Name.Name
		if !strings.HasPrefix(f.pkg, module+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				declared[f.pkg+"."+fn.Name.Name] = fn.Pos()
			} else {
				methods[f.pkg+"."+recvName(fn.Recv.List[0].Type)+"."+fn.Name.Name] = fn.Pos()
			}
		}
	}

	referenced := map[string]bool{}
	selected := map[string]bool{} // every selector name in a non-test file
	for _, f := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range f.ast.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := pkgName[p]
			if im.Name != nil {
				name = im.Name.Name
			}
			if name != "" {
				imports[name] = p
			}
		}
		self := "" // the package-level function being walked
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					self = n.Name.Name
				} else {
					self = ""
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				self = ""
				return false
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						referenced[p+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				// A composite-literal key is a field name, never a function.
				if _, ok := n.Key.(*ast.Ident); !ok {
					ast.Inspect(n.Key, visit)
				}
				ast.Inspect(n.Value, visit)
				return false
			case *ast.Ident:
				if n.Name != self {
					referenced[f.pkg+"."+n.Name] = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			ast.Inspect(d, visit)
		}
	}

	var unreached []string
	for name, pos := range methods {
		if selected[name[strings.LastIndex(name, ".")+1:]] {
			if _, ok := unreachableAllowed[name]; ok {
				t.Errorf("%s: allowlisted as unreachable but its name is selected outside tests; drop its entry", name)
			}
			continue
		}
		if _, ok := unreachableAllowed[name]; !ok {
			unreached = append(unreached, fset.Position(pos).String()+": "+name)
		}
	}
	for name, pos := range declared {
		if referenced[name] {
			if _, ok := unreachableAllowed[name]; ok {
				t.Errorf("%s: allowlisted as unreachable but has a non-test caller; drop its entry", name)
			}
			continue
		}
		if _, ok := unreachableAllowed[name]; !ok {
			unreached = append(unreached, fset.Position(pos).String()+": "+name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s has no caller outside _test.go files: delete it, move it into a test file, or allowlist it with a reason", u)
	}
	for name := range unreachableAllowed {
		_, fn := declared[name]
		_, method := methods[name]
		if !fn && !method {
			t.Errorf("allowlist entry %s names no exported function or method under internal/", name)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
