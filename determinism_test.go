package nfsrdma

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// mapRangeAllowed names the functions of the simulator (non-test code under
// internal/) that may range over a map, each with why the order Go picks
// cannot reach the simulation's output: the loop computes something no order
// changes, or what it collects is sorted before it is used.
var mapRangeAllowed = map[string]string{
	"chaos.pendingSet":                   "collects the set's members, sorted before they are returned",
	"core.(*DataCache).revalidate":       "a maximum over the dirty pages' ends",
	"core.(*DataCache).invalidateFile":   "drops every clean page: removals from the LRU list and the byte and invalidation counts commute",
	"core.(*File).Flush":                 "collects the dirty page indices, sorted before any write-back",
	"ibsim.(*HCA).Watches":               "a count",
	"memreg.(*Manager).evictOldest":      "a minimum over the unique seq of the slab's chunks",
	"rpcrdma.(*ClientTransport).failAll": "collects the pending XIDs, sorted before any call is failed",
	"stats.(*Counters).Slot":             "copies the map into a new one",
	"stats.(*Counters).Reset":            "zeroes every slot",
	"stats.(*Counters).Snapshot":         "collects the counters, sorted by name before they are returned",
	"trace.WriteChrome":                  "collects the still-open Begins' stream indices and the track names, each sorted before use",
	"trace.CheckWQECQE":                  "collects the unfinished requests' ids, sorted before they are reported",
	"trace.Summary":                      "sums, counts and maxima per key; the keys are collected and sorted before anything is printed",
	"vfs.(*Namespace).ReadDir":           "collects the names, sorted before cookies are assigned",
}

// TestNoMapOrderInSimulation is the determinism lint. Go randomises map
// iteration order per loop, so a simulation that walks a map and lets the
// order reach an event, a counter or an output is no longer the same for a
// seed (the data cache's write-back once did). The test type-checks every
// non-test package under internal/ from source, standard library included,
// and fails on each range over a map-typed expression outside
// mapRangeAllowed, and on an allow-list entry that no longer matches one.
func TestNoMapOrderInSimulation(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for _, p := range pkgs {
			var files []*ast.File
			for _, f := range p.Files {
				files = append(files, f)
			}
			sort.Slice(files, func(i, j int) bool { return fset.File(files[i].Pos()).Name() < fset.File(files[j].Pos()).Name() })
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check("repro/"+filepath.ToSlash(dir), fset, files, info); err != nil {
				return err
			}
			for _, f := range files {
				for _, decl := range f.Decls {
					fn := p.Name + ".(package scope)"
					if d, ok := decl.(*ast.FuncDecl); ok {
						name := d.Name.Name
						if d.Recv != nil {
							recv := types.ExprString(d.Recv.List[0].Type)
							if strings.HasPrefix(recv, "*") {
								recv = "(" + recv + ")"
							}
							name = recv + "." + name
						}
						fn = p.Name + "." + name
					}
					ast.Inspect(decl, func(n ast.Node) bool {
						rs, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
							return true
						}
						seen[fn] = true
						if _, ok := mapRangeAllowed[fn]; !ok {
							t.Errorf("%v: %s ranges over the map %s: iterate in a defined order (sorted keys, a slice kept beside the map), or add %s to mapRangeAllowed with why the order cannot be observed",
								fset.Position(rs.For), fn, types.ExprString(rs.X), fn)
						}
						return true
					})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for fn := range mapRangeAllowed {
		if !seen[fn] {
			stale = append(stale, fn)
		}
	}
	sort.Strings(stale)
	for _, fn := range stale {
		t.Errorf("mapRangeAllowed lists %s, which ranges over no map: delete the entry", fn)
	}
}
