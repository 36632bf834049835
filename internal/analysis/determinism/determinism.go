// Package determinism forbids the sources of run-to-run nondeterminism
// in the simulator core. Bit-identical replay across gang widths, chunk
// sizes and process restarts is the repository's foundational invariant
// — every golden fingerprint, frozen job key and gang-versus-solo test
// assumes it — and the cheapest place to enforce it is at the source
// level: no wall-clock reads, no global math/rand, no goroutines, and
// no map iteration whose order can escape into results.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// CorePackages are the simulator-core import paths the analyzer guards:
// everything between the ISA and the chip model, plus the stream/policy
// layers whose outputs feed fingerprints.
var CorePackages = []string{
	"repro/internal/sim",
	"repro/internal/isa",
	"repro/internal/mem",
	"repro/internal/pipeline",
	"repro/internal/cache",
	"repro/internal/bus",
	"repro/internal/branch",
	"repro/internal/synth",
	"repro/internal/trace",
	"repro/internal/policy",
	"repro/internal/energy",
	"repro/internal/cmp",
	"repro/internal/rng",
}

// keyFiles are the campaign files that derive content-hash job keys;
// they obey the same determinism rules as the core (the scheduler and
// store files legitimately use goroutines and the clock, so the whole
// package cannot be matched).
var keyFiles = []string{"campaign.go", "gang.go", "trace.go", "wire.go"}

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name:  "determinism",
	Doc:   "forbid wall-clock, global math/rand, escaping map iteration order and goroutines in the simulator core",
	Match: analysis.MatchFiles("repro/internal/campaign", keyFiles, analysis.MatchPackages(CorePackages...)),
	Run:   run,
}

// wallClock are the time package functions that read or depend on the
// wall clock (or a timer), none of which belong in the simulator core.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

// globalRand are the math/rand (and v2) top-level functions backed by
// the shared global source. Explicitly seeded *rand.Rand values are
// fine — their stream is a function of the seed.
var globalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint": true, "UintN": true,
	"Uint32N": true, "Uint64N": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Read": true,
	"Seed": true,
}

// sortFuncs are the sort-package entry points that discharge an
// order-escape: appending map keys then sorting is the canonical
// deterministic iteration pattern.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in simulator core: a simulation runs on its caller's goroutine; parallelism belongs to the campaign scheduler")
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, file, n)
			case *ast.Ident:
				if obj := pass.Info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" {
					pass.Reportf(n.Pos(), "crypto/rand.%s in simulator core: results must be a function of the seed", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. *rand.Rand.Intn, time.Time.Sub) are seed- or value-derived
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			pass.Reportf(call.Pos(), "wall-clock time.%s in simulator core: simulated time is the only clock here", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if globalRand[fn.Name()] {
			pass.Reportf(call.Pos(), "global %s.%s draws from the shared process-wide source; use a seeded rng (internal/rng) instead", pathBase(fn.Pkg().Path()), fn.Name())
		}
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// checkRange flags map iterations whose order escapes: the body feeds
// an order-sensitive sink (I/O, a Write method such as a hash, a
// channel send) directly, or appends to an outer slice that is never
// subsequently sorted in the enclosing function. `//mflush:order-ok` on
// the range statement suppresses the finding for iterations whose order
// is genuinely irrelevant.
func checkRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.StmtMarked(file, rng, analysis.MarkOrderOK) {
		return
	}

	// appended maps outer slice objects to the first append position.
	appended := make(map[types.Object]token.Pos)
	reported := false
	report := func(pos token.Pos, what string) {
		if !reported {
			pass.Reportf(pos, "map iteration order escapes via %s; sort first or mark the loop //mflush:order-ok", what)
			reported = true
		}
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			report(n.Pos(), "a channel send")
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(id)
				if obj == nil || obj.Pos() == token.NoPos {
					continue
				}
				if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
					if _, seen := appended[obj]; !seen {
						appended[obj] = n.Pos()
					}
				}
			}
		case *ast.CallExpr:
			if fn := pass.Callee(n); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
					report(n.Pos(), "fmt."+fn.Name())
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && strings.HasPrefix(fn.Name(), "Write") {
					report(n.Pos(), "a "+fn.Name()+" call (hash/stream state)")
				}
			}
		}
		return true
	})

	if reported || len(appended) == 0 {
		return
	}
	// An outer append is fine when the slice is sorted after the loop.
	fd := enclosingFunc(file, rng.Pos())
	for obj, pos := range appended {
		if fd != nil && sortedAfter(pass, fd, obj, rng.End()) {
			continue
		}
		pass.Reportf(pos, "map iteration order escapes via append to %s, which is never sorted; sort it or mark the loop //mflush:order-ok", obj.Name())
	}
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// enclosingFunc finds the function declaration containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sort.*/slices.Sort*
// call positioned after `after` within fd.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || found {
			return !found
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		isSort := (fn.Pkg().Path() == "sort" && sortFuncs[fn.Name()]) ||
			(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !isSort {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
		}
		return true
	})
	return found
}
