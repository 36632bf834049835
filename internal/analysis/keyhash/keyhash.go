// Package keyhash enforces key/hash coverage on `//mflush:keyed`
// structs. A keyed struct declares, in its annotation, the methods that
// derive its content-addressed identity (campaign Job.Key, Tweak.canon,
// WireJob.Job); every field must then either be read —
// directly or through transitively-called same-package helpers — by at
// least one of those methods, or carry an explicit
// `//mflush:keyed-ignore` opt-out. The invariant this pins down is the
// one the campaign store's dedup and the frozen-key compatibility tests
// rely on: adding a semantically meaningful field to a keyed struct
// without folding it into the key silently aliases distinct jobs onto
// one result. The analyzer turns that silent aliasing into a lint
// failure at the field declaration.
//
// Coverage is judged by explicit field reads: a method that consumes
// the whole struct opaquely (reflection, encoding the value wholesale)
// does not mark fields consumed. Key methods in this repository format
// fields individually, which is also what keeps their output stable —
// the restriction is the point, not a shortcut.
package keyhash

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the keyed-struct coverage check. It matches everywhere;
// only structs recorded in Facts.Keyed are examined.
var Analyzer = &analysis.Analyzer{
	Name: "keyhash",
	Doc:  "every field of a //mflush:keyed struct must feed its key methods or be marked //mflush:keyed-ignore",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				ks := pass.Facts.Keyed[analysis.TypeID(obj)]
				if ks == nil {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				checkStruct(pass, obj, st, ks)
			}
		}
	}
	return nil
}

// checkStruct verifies one keyed struct: resolve the key methods, walk
// their bodies (following same-package calls), and report every field
// neither read nor ignored.
func checkStruct(pass *analysis.Pass, obj *types.TypeName, st *types.Struct, ks *analysis.KeyedStruct) {
	fields := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}

	consumed := make(map[*types.Var]bool)
	visited := make(map[*types.Func]bool)
	var queue []*ast.FuncDecl

	for _, name := range ks.Methods {
		fn := method(pass, obj, name)
		if fn == nil {
			pass.Reportf(ks.Pos, "//mflush:keyed names method %s, but %s has no such method", name, obj.Name())
			continue
		}
		fd := pass.FuncDecls()[fn]
		if fd == nil || fd.Body == nil {
			pass.Reportf(ks.Pos, "//mflush:keyed method %s.%s has no body in this package", obj.Name(), name)
			continue
		}
		visited[fn] = true
		queue = append(queue, fd)
	}

	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := pass.Info.Uses[n].(*types.Var); ok && fields[v] {
					consumed[v] = true
				}
			case *ast.CallExpr:
				callee := pass.Callee(n)
				if callee == nil || visited[callee] {
					return true
				}
				if cd := pass.FuncDecls()[callee]; cd != nil && cd.Body != nil {
					visited[callee] = true
					queue = append(queue, cd)
				}
			}
			return true
		})
	}

	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if consumed[fv] || ks.Ignore[fv.Name()] {
			continue
		}
		pass.Reportf(fv.Pos(),
			"field %s of //mflush:keyed struct %s is not consumed by %s; fold it into the key or mark it //mflush:keyed-ignore",
			fv.Name(), obj.Name(), strings.Join(ks.Methods, "/"))
	}
}

// method resolves a key method by name on obj's type (value or pointer
// receiver).
func method(pass *analysis.Pass, obj *types.TypeName, name string) *types.Func {
	o, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pass.Pkg, name)
	fn, _ := o.(*types.Func)
	return fn
}
