package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The `//mflush:` annotation vocabulary. Annotations are the contract
// surface between the code and the analyzers: hotpath and keyed carry
// semantic obligations the analyzers enforce, the rest are targeted
// escapes. ScanFacts collects them module-wide; anything spelled
// `//mflush:` that the scanner does not recognize — an unknown marker,
// or a known marker attached to the wrong kind of node — is recorded as
// a Stray, which mflushvet (and the in-tree self-check test) treats as
// an error, so an annotation can never silently rot into a no-op.
const (
	// MarkHotpath on a function declaration: the body must stay free of
	// allocating constructs and may only call hot-path, hotpath-ok or
	// whitelisted functions (hotpath analyzer).
	MarkHotpath = "hotpath"
	// MarkHotpathOK on a function declaration: callable from hot paths
	// without being checked itself — the audited boundary into code
	// whose cost the alloc-budget benchmarks pin down directly.
	MarkHotpathOK = "hotpath-ok"
	// MarkKeyed on a struct type, followed by one or more method names:
	// every field must be consumed by (the transitive bodies of) those
	// methods or carry keyed-ignore (keyhash analyzer).
	MarkKeyed = "keyed"
	// MarkKeyedIgnore on a struct field: excluded from key material on
	// purpose (labels, display names).
	MarkKeyedIgnore = "keyed-ignore"
	// MarkOrderOK on a range statement: this map iteration's order is
	// genuinely irrelevant; suppress the determinism finding.
	MarkOrderOK = "order-ok"
	// MarkCold on a statement inside a hot-path function: the subtree is
	// an error/crash path taken at most once per failure, not per cycle;
	// hotpath checks skip it.
	MarkCold = "cold"
	// MarkGuardedBy on a struct field, followed by a mutex field name:
	// every access must lexically hold that mutex on the same receiver
	// (lockorder analyzer).
	MarkGuardedBy = "guarded-by"
	// MarkLocksOK on a lock-acquiring statement: intentional nesting;
	// suppress the lockorder finding.
	MarkLocksOK = "locks-ok"
)

// markPrefix introduces every annotation.
const markPrefix = "mflush:"

// Mark is one parsed `//mflush:name args` annotation.
type Mark struct {
	// Name is the marker after the prefix ("hotpath", "keyed", ...).
	Name string
	// Args are the whitespace-separated arguments after the name.
	Args []string
	// Pos locates the comment.
	Pos token.Pos
}

// statement-level marks (consumed positionally, so attachment cannot be
// validated; everything else must sit on the node kind its entry in
// nodeMarks says).
var stmtMarks = map[string]bool{
	MarkOrderOK: true,
	MarkCold:    true,
	MarkLocksOK: true,
}

// declaration-level marks and the node kind each attaches to.
var declMarks = map[string]string{
	MarkHotpath:     "function",
	MarkHotpathOK:   "function",
	MarkKeyed:       "struct type",
	MarkKeyedIgnore: "struct field",
	MarkGuardedBy:   "struct field",
}

// parseMark parses one comment line; ok is false when the line carries
// no mflush annotation at all. A trailing `// want ...` expectation (the
// analysistest syntax) is not part of the annotation and is cut off.
func parseMark(c *ast.Comment) (Mark, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, markPrefix) {
		return Mark{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, markPrefix))
	for i, f := range fields {
		if strings.HasPrefix(f, "//") {
			fields = fields[:i]
			break
		}
	}
	if len(fields) == 0 {
		return Mark{Name: "", Pos: c.Pos()}, true
	}
	return Mark{Name: fields[0], Args: fields[1:], Pos: c.Pos()}, true
}

// FileMarks indexes a file's statement-level marks by line.
func FileMarks(fset *token.FileSet, file *ast.File) map[int][]Mark {
	out := make(map[int][]Mark)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			mk, ok := parseMark(c)
			if !ok || !stmtMarks[mk.Name] {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], mk)
		}
	}
	return out
}

// KeyedStruct is the keyhash obligation of one annotated struct.
type KeyedStruct struct {
	// Methods are the key-derivation methods named by the annotation;
	// the union of their transitive field reads must cover the struct.
	Methods []string
	// Ignore holds the fields marked keyed-ignore.
	Ignore map[string]bool
	// Pos locates the annotation (for diagnostics).
	Pos token.Pos
}

// Stray is an annotation the scanner could not bind: an unknown marker
// or a known marker on the wrong node kind.
type Stray struct {
	// Pos locates the offending comment.
	Pos token.Pos
	// Message explains what is wrong with it.
	Message string
}

// Facts is the module-wide annotation table, built once per run over
// every package the driver loaded and shared by all passes. IDs are
// FuncID/TypeID strings, so facts recorded while source-checking one
// package resolve against objects imported from export data by another.
type Facts struct {
	// Hotpath holds FuncIDs of //mflush:hotpath functions.
	Hotpath map[string]bool
	// HotpathOK holds FuncIDs of //mflush:hotpath-ok functions.
	HotpathOK map[string]bool
	// Keyed maps TypeIDs of //mflush:keyed structs to their obligation.
	Keyed map[string]*KeyedStruct
	// GuardedBy maps "TypeID.Field" to the guarding mutex field name.
	GuardedBy map[string]string
	// Strays are the annotations that failed to bind anywhere.
	Strays []Stray
}

// NewFacts returns an empty table.
func NewFacts() *Facts {
	return &Facts{
		Hotpath:   make(map[string]bool),
		HotpathOK: make(map[string]bool),
		Keyed:     make(map[string]*KeyedStruct),
		GuardedBy: make(map[string]string),
	}
}

// ScanFacts folds one type-checked package's annotations into f. Call
// it for every module package before running analyzers, so cross-
// package facts (a hot-path callee in another package) are complete.
func (f *Facts) ScanFacts(fset *token.FileSet, files []*ast.File, info *types.Info) {
	for _, file := range files {
		f.scanFile(fset, file, info)
	}
}

func (f *Facts) scanFile(fset *token.FileSet, file *ast.File, info *types.Info) {
	// consumed tracks comments bound to a declaration so the stray sweep
	// can flag the rest.
	consumed := make(map[*ast.Comment]bool)

	bind := func(doc *ast.CommentGroup, want func(Mark) bool) {
		if doc == nil {
			return
		}
		for _, c := range doc.List {
			mk, ok := parseMark(c)
			if !ok {
				continue
			}
			if want(mk) {
				consumed[c] = true
			}
		}
	}

	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			bind(d.Doc, func(mk Mark) bool {
				switch mk.Name {
				case MarkHotpath, MarkHotpathOK:
					obj, _ := info.Defs[d.Name].(*types.Func)
					if obj == nil {
						return false
					}
					if mk.Name == MarkHotpath {
						f.Hotpath[FuncID(obj)] = true
					} else {
						f.HotpathOK[FuncID(obj)] = true
					}
					return true
				}
				return false
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, isStruct := ts.Type.(*ast.StructType)
				if !isStruct {
					continue
				}
				obj, _ := info.Defs[ts.Name].(*types.TypeName)
				if obj == nil {
					continue
				}
				var ks *KeyedStruct
				bindKeyed := func(mk Mark) bool {
					if mk.Name != MarkKeyed || len(mk.Args) == 0 {
						return false
					}
					ks = &KeyedStruct{Methods: mk.Args, Ignore: make(map[string]bool), Pos: mk.Pos}
					f.Keyed[TypeID(obj)] = ks
					return true
				}
				// The annotation may sit on the grouped decl or the spec.
				bind(d.Doc, bindKeyed)
				bind(ts.Doc, bindKeyed)
				f.scanStructFields(st, obj, ks, consumed)
			}
		}
	}

	// Stray sweep: every mflush: comment not consumed above and not a
	// legitimate statement-level mark is misattached or unknown.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			mk, ok := parseMark(c)
			if !ok || consumed[c] {
				continue
			}
			switch {
			case stmtMarks[mk.Name]:
			case declMarks[mk.Name] != "":
				f.Strays = append(f.Strays, Stray{
					Pos: c.Pos(),
					Message: fmt.Sprintf(
						"annotation //mflush:%s is not attached to a %s the analyzers recognize",
						mk.Name, declMarks[mk.Name]),
				})
			default:
				f.Strays = append(f.Strays, Stray{
					Pos:     c.Pos(),
					Message: fmt.Sprintf("unknown annotation //mflush:%s (known: %s)", mk.Name, knownMarks()),
				})
			}
		}
	}
}

// scanStructFields binds field-level marks of one struct: guarded-by on
// any struct, keyed-ignore only when the struct is keyed (ks non-nil —
// an ignore mark on an unkeyed struct stays unconsumed and surfaces as
// a stray).
func (f *Facts) scanStructFields(st *ast.StructType, obj *types.TypeName, ks *KeyedStruct, consumed map[*ast.Comment]bool) {
	for _, field := range st.Fields.List {
		for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				mk, ok := parseMark(c)
				if !ok {
					continue
				}
				switch mk.Name {
				case MarkKeyedIgnore:
					if ks == nil {
						continue
					}
					for _, name := range field.Names {
						ks.Ignore[name.Name] = true
					}
					consumed[c] = true
				case MarkGuardedBy:
					if len(mk.Args) == 1 {
						for _, name := range field.Names {
							f.GuardedBy[TypeID(obj)+"."+name.Name] = mk.Args[0]
						}
						consumed[c] = true
					}
				}
			}
		}
	}
}

func knownMarks() string {
	names := make([]string, 0, len(stmtMarks)+len(declMarks))
	for n := range stmtMarks {
		names = append(names, n)
	}
	for n := range declMarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
