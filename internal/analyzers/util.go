package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// funcDecls maps every function object declared in the package to its
// declaration (only those with bodies).
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// calleeFunc resolves the function or method a call invokes, or nil for
// indirect calls (function values, conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified call
		}
	}
	return nil
}

// calleeName is the syntactic name of the called function ("" for
// indirect calls through non-selector expressions).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain (x in x.a.b[i].c), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// namedOf returns the named type of t after stripping pointers/aliases.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgFunc reports whether f is the named function from the package
// with the given path (e.g. the sync mutex methods).
func isPkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

// isCtxCheck reports whether call polls a cancellation context: a
// context.Context Err/Done method call, or a call to a helper named
// ctxErr (the engine's per-batch check in internal/core).
func isCtxCheck(info *types.Info, call *ast.CallExpr) bool {
	if calleeName(call) == "ctxErr" {
		return true
	}
	f := calleeFunc(info, call)
	return isPkgFunc(f, "context", "Err", "Done", "Cause")
}

// containsCtxCheck reports whether any call under n polls a context.
func containsCtxCheck(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCtxCheck(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasMarker reports whether the comment group contains a //vw:<marker>
// annotation line.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isMarkerComment(c.Text, marker) {
			return true
		}
	}
	return false
}

// isMarkerComment reports whether the comment text IS a marker line —
// the marker at the very start, followed by nothing or whitespace — as
// opposed to prose that merely mentions the marker.
func isMarkerComment(text, marker string) bool {
	if !strings.HasPrefix(text, marker) {
		return false
	}
	rest := text[len(marker):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// isBatch reports whether t (after pointer deref) is a named struct
// type called "Batch" carrying a slice field "Sel" — vector.Batch in
// the real tree, or a structural stand-in in fixtures.
func isBatch(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Name() != "Batch" {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Sel" {
			_, isSlice := f.Type().Underlying().(*types.Slice)
			return isSlice
		}
	}
	return false
}

// asSelOfBatch returns (base expr, true) when e is the selector
// <batch>.Sel on a Batch-typed value.
func asSelOfBatch(info *types.Info, e ast.Expr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sel" {
		return nil, false
	}
	if tv, ok := info.Types[sel.X]; ok && isBatch(tv.Type) {
		return sel.X, true
	}
	return nil, false
}

// isOperatorNextResult reports whether call is a method call named Next
// whose first result is a batch pointer — the shape of pulling a child
// operator's output.
func isOperatorNextResult(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Next" {
		return false
	}
	if _, ok := info.Selections[sel]; !ok {
		return false // package-qualified, not a method
	}
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isBatch(t.At(0).Type())
	default:
		return isBatch(t)
	}
}

// objOf resolves an identifier to its object (definition or use).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}
