package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SelAlias enforces the batch-sharing contract between operators: a
// batch pulled from a child (or received as a parameter) is the
// child's property, and its Sel selection vector usually aliases a
// buffer the child reuses across Next calls. Writing through that
// slice — element assignment, appending onto its backing array, or
// truncating it in place — corrupts the child's state for the next
// batch (the core.Limit bug class). The canonical fix is a private
// copy: allocate a fresh slice, copy the live prefix, and install that
// with a plain field assignment.
//
// A write is allowed once the function has re-owned the field by
// assigning a freshly allocated slice (or nil) to it.
//
// The same aliasing bites a batch's own user. b.Sel is usually a view of
// b's selection buffer, and every Sel* kernel reached through
// b.MutableSel writes that buffer. So a Sel saved to a local, then the
// batch handed to a call, then the local assigned back — "restore the
// live set and evaluate the next disjunct" — re-installs positions the
// call has already overwritten (the orPred bug class: OR below any
// earlier filter returned wrong rows). The fix is to evaluate on a view
// batch with its own buffer and leave b.Sel alone.
var SelAlias = &Analyzer{
	Name: "selalias",
	Doc: "operators must not mutate a child batch's shared Sel slice in " +
		"place; copy it first",
	Run: runSelAlias,
}

func runSelAlias(pass *Pass) {
	mut := selMutators(pass)
	for _, fd := range funcDecls(pass) {
		checkSelAliasFunc(pass, fd, mut)
		checkSelRestore(pass, fd)
	}
}

// paramKey identifies one slice parameter of an in-package function.
type paramKey struct {
	fn  *types.Func
	idx int
}

// selMutators computes, by fixpoint over the package's call graph,
// which function parameters are written through (index assignment,
// append onto the same backing array, or forwarding to another
// mutator). Cross-package callees are assumed read-only — the engine's
// kernel primitives take destination buffers explicitly, so a shared
// Sel handed across a package boundary is already a design smell the
// other rules catch.
func selMutators(pass *Pass) map[paramKey]bool {
	decls := funcDecls(pass)
	mutates := map[paramKey]bool{}
	// edges[to] lists params that become mutators when `to` is one.
	edges := map[paramKey][]paramKey{}
	for fn, fd := range decls {
		paramIdx := map[types.Object]int{}
		i := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := objOf(pass.Info, name); obj != nil {
					if _, ok := obj.Type().Underlying().(*types.Slice); ok {
						paramIdx[obj] = i
					}
				}
				i++
			}
		}
		if len(paramIdx) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for li, lhs := range n.Lhs {
					if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if id, ok := ast.Unparen(ix.X).(*ast.Ident); ok {
							if idx, ok := paramIdx[objOf(pass.Info, id)]; ok {
								mutates[paramKey{fn, idx}] = true
							}
						}
					}
					// p = append(p, ...) writes the shared backing array
					// whenever capacity allows.
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && li < len(n.Rhs) {
						if idx, ok := paramIdx[objOf(pass.Info, id)]; ok {
							if base, ok := appendBase(n.Rhs[li]); ok {
								if bid := rootIdent(base); bid != nil && objOf(pass.Info, bid) == objOf(pass.Info, id) {
									mutates[paramKey{fn, idx}] = true
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, n)
				if callee == nil {
					return true
				}
				if _, inPkg := decls[callee]; !inPkg {
					return true
				}
				for ai, arg := range n.Args {
					id := rootIdent(arg)
					if id == nil {
						continue
					}
					if idx, ok := paramIdx[objOf(pass.Info, id)]; ok {
						to := paramKey{callee, ai}
						edges[to] = append(edges[to], paramKey{fn, idx})
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for to, froms := range edges {
			if !mutates[to] {
				continue
			}
			for _, from := range froms {
				if !mutates[from] {
					mutates[from] = true
					changed = true
				}
			}
		}
	}
	return mutates
}

// appendBase returns the first argument of an append call.
func appendBase(e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || calleeName(call) != "append" || len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

func checkSelAliasFunc(pass *Pass, fd *ast.FuncDecl, mut map[paramKey]bool) {
	foreign := map[types.Object]bool{} // batches owned by someone else
	owned := map[types.Object]bool{}   // foreign batches whose Sel was re-owned
	fresh := map[types.Object]bool{}   // locally allocated slices

	// Batch parameters arrive owned by the caller.
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := objOf(pass.Info, name); obj != nil && isBatch(obj.Type()) {
				foreign[obj] = true
			}
		}
	}

	// selBase resolves the identifier behind <batch>.Sel if the batch is
	// a tracked foreign variable still aliasing its child's slice.
	hotSel := func(e ast.Expr) (types.Object, bool) {
		base, ok := asSelOfBatch(pass.Info, e)
		if !ok {
			return nil, false
		}
		id, ok := ast.Unparen(base).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj := objOf(pass.Info, id)
		return obj, obj != nil && foreign[obj] && !owned[obj]
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for li, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[li]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				lhs := ast.Unparen(lhs)
				if id, ok := lhs.(*ast.Ident); ok && rhs != nil {
					obj := objOf(pass.Info, id)
					if obj == nil {
						continue
					}
					switch r := ast.Unparen(rhs).(type) {
					case *ast.CallExpr:
						if li == 0 && isOperatorNextResult(pass.Info, r) {
							foreign[obj] = true // pulled from a child operator
						}
						if calleeName(r) == "make" {
							fresh[obj] = true
						}
					case *ast.Ident:
						if other := objOf(pass.Info, r); other != nil {
							if foreign[other] && !owned[other] {
								foreign[obj] = true
							}
							if fresh[other] {
								fresh[obj] = true
							}
						}
					}
					continue
				}
				// <batch>.Sel = ...
				if obj, hot := hotSel(lhs); hot && rhs != nil {
					switch r := ast.Unparen(rhs).(type) {
					case *ast.CallExpr:
						if base, ok := appendBase(rhs); ok {
							if bobj, sameBatch := hotSelRoot(pass, base, obj); sameBatch && bobj == obj {
								pass.Reportf(n.Pos(),
									"append reuses the child batch's shared Sel backing array; copy into a fresh slice first")
								continue
							}
							// append onto a fresh base re-owns the field
							if bid := rootIdent(base); bid != nil && fresh[objOf(pass.Info, bid)] {
								owned[obj] = true
								continue
							}
						}
						if calleeName(r) == "make" {
							owned[obj] = true
							continue
						}
						owned[obj] = true // call results are fresh values
					case *ast.SliceExpr:
						if bobj, sameBatch := hotSelRoot(pass, r, obj); sameBatch && bobj == obj {
							pass.Reportf(n.Pos(),
								"truncates the child batch's shared Sel in place; install a private copy instead")
							continue
						}
					case *ast.Ident:
						if r.Name == "nil" || fresh[objOf(pass.Info, r)] {
							owned[obj] = true
						}
					}
					continue
				}
				// <batch>.Sel[i] = ...
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if _, hot := hotSel(ix.X); hot {
						pass.Reportf(n.Pos(),
							"writes through the child batch's shared Sel slice; the child reuses it on its next batch")
					}
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if _, hot := hotSel(ix.X); hot {
					pass.Reportf(n.Pos(),
						"writes through the child batch's shared Sel slice; the child reuses it on its next batch")
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass.Info, n)
			if callee == nil {
				return true
			}
			for ai, arg := range n.Args {
				target := ast.Unparen(arg)
				if sl, ok := target.(*ast.SliceExpr); ok {
					target = ast.Unparen(sl.X)
				}
				if _, hot := hotSel(target); hot && mut[paramKey{callee, ai}] {
					pass.Reportf(arg.Pos(),
						"passes the child batch's shared Sel to %s, which mutates its argument; pass a private copy",
						callee.Name())
				}
			}
		}
		return true
	})
}

// hotSelRoot reports whether e is rooted in want's .Sel selector
// (b.Sel, b.Sel[:k], b.Sel[i:j]), returning the batch object.
func hotSelRoot(pass *Pass, e ast.Expr, want types.Object) (types.Object, bool) {
	target := ast.Unparen(e)
	if sl, ok := target.(*ast.SliceExpr); ok {
		target = ast.Unparen(sl.X)
	}
	base, ok := asSelOfBatch(pass.Info, target)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := objOf(pass.Info, id)
	return obj, obj == want
}

// checkSelRestore flags `x := b.Sel; …f(b)…; b.Sel = x`: a batch's Sel
// saved to a local and assigned back in a function that, after the save,
// hands the batch to a call (or calls b.MutableSel itself) which may
// have rewritten the buffer x aliases. The check ignores control flow
// between the call and the restore on purpose: the restore at the top of
// a loop body runs after the call further down it.
func checkSelRestore(pass *Pass, fd *ast.FuncDecl) {
	batchIdent := func(e ast.Expr) types.Object {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := objOf(pass.Info, id); obj != nil && isBatch(obj.Type()) {
			return obj
		}
		return nil
	}
	type site struct {
		batch types.Object
		pos   token.Pos
		name  string
		save  token.Pos // restores only: where the local was read from b.Sel
	}
	saved := map[types.Object]site{} // local slice → the batch.Sel it was read from
	var calls, restores []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				rhs := ast.Unparen(n.Rhs[i])
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if sl, ok := rhs.(*ast.SliceExpr); ok {
						rhs = ast.Unparen(sl.X)
					}
					if base, ok := asSelOfBatch(pass.Info, rhs); ok {
						if b := batchIdent(base); b != nil {
							saved[objOf(pass.Info, id)] = site{batch: b, pos: n.Pos()}
						}
					}
				} else if base, ok := asSelOfBatch(pass.Info, lhs); ok {
					if id, ok := rhs.(*ast.Ident); ok {
						if sv, ok := saved[objOf(pass.Info, id)]; ok && sv.batch == batchIdent(base) {
							restores = append(restores, site{batch: sv.batch, pos: n.Pos(), name: id.Name, save: sv.pos})
						}
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "MutableSel" {
				if b := batchIdent(sel.X); b != nil {
					calls = append(calls, site{batch: b, pos: n.Pos(), name: "MutableSel"})
				}
			}
			for _, arg := range n.Args {
				if b := batchIdent(arg); b != nil {
					calls = append(calls, site{batch: b, pos: n.Pos(), name: calleeName(n)})
				}
			}
		}
		return true
	})
	for _, r := range restores {
		for _, c := range calls {
			if c.batch == r.batch && c.pos > r.save {
				pass.Reportf(r.pos,
					"re-installs %s, a Sel saved before %s received the batch and may have overwritten its backing array; evaluate on a view batch with its own buffer",
					r.name, c.name)
				break
			}
		}
	}
}
