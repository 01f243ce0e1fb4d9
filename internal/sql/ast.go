package sql

import "slices"

// AST node definitions. The parser produces these; the planner lowers
// them onto the algebra with names resolved against the catalog.

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
}

func (*SelectStmt) stmt() {}

// SetOpStmt combines two queries with UNION [ALL], EXCEPT or
// INTERSECT. Chains fold left-associatively, so Left may itself be a
// SetOpStmt. ORDER BY and LIMIT apply to the combined result.
type SetOpStmt struct {
	Op          string // "union", "union all", "except", "intersect"
	Left, Right Stmt   // *SelectStmt or *SetOpStmt
	OrderBy     []OrderItem
	Limit       int64 // -1 when absent
}

func (*SetOpStmt) stmt() {}

// SelectItem is one projection (Star means `*`).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// JoinClause is `JOIN t ON l = r [AND l2 = r2 ...]`.
type JoinClause struct {
	Kind  string // "inner", "left", "semi", "anti"
	Table TableRef
	On    []OnEq
}

// OnEq is one equality in an ON clause.
type OnEq struct{ L, R Expr }

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// CreateStmt is CREATE TABLE.
type CreateStmt struct {
	Table string
	Cols  []CreateCol
}

func (*CreateStmt) stmt() {}

// CreateCol is one column definition.
type CreateCol struct {
	Name     string
	Type     string // BIGINT | DOUBLE | VARCHAR | BOOLEAN | DATE
	Nullable bool
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*InsertStmt) stmt() {}

// UpdateStmt is UPDATE ... SET ... WHERE. SetCols and SetExprs are
// parallel slices in source order (deterministic errors).
type UpdateStmt struct {
	Table    string
	SetCols  []string
	SetExprs []Expr
	Where    Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// Expr is a parsed scalar expression.
type Expr interface{ expr() }

// Ident is a possibly qualified column reference.
type Ident struct{ Qualifier, Name string }

// NumLit is an unparsed numeric literal.
type NumLit struct{ Text string }

// StrLit is a string literal.
type StrLit struct{ Val string }

// DateLit is DATE 'yyyy-mm-dd'.
type DateLit struct{ Val string }

// BoolLit is TRUE/FALSE.
type BoolLit struct{ Val bool }

// NullLit is NULL.
type NullLit struct{}

// ParamExpr is a `?` or `$N` placeholder. Idx is the 1-based parameter
// ordinal: `?` placeholders number left to right, `$N` names an ordinal
// explicitly (both styles may mix; the statement's parameter count is
// the highest ordinal seen).
type ParamExpr struct{ Idx int }

// BinExpr is a binary operation (arithmetic, comparison, AND, OR).
type BinExpr struct {
	Op   string
	L, R Expr
}

// NotExpr is NOT e.
type NotExpr struct{ In Expr }

// BetweenExpr is e BETWEEN lo AND hi.
type BetweenExpr struct{ In, Lo, Hi Expr }

// InExpr is e IN (list).
type InExpr struct {
	In   Expr
	List []Expr
}

// LikeExpr is e [NOT] LIKE pattern.
type LikeExpr struct {
	In      Expr
	Pattern string
	Negate  bool
}

// IsNullExpr is e IS [NOT] NULL.
type IsNullExpr struct {
	In     Expr
	Negate bool
}

// CaseExpr is CASE WHEN c THEN a ELSE b END.
type CaseExpr struct{ Cond, Then, Else Expr }

// AggCall is SUM/COUNT/AVG/MIN/MAX(arg) (arg nil for COUNT(*)).
type AggCall struct {
	Fn  string
	Arg Expr
}

// FuncCall is a scalar function (YEAR).
type FuncCall struct {
	Fn  string
	Arg Expr
}

// SubqueryExpr is an uncorrelated scalar subquery: (SELECT <agg> ...).
// The planner requires exactly one select item containing an aggregate
// and no GROUP BY, which guarantees a single row.
type SubqueryExpr struct{ Sel *SelectStmt }

// InSubExpr is e [NOT] IN (SELECT ...) over a one-column subquery.
type InSubExpr struct {
	In     Expr
	Sel    *SelectStmt
	Negate bool
}

func (*Ident) expr()        {}
func (*NumLit) expr()       {}
func (*ParamExpr) expr()    {}
func (*StrLit) expr()       {}
func (*DateLit) expr()      {}
func (*BoolLit) expr()      {}
func (*NullLit) expr()      {}
func (*BinExpr) expr()      {}
func (*NotExpr) expr()      {}
func (*BetweenExpr) expr()  {}
func (*InExpr) expr()       {}
func (*LikeExpr) expr()     {}
func (*IsNullExpr) expr()   {}
func (*CaseExpr) expr()     {}
func (*AggCall) expr()      {}
func (*FuncCall) expr()     {}
func (*SubqueryExpr) expr() {}
func (*InSubExpr) expr()    {}

// MapExpr rebuilds an expression top-down, and is the one place outside
// the parser, lower and RenderExpr that knows an expression's operands.
// f sees each node before its operands: a non-nil result replaces the
// node and ends the descent there; nil continues into the operands —
// aggregate arguments, IN-list members and an IN-subquery's probe side
// included — and the node is copied only if one of them changed. A
// subquery's own statement (Sel) belongs to another scope and is never
// entered. A nil e maps to nil.
func MapExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := f(e); r != nil {
		return r
	}
	rec := func(x Expr) Expr { return MapExpr(x, f) }
	switch t := e.(type) {
	case *BinExpr:
		if l, r := rec(t.L), rec(t.R); l != t.L || r != t.R {
			return &BinExpr{Op: t.Op, L: l, R: r}
		}
	case *NotExpr:
		if in := rec(t.In); in != t.In {
			return &NotExpr{In: in}
		}
	case *BetweenExpr:
		if in, lo, hi := rec(t.In), rec(t.Lo), rec(t.Hi); in != t.In || lo != t.Lo || hi != t.Hi {
			return &BetweenExpr{In: in, Lo: lo, Hi: hi}
		}
	case *InExpr:
		in, list := rec(t.In), t.List
		for i, m := range t.List {
			if x := rec(m); x != m {
				if &list[0] == &t.List[0] {
					list = slices.Clone(t.List)
				}
				list[i] = x
			}
		}
		if in != t.In || len(list) > 0 && &list[0] != &t.List[0] {
			return &InExpr{In: in, List: list}
		}
	case *LikeExpr:
		if in := rec(t.In); in != t.In {
			return &LikeExpr{In: in, Pattern: t.Pattern, Negate: t.Negate}
		}
	case *IsNullExpr:
		if in := rec(t.In); in != t.In {
			return &IsNullExpr{In: in, Negate: t.Negate}
		}
	case *CaseExpr:
		if c, th, el := rec(t.Cond), rec(t.Then), rec(t.Else); c != t.Cond || th != t.Then || el != t.Else {
			return &CaseExpr{Cond: c, Then: th, Else: el}
		}
	case *AggCall:
		if arg := rec(t.Arg); arg != t.Arg {
			return &AggCall{Fn: t.Fn, Arg: arg}
		}
	case *FuncCall:
		if arg := rec(t.Arg); arg != t.Arg {
			return &FuncCall{Fn: t.Fn, Arg: arg}
		}
	case *InSubExpr:
		if in := rec(t.In); in != t.In {
			return &InSubExpr{In: in, Sel: t.Sel, Negate: t.Negate}
		}
	}
	return e
}
