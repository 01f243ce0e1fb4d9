package sql

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

// TxStmt is BEGIN/COMMIT/ROLLBACK.
type TxStmt struct{ Kind string }

func (*TxStmt) stmt() {}

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
