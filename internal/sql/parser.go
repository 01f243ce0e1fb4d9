package sql

// A single-pass Pratt parser over a statement lexed up front. The parser
// keeps exactly two tokens of lookahead (cur/peek) — enough to
// distinguish `NOT IN`/`NOT LIKE`/`NOT BETWEEN` postfixes — and builds
// the AST out of ordinary heap values: a node is `&T{...}`, a list is
// built with append, and the garbage collector owns all of it.

import (
	"fmt"
	"strconv"
)

// Statement is what Parse returns: the AST and its placeholder count.
type Statement struct {
	// AST is the parsed statement tree.
	AST Stmt
	// NumParams is the number of `?`/`$N` placeholder slots (the
	// highest ordinal seen).
	NumParams int
}

// Release does nothing; it remains only because the frozen benchmark
// calls it (bench/embedded.go:135, bench/staged.go:78). ROADMAP item 10g.
func (s *Statement) Release() {}

// Parse parses one SQL statement. It is the single entry point of the
// front end; errors are *ParseError values carrying byte offset,
// line/column and the offending token.
func Parse(input string) (*Statement, error) {
	// Lex the whole statement up front so the parser advances through a
	// stable array with two pointer moves instead of re-entering the
	// lexer per token. The token array is this call's own and garbage
	// on return: the AST never references tokens. (A stack buffer as in
	// Normalize would be moved to the heap anyway — the parser holds it
	// beside src, whose substrings the AST keeps.)
	toks, err := tokenize(input, nil)
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks, src: input}
	p.peek = &toks[0]
	p.k = 1
	p.advance() // prime cur
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	if p.curSym(symSemi) {
		p.advance()
	}
	if p.cur.kind != tokEOF {
		return nil, p.errf(p.cur, "trailing input")
	}
	return &Statement{AST: stmt, NumParams: p.params}, nil
}

type parser struct {
	src  string // statement text; tokens hold offsets into it
	toks []token
	k    int // index of the token after peek
	cur  *token
	// peek is the second lookahead token.
	peek   *token
	params int
}

// advance moves the two-token window. The token array ends with an EOF
// token, so once k runs off the end peek simply stays parked on it.
func (p *parser) advance() {
	p.cur = p.peek
	if p.k < len(p.toks) {
		p.peek = &p.toks[p.k]
		p.k++
	}
}

func (p *parser) curSym(s symID) bool {
	return p.cur.kind == tokSymbol && p.cur.sym == s
}

func nearText(src string, t *token) string {
	switch t.kind {
	case tokEOF:
		return ""
	case tokString:
		return "'" + rawText(src, t) + "'"
	case tokParam:
		if t.end == t.pos+1 {
			return "?"
		}
		return "$" + rawText(src, t)
	default:
		return rawText(src, t)
	}
}

func (p *parser) errf(t *token, format string, args ...any) error {
	return newParseError(p.src, int(t.pos), nearText(p.src, t), fmt.Sprintf(format, args...))
}

// text returns t's raw text (see rawText).
func (p *parser) text(t *token) string { return rawText(p.src, t) }

func (p *parser) expectSym(s symID, ctx string) error {
	if !p.curSym(s) {
		return p.errf(p.cur, "expected %q in %s", symNames[s], ctx)
	}
	p.advance()
	return nil
}

func (p *parser) expectKw(k kwID, ctx string) error {
	if p.cur.kw != k {
		return p.errf(p.cur, "expected %s in %s", kwNames[k], ctx)
	}
	p.advance()
	return nil
}

// ident consumes an identifier and returns its lower-cased text.
func (p *parser) ident(what string) (string, error) {
	if p.cur.kind != tokIdent {
		return "", p.errf(p.cur, "expected %s", what)
	}
	name := identTok(p.src, p.cur)
	p.advance()
	return name, nil
}

func (p *parser) statement() (Stmt, error) {
	switch p.cur.kw {
	case kwSELECT:
		return p.queryStmt()
	case kwCREATE:
		return p.createStmt()
	case kwINSERT:
		return p.insertStmt()
	case kwUPDATE:
		return p.updateStmt()
	case kwDELETE:
		return p.deleteStmt()
	case kwBEGIN, kwCOMMIT, kwROLLBACK:
		return nil, p.errf(p.cur, "transactions are not supported: each statement commits atomically")
	}
	return nil, p.errf(p.cur, "expected statement")
}

// queryStmt parses SELECT ... [UNION [ALL]|EXCEPT|INTERSECT SELECT ...]*
// [ORDER BY ...] [LIMIT n]. Set operations fold left-associatively and
// ORDER BY/LIMIT bind to the whole chain.
func (p *parser) queryStmt() (Stmt, error) {
	core, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	var stmt Stmt = core
	for {
		var op string
		switch p.cur.kw {
		case kwUNION:
			p.advance()
			op = "union"
			if p.cur.kw == kwALL {
				p.advance()
				op = "union all"
			}
		case kwEXCEPT:
			p.advance()
			op = "except"
		case kwINTERSECT:
			p.advance()
			op = "intersect"
		}
		if op == "" {
			break
		}
		right, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		stmt = &SetOpStmt{Op: op, Left: stmt, Right: right, Limit: -1}
	}
	order, limit, err := p.orderLimit()
	if err != nil {
		return nil, err
	}
	switch t := stmt.(type) {
	case *SelectStmt:
		t.OrderBy, t.Limit = order, limit
	case *SetOpStmt:
		t.OrderBy, t.Limit = order, limit
	}
	return stmt, nil
}

// selectCore parses one SELECT block through HAVING — no ORDER BY or
// LIMIT, so set-op chains and subqueries can reuse it.
func (p *parser) selectCore() (*SelectStmt, error) {
	if err := p.expectKw(kwSELECT, "query"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	for {
		var it SelectItem
		if p.curSym(symStar) {
			it.Star = true
			p.advance()
		} else {
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			it.Expr = e
			if p.cur.kw == kwAS {
				p.advance()
				alias, err := p.ident("alias after AS")
				if err != nil {
					return nil, err
				}
				it.Alias = alias
			} else if p.cur.kind == tokIdent {
				it.Alias = identTok(p.src, p.cur)
				p.advance()
			}
		}
		sel.Items = append(sel.Items, it)
		if !p.curSym(symComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKw(kwFROM, "select"); err != nil {
		return nil, err
	}
	tr, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	sel.From = []TableRef{tr}
	for {
		kind, ok, err := p.joinKind()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		jt, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwON, "join"); err != nil {
			return nil, err
		}
		var on []OnEq
		for {
			l, err := p.expr(bpAdd)
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(symEq, "join condition"); err != nil {
				return nil, err
			}
			r, err := p.expr(bpAdd)
			if err != nil {
				return nil, err
			}
			on = append(on, OnEq{L: l, R: r})
			if p.cur.kw != kwAND {
				break
			}
			p.advance()
		}
		sel.Joins = append(sel.Joins, JoinClause{Kind: kind, Table: jt, On: on})
	}
	if p.cur.kw == kwWHERE {
		p.advance()
		if sel.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	if p.cur.kw == kwGROUP {
		p.advance()
		if err := p.expectKw(kwBY, "GROUP BY"); err != nil {
			return nil, err
		}
		if sel.GroupBy, err = p.exprList(0); err != nil {
			return nil, err
		}
	}
	if p.cur.kw == kwHAVING {
		p.advance()
		if sel.Having, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func (p *parser) tableRef() (TableRef, error) {
	var tr TableRef
	name, err := p.ident("table name")
	if err != nil {
		return tr, err
	}
	tr.Table = name
	// The alias defaults to the table name, so scope resolution treats
	// `t.col` and an unaliased FROM uniformly.
	tr.Alias = name
	if p.cur.kind == tokIdent {
		tr.Alias = identTok(p.src, p.cur)
		p.advance()
	}
	return tr, nil
}

// joinKind consumes a join introducer, returning its planner kind.
func (p *parser) joinKind() (string, bool, error) {
	switch p.cur.kw {
	case kwJOIN:
		p.advance()
		return "inner", true, nil
	case kwINNER:
		p.advance()
		return "inner", true, p.expectKw(kwJOIN, "join")
	case kwLEFT:
		p.advance()
		kind := "left"
		switch p.cur.kw {
		case kwOUTER:
			p.advance()
		case kwSEMI:
			kind = "semi"
			p.advance()
		case kwANTI:
			kind = "anti"
			p.advance()
		}
		return kind, true, p.expectKw(kwJOIN, "join")
	case kwSEMI:
		p.advance()
		return "semi", true, p.expectKw(kwJOIN, "join")
	case kwANTI:
		p.advance()
		return "anti", true, p.expectKw(kwJOIN, "join")
	}
	return "", false, nil
}

func (p *parser) orderLimit() ([]OrderItem, int64, error) {
	var items []OrderItem
	limit := int64(-1)
	if p.cur.kw == kwORDER {
		p.advance()
		if err := p.expectKw(kwBY, "ORDER BY"); err != nil {
			return nil, 0, err
		}
		for {
			e, err := p.expr(0)
			if err != nil {
				return nil, 0, err
			}
			desc := false
			switch p.cur.kw {
			case kwDESC:
				desc = true
				p.advance()
			case kwASC:
				p.advance()
			}
			items = append(items, OrderItem{Expr: e, Desc: desc})
			if !p.curSym(symComma) {
				break
			}
			p.advance()
		}
	}
	if p.cur.kw == kwLIMIT {
		p.advance()
		if p.cur.kind != tokNumber {
			return nil, 0, p.errf(p.cur, "expected integer after LIMIT")
		}
		n, err := strconv.ParseInt(p.text(p.cur), 10, 64)
		if err != nil {
			return nil, 0, p.errf(p.cur, "invalid LIMIT %q", p.text(p.cur))
		}
		limit = n
		p.advance()
	}
	return items, limit, nil
}

func (p *parser) createStmt() (Stmt, error) {
	p.advance() // CREATE
	if err := p.expectKw(kwTABLE, "CREATE"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(symLParen, "CREATE TABLE"); err != nil {
		return nil, err
	}
	var cols []CreateCol
	for {
		name, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		var typ string
		switch p.cur.kw {
		case kwBIGINT, kwINTEGER:
			typ = "BIGINT"
		case kwDOUBLE, kwFLOAT:
			typ = "DOUBLE"
		case kwVARCHAR, kwTEXT:
			typ = "VARCHAR"
		case kwBOOLEAN:
			typ = "BOOLEAN"
		case kwDATE:
			typ = "DATE"
		default:
			return nil, p.errf(p.cur, "expected column type")
		}
		p.advance()
		col := CreateCol{Name: name, Type: typ}
		switch p.cur.kw {
		case kwNULL:
			col.Nullable = true
			p.advance()
		case kwNOT:
			p.advance()
			if err := p.expectKw(kwNULL, "column constraint"); err != nil {
				return nil, err
			}
		}
		cols = append(cols, col)
		if !p.curSym(symComma) {
			break
		}
		p.advance()
	}
	if err := p.expectSym(symRParen, "CREATE TABLE"); err != nil {
		return nil, err
	}
	return &CreateStmt{Table: table, Cols: cols}, nil
}

func (p *parser) insertStmt() (Stmt, error) {
	p.advance() // INSERT
	if err := p.expectKw(kwINTO, "INSERT"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwVALUES, "INSERT"); err != nil {
		return nil, err
	}
	var rows [][]Expr
	for {
		if err := p.expectSym(symLParen, "VALUES"); err != nil {
			return nil, err
		}
		row, err := p.exprList(0)
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(symRParen, "VALUES"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.curSym(symComma) {
			break
		}
		p.advance()
	}
	return &InsertStmt{Table: table, Rows: rows}, nil
}

func (p *parser) updateStmt() (Stmt, error) {
	p.advance() // UPDATE
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwSET, "UPDATE"); err != nil {
		return nil, err
	}
	us := &UpdateStmt{Table: table}
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(symEq, "SET"); err != nil {
			return nil, err
		}
		e, err := p.expr(0)
		if err != nil {
			return nil, err
		}
		us.SetCols = append(us.SetCols, col)
		us.SetExprs = append(us.SetExprs, e)
		if !p.curSym(symComma) {
			break
		}
		p.advance()
	}
	if p.cur.kw == kwWHERE {
		p.advance()
		if us.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return us, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.advance() // DELETE
	if err := p.expectKw(kwFROM, "DELETE"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	ds := &DeleteStmt{Table: table}
	if p.cur.kw == kwWHERE {
		p.advance()
		if ds.Where, err = p.expr(0); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// Binding powers for the Pratt loop. Predicates (comparisons, BETWEEN,
// IN, LIKE, IS) share one level whose operands bind at bpAdd.
const (
	bpOr    = 1
	bpAnd   = 2
	bpNot   = 3
	bpCmp   = 4
	bpAdd   = 5
	bpMul   = 6
	bpUnary = 7
)

func isCmpSym(s symID) bool {
	switch s {
	case symEq, symLt, symGt, symLe, symGe, symNe:
		return true
	}
	return false
}

// Infix binding-power tables: one probe decides both "is this token an
// infix operator" (nonzero) and how tightly it binds, so the Pratt
// loop's common exit — next token is a comma, keyword, paren... — is a
// single compare. A token has a nonzero kw or sym, never both, so the
// two probes combine with an OR.
var (
	kwInfixBP  [kwCount_]uint8
	symInfixBP [symCount_]uint8
)

func init() {
	kwInfixBP[kwOR] = bpOr
	kwInfixBP[kwAND] = bpAnd
	// Predicate keywords all bind at bpCmp; NOT is its postfix form
	// (NOT IN / NOT LIKE / NOT BETWEEN, resolved via peek).
	for _, k := range []kwID{kwBETWEEN, kwIN, kwLIKE, kwIS, kwNOT} {
		kwInfixBP[k] = bpCmp
	}
	for _, s := range []symID{symEq, symLt, symGt, symLe, symGe, symNe} {
		symInfixBP[s] = bpCmp
	}
	symInfixBP[symPlus] = bpAdd
	symInfixBP[symMinus] = bpAdd
	symInfixBP[symStar] = bpMul
	symInfixBP[symSlash] = bpMul
}

// exprList parses a comma-separated list of expressions binding at
// least as tightly as minBP into a slice of its own.
func (p *parser) exprList(minBP int) ([]Expr, error) {
	var list []Expr
	for {
		e, err := p.expr(minBP)
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.curSym(symComma) {
			return list, nil
		}
		p.advance()
	}
}

// expr parses an expression whose operators all bind at least as
// tightly as minBP.
func (p *parser) expr(minBP int) (Expr, error) {
	var lhs Expr
	var err error
	switch {
	case p.cur.kw == kwNOT:
		p.advance()
		in, err := p.expr(bpNot)
		if err != nil {
			return nil, err
		}
		lhs = &NotExpr{In: in}
	case p.curSym(symMinus):
		p.advance()
		if p.cur.kind == tokNumber {
			// A minus sign directly before a number is a negative
			// literal: MinInt64 is one, and pushdown sees `k > -5`. No
			// operator binds tighter than the sign, so this is 0 - 5.
			lhs = &NumLit{Text: "-" + p.text(p.cur)}
			p.advance()
			break
		}
		in, err := p.expr(bpUnary)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: "-", L: &NumLit{Text: "0"}, R: in}
	default:
		if lhs, err = p.primary(); err != nil {
			return nil, err
		}
	}
	for {
		t := p.cur
		// Gate: non-operators (the common exit) and operators bound
		// out by minBP bail on one combined table probe.
		bp := int(kwInfixBP[t.kw] | symInfixBP[t.sym])
		if bp == 0 || bp < minBP {
			return lhs, nil
		}
		switch {
		case t.kw == kwOR:
			p.advance()
			r, err := p.expr(bpOr + 1)
			if err != nil {
				return nil, err
			}
			lhs = &BinExpr{Op: "OR", L: lhs, R: r}
		case t.kw == kwAND:
			p.advance()
			r, err := p.expr(bpAnd + 1)
			if err != nil {
				return nil, err
			}
			lhs = &BinExpr{Op: "AND", L: lhs, R: r}
		case t.kind == tokSymbol && isCmpSym(t.sym):
			op := symNames[t.sym]
			p.advance()
			r, err := p.expr(bpCmp + 1)
			if err != nil {
				return nil, err
			}
			lhs = &BinExpr{Op: op, L: lhs, R: r}
		case t.kind == tokSymbol && (t.sym == symPlus || t.sym == symMinus):
			op := symNames[t.sym]
			p.advance()
			r, err := p.expr(bpAdd + 1)
			if err != nil {
				return nil, err
			}
			lhs = &BinExpr{Op: op, L: lhs, R: r}
		case t.kind == tokSymbol && (t.sym == symStar || t.sym == symSlash):
			op := symNames[t.sym]
			p.advance()
			r, err := p.expr(bpMul + 1)
			if err != nil {
				return nil, err
			}
			lhs = &BinExpr{Op: op, L: lhs, R: r}
		case t.kw == kwBETWEEN:
			p.advance()
			if lhs, err = p.betweenTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwIN:
			p.advance()
			if lhs, err = p.inTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwLIKE:
			p.advance()
			if lhs, err = p.likeTail(lhs, false); err != nil {
				return nil, err
			}
		case t.kw == kwIS:
			p.advance()
			neg := false
			if p.cur.kw == kwNOT {
				neg = true
				p.advance()
			}
			if err := p.expectKw(kwNULL, "IS"); err != nil {
				return nil, err
			}
			lhs = &IsNullExpr{In: lhs, Negate: neg}
		case t.kw == kwNOT:
			// Postfix NOT IN / NOT LIKE / NOT BETWEEN — the second
			// lookahead token decides.
			var tail kwID
			switch p.peek.kw {
			case kwIN, kwLIKE, kwBETWEEN:
				tail = p.peek.kw
			default:
				return lhs, nil
			}
			p.advance() // NOT
			p.advance() // IN/LIKE/BETWEEN
			switch tail {
			case kwIN:
				lhs, err = p.inTail(lhs, true)
			case kwLIKE:
				lhs, err = p.likeTail(lhs, true)
			default:
				lhs, err = p.betweenTail(lhs, true)
			}
			if err != nil {
				return nil, err
			}
		default:
			return lhs, nil
		}
	}
}

// betweenTail parses `lo AND hi` after [NOT] BETWEEN.
func (p *parser) betweenTail(lhs Expr, neg bool) (Expr, error) {
	lo, err := p.expr(bpAdd)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwAND, "BETWEEN"); err != nil {
		return nil, err
	}
	hi, err := p.expr(bpAdd)
	if err != nil {
		return nil, err
	}
	be := &BetweenExpr{In: lhs, Lo: lo, Hi: hi}
	if !neg {
		return be, nil
	}
	return &NotExpr{In: be}, nil
}

// inTail parses `(list)` or `(SELECT ...)` after [NOT] IN.
func (p *parser) inTail(lhs Expr, neg bool) (Expr, error) {
	if err := p.expectSym(symLParen, "IN"); err != nil {
		return nil, err
	}
	if p.cur.kw == kwSELECT {
		sel, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(symRParen, "IN subquery"); err != nil {
			return nil, err
		}
		return &InSubExpr{In: lhs, Sel: sel, Negate: neg}, nil
	}
	list, err := p.exprList(bpAdd)
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(symRParen, "IN list"); err != nil {
		return nil, err
	}
	ie := &InExpr{In: lhs, List: list}
	if !neg {
		return ie, nil
	}
	return &NotExpr{In: ie}, nil
}

// likeTail parses the pattern literal after [NOT] LIKE.
func (p *parser) likeTail(lhs Expr, neg bool) (Expr, error) {
	if p.cur.kind != tokString {
		return nil, p.errf(p.cur, "expected string pattern after LIKE")
	}
	le := &LikeExpr{In: lhs, Pattern: stringTok(p.src, p.cur), Negate: neg}
	p.advance()
	return le, nil
}

// Shared immutable literal nodes (the planner only reads them).
var (
	litTrue  = &BoolLit{Val: true}
	litFalse = &BoolLit{Val: false}
	litNull  = &NullLit{}
)

func (p *parser) primary() (Expr, error) {
	t := p.cur
	switch t.kind {
	case tokNumber:
		nl := &NumLit{Text: p.text(t)}
		p.advance()
		return nl, nil
	case tokString:
		sl := &StrLit{Val: stringTok(p.src, t)}
		p.advance()
		return sl, nil
	case tokParam:
		pe := &ParamExpr{}
		if t.end == t.pos+1 { // bare `?`
			p.params++
			pe.Idx = p.params
		} else {
			n, err := strconv.Atoi(p.text(t))
			if err != nil || n < 1 {
				return nil, p.errf(t, "invalid parameter ordinal $%s", p.text(t))
			}
			pe.Idx = n
			if n > p.params {
				p.params = n
			}
		}
		p.advance()
		return pe, nil
	case tokIdent:
		name := identTok(p.src, t)
		p.advance()
		id := &Ident{Name: name}
		if p.curSym(symDot) {
			p.advance()
			col, err := p.ident("column after '.'")
			if err != nil {
				return nil, err
			}
			id.Qualifier, id.Name = name, col
		}
		return id, nil
	case tokSymbol:
		if t.sym == symLParen {
			p.advance()
			if p.cur.kw == kwSELECT {
				sel, err := p.selectCore()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(symRParen, "subquery"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sel: sel}, nil
			}
			e, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			return e, p.expectSym(symRParen, "expression")
		}
	case tokKeyword:
		switch t.kw {
		case kwTRUE:
			p.advance()
			return litTrue, nil
		case kwFALSE:
			p.advance()
			return litFalse, nil
		case kwNULL:
			p.advance()
			return litNull, nil
		case kwDATE:
			p.advance()
			if p.cur.kind != tokString {
				return nil, p.errf(p.cur, "expected string after DATE")
			}
			dl := &DateLit{Val: stringTok(p.src, p.cur)}
			p.advance()
			return dl, nil
		case kwCASE:
			p.advance()
			if err := p.expectKw(kwWHEN, "CASE"); err != nil {
				return nil, err
			}
			cond, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwTHEN, "CASE"); err != nil {
				return nil, err
			}
			then, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwELSE, "CASE"); err != nil {
				return nil, err
			}
			els, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(kwEND, "CASE"); err != nil {
				return nil, err
			}
			return &CaseExpr{Cond: cond, Then: then, Else: els}, nil
		case kwSUM, kwCOUNT, kwAVG, kwMIN, kwMAX:
			var fn string
			switch t.kw {
			case kwSUM:
				fn = "SUM"
			case kwCOUNT:
				fn = "COUNT"
			case kwAVG:
				fn = "AVG"
			case kwMIN:
				fn = "MIN"
			case kwMAX:
				fn = "MAX"
			}
			p.advance()
			if err := p.expectSym(symLParen, "aggregate"); err != nil {
				return nil, err
			}
			ac := &AggCall{Fn: fn}
			if fn == "COUNT" && p.curSym(symStar) {
				p.advance()
				return ac, p.expectSym(symRParen, "aggregate")
			}
			arg, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			ac.Arg = arg
			return ac, p.expectSym(symRParen, "aggregate")
		case kwYEAR:
			p.advance()
			if err := p.expectSym(symLParen, "function"); err != nil {
				return nil, err
			}
			arg, err := p.expr(0)
			if err != nil {
				return nil, err
			}
			return &FuncCall{Fn: "YEAR", Arg: arg}, p.expectSym(symRParen, "function")
		}
	}
	return nil, p.errf(t, "unexpected token in expression")
}
