package sql

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// lexAll tokenizes src, returning each token's canonical text (the
// shape Normalize emits).
func lexAll(t *testing.T, src string) []string {
	t.Helper()
	toks, err := tokenize(src, nil)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	var out []string
	for k := range toks {
		tok := &toks[k]
		switch tok.kind {
		case tokEOF:
			return out
		case tokKeyword:
			out = append(out, kwNames[tok.kw])
		case tokIdent:
			out = append(out, identTok(src, tok))
		case tokString:
			out = append(out, stringTok(src, tok))
		default:
			out = append(out, rawText(src, tok))
		}
	}
	return out
}

func TestLexBasics(t *testing.T) {
	texts := lexAll(t, `SELECT a.b, 'it''s', 1.5 FROM t -- comment
WHERE x <> 2`)
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "it's") {
		t.Fatalf("escaped quote lost: %v", texts)
	}
	if !strings.Contains(joined, "<>") {
		t.Fatalf("operator lost: %v", texts)
	}
	if strings.Contains(joined, "comment") {
		t.Fatal("comment not stripped")
	}
	// != normalizes to <>.
	if toks := lexAll(t, "x != 1"); toks[1] != "<>" {
		t.Fatalf("!= must normalize to <>, got %v", toks)
	}
	// Idents lower-case lazily; keywords match case-insensitively.
	if toks := lexAll(t, "SeLeCt FooBar"); toks[0] != "select" || toks[1] != "foobar" {
		t.Fatalf("case folding: %v", toks)
	}
	if _, err := tokenize("bad ` char", nil); err == nil {
		t.Fatal("bad character must error")
	}
	if _, err := tokenize("'unterminated", nil); err == nil {
		t.Fatal("unterminated string must error")
	}
}

// Token text must alias the source string, not copy it: tokens carry
// [pos, end) offsets, and the lazy transforms (ident lower-casing,
// string undoubling) must be identities on already-canonical input.
func TestLexZeroCopy(t *testing.T) {
	src := `SELECT abc FROM tbl WHERE s = 'plain'`
	toks, err := tokenize(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := range toks {
		tok := &toks[k]
		if tok.kind == tokEOF {
			break
		}
		if tok.pos < 0 || tok.end < tok.pos || int(tok.end) > len(src) {
			t.Fatalf("token range [%d,%d) out of bounds", tok.pos, tok.end)
		}
		raw := rawText(src, tok)
		if tok.kind != tokSymbol && !strings.Contains(src[tok.pos:tok.end], raw) {
			t.Fatalf("token %q not within its range %q", raw, src[tok.pos:tok.end])
		}
	}
	// An all-lowercase ident and an escape-free string pass through
	// without allocation-forcing transforms.
	toks, err = tokenize("'plain' ident", nil)
	if err != nil || toks[0].kind != tokString {
		t.Fatalf("want string token, got %v (%v)", toks[0].kind, err)
	}
	if v := stringTok("'plain' ident", &toks[0]); v != "plain" {
		t.Fatalf("escape-free string must be identity, got %q", v)
	}
	if toks[1].kind != tokIdent || toks[1].flag&tokFlagUpper != 0 {
		t.Fatalf("lowercase ident must not carry the upper flag: %+v", toks[1])
	}
}

func TestParseSelectShapes(t *testing.T) {
	st, err := Parse(`SELECT a, SUM(b) total FROM t
		JOIN u ON t.k = u.k
		LEFT SEMI JOIN v ON t.k = v.k
		WHERE a > 1 AND b BETWEEN 2 AND 3 OR c IN (1,2) AND d LIKE 'x%'
		GROUP BY a HAVING total > 0 ORDER BY total DESC, a LIMIT 7;`)
	if err != nil {
		t.Fatal(err)
	}
	s := st.AST.(*SelectStmt)
	if len(s.Items) != 2 || s.Items[1].Alias != "total" {
		t.Fatalf("items: %+v", s.Items)
	}
	if len(s.Joins) != 2 || s.Joins[0].Kind != "inner" || s.Joins[1].Kind != "semi" {
		t.Fatalf("joins: %+v", s.Joins)
	}
	if s.Where == nil || s.Having == nil {
		t.Fatal("where/having missing")
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("orderby: %+v", s.OrderBy)
	}
	if s.Limit != 7 {
		t.Fatalf("limit: %d", s.Limit)
	}
}

func TestParseOuterJoinAndOrderExpr(t *testing.T) {
	st, err := Parse(`SELECT a, v FROM t LEFT OUTER JOIN u ON t.k = u.k ORDER BY a + v DESC, SUM(v)`)
	if err != nil {
		t.Fatal(err)
	}
	s := st.AST.(*SelectStmt)
	if len(s.Joins) != 1 || s.Joins[0].Kind != "left" {
		t.Fatalf("joins: %+v", s.Joins)
	}
	if _, ok := s.OrderBy[0].Expr.(*BinExpr); !ok {
		t.Fatalf("ORDER BY expression: %T", s.OrderBy[0].Expr)
	}
	// LEFT JOIN without OUTER means the same thing.
	st, err = Parse(`SELECT a FROM t LEFT JOIN u ON t.k = u.k`)
	if err != nil {
		t.Fatal(err)
	}
	if st.AST.(*SelectStmt).Joins[0].Kind != "left" {
		t.Fatal("LEFT JOIN must parse as outer")
	}
}

func TestParseSetOps(t *testing.T) {
	st, err := Parse(`SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v ORDER BY a LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	top := st.AST.(*SetOpStmt)
	if top.Op != "union" {
		t.Fatalf("top op: %q", top.Op)
	}
	inner := top.Left.(*SetOpStmt)
	if inner.Op != "union all" {
		t.Fatalf("set ops must fold left-associatively: %q", inner.Op)
	}
	if len(top.OrderBy) != 1 || top.Limit != 3 {
		t.Fatalf("order/limit must bind to the whole chain: %+v", top)
	}
	if sel := inner.Left.(*SelectStmt); sel.Limit != -1 || len(sel.OrderBy) != 0 {
		t.Fatalf("branch must not own order/limit: %+v", sel)
	}
	for _, q := range []string{
		`SELECT a FROM t EXCEPT SELECT a FROM u`,
		`SELECT a FROM t INTERSECT SELECT a FROM u`,
	} {
		st, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, ok := st.AST.(*SetOpStmt); !ok {
			t.Fatalf("%s: %T", q, st.AST)
		}
	}
}

func TestParseSubqueries(t *testing.T) {
	st, err := Parse(`SELECT a FROM t WHERE b < (SELECT AVG(v) FROM u) AND a IN (SELECT k FROM u WHERE v > 1)`)
	if err != nil {
		t.Fatal(err)
	}
	w := st.AST.(*SelectStmt).Where.(*BinExpr) // AND
	cmp := w.L.(*BinExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Fatalf("scalar subquery: %T", cmp.R)
	}
	in, ok := w.R.(*InSubExpr)
	if !ok || in.Negate {
		t.Fatalf("IN subquery: %T", w.R)
	}
	st, err = Parse(`SELECT a FROM t WHERE a NOT IN (SELECT k FROM u)`)
	if err != nil {
		t.Fatal(err)
	}
	if in := st.AST.(*SelectStmt).Where.(*InSubExpr); !in.Negate {
		t.Fatal("NOT IN subquery must negate")
	}
}

func TestParseDML(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (a BIGINT, b VARCHAR NULL, c DATE, d DOUBLE, e BOOLEAN)`)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.AST.(*CreateStmt)
	if len(cs.Cols) != 5 || !cs.Cols[1].Nullable || cs.Cols[0].Nullable {
		t.Fatalf("create: %+v", cs.Cols)
	}

	st, err = Parse(`INSERT INTO t VALUES (1, 'x', DATE '2011-01-01', 1.5, TRUE), (2, NULL, DATE '2011-01-02', -2.5, FALSE)`)
	if err != nil {
		t.Fatal(err)
	}
	is := st.AST.(*InsertStmt)
	if len(is.Rows) != 2 || len(is.Rows[0]) != 5 {
		t.Fatalf("insert: %+v", is)
	}

	st, err = Parse(`UPDATE t SET b = 'y', d = d + 1.0 WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	us := st.AST.(*UpdateStmt)
	if len(us.SetCols) != 2 || len(us.SetExprs) != 2 || us.Where == nil {
		t.Fatalf("update: %+v", us)
	}
	if us.SetCols[0] != "b" || us.SetCols[1] != "d" {
		t.Fatalf("set order lost: %+v", us.SetCols)
	}

	st, err = Parse(`DELETE FROM t WHERE a IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	ds := st.AST.(*DeleteStmt)
	if ds.Where == nil {
		t.Fatal("delete where missing")
	}
	if _, ok := ds.Where.(*IsNullExpr); !ok {
		t.Fatalf("IS NOT NULL: %T", ds.Where)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	st, err := Parse(`SELECT a + b * c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	e := st.AST.(*SelectStmt).Items[0].Expr.(*BinExpr)
	if e.Op != "+" {
		t.Fatalf("precedence wrong: %+v", e)
	}
	if inner, ok := e.R.(*BinExpr); !ok || inner.Op != "*" {
		t.Fatalf("mul must bind tighter: %+v", e.R)
	}
	// AND binds tighter than OR.
	st, _ = Parse(`SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3`)
	w := st.AST.(*SelectStmt).Where.(*BinExpr)
	if w.Op != "OR" {
		t.Fatalf("OR must be top: %+v", w)
	}
	// CASE expression.
	st, err = Parse(`SELECT CASE WHEN a > 1 THEN b ELSE 0 END FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.AST.(*SelectStmt).Items[0].Expr.(*CaseExpr); !ok {
		t.Fatal("case not parsed")
	}
	// Unary minus.
	st, _ = Parse(`SELECT -a FROM t`)
	if _, ok := st.AST.(*SelectStmt).Items[0].Expr.(*BinExpr); !ok {
		t.Fatal("unary minus not parsed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT a`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`,
		`SELECT a FROM t LIMIT x`,
		`CREATE TABLE`,
		`CREATE TABLE t (a)`,
		`INSERT INTO t`,
		`INSERT INTO t VALUES (1`,
		`UPDATE t`,
		`DELETE t`,
		`SELECT a FROM t trailing garbage ( (`,
		`SELECT a FROM t JOIN u`,
		`SELECT CASE WHEN a THEN b END FROM t`,
		`SELECT a FROM t UNION`,
		`SELECT a FROM t UNION ALL`,
		`SELECT a FROM t WHERE a IN (SELECT)`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

// Every parse failure is a *ParseError locating the offending token.
func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE ***")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T (%v)", err, err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if pe.Col != 14 {
		t.Fatalf("col = %d, want 14", pe.Col)
	}
	if pe.Offset != strings.Index("SELECT a\nFROM t WHERE ***", "*") {
		t.Fatalf("offset = %d", pe.Offset)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("message must carry the position: %q", pe.Error())
	}
	// Lex errors position too.
	_, err = Parse("SELECT 'oops")
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("lex error position: %v", err)
	}
	// Transaction control is refused by the parser, at the keyword.
	for _, kw := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		_, err = Parse("\n  " + kw)
		if !errors.As(err, &pe) || pe.Line != 2 || pe.Col != 3 || pe.Near != kw ||
			!strings.Contains(pe.Msg, "transactions are not supported") {
			t.Fatalf("%s: %v", kw, err)
		}
	}
}

// An AST is plain heap values: nothing a later parse does can reach it.
// The statement carries two lists of every kind the parser builds with
// append. No two of its slices may share a backing array, and after
// later parses it must still equal a fresh parse of its text.
func TestASTOutlivesLaterParses(t *testing.T) {
	const text = `SELECT a, b, SUM(c) AS s FROM t JOIN u ON t.k = u.k AND t.j = u.j JOIN v ON u.k = v.k ` +
		`WHERE a IN (1, 2, 3) AND b NOT IN (4, 5) AND c IN (SELECT c FROM w WHERE d IN (6, 7) GROUP BY c, d) ` +
		`GROUP BY a, b ORDER BY a DESC, b LIMIT 9`
	st, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if a, b, shared := sharedBacking(st.AST); shared {
		t.Fatalf("%s and %s share a backing array", a, b)
	}
	others := append([]string{text}, FuzzSeeds...)
	for i := 0; i < 10000; i++ {
		Parse(others[i%len(others)]) // errors included: failed parses allocate too
	}
	runtime.GC()
	fresh, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.AST, fresh.AST) {
		t.Fatal("the statement changed under 10000 later parses")
	}
}

// sharedBacking reports two slices of an AST whose backing arrays
// overlap, by their paths from the root.
func sharedBacking(root any) (a, b string, shared bool) {
	type span struct {
		lo, hi uintptr
		path   string
	}
	var spans []span
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			if v.Cap() > 0 {
				lo := v.Pointer()
				spans = append(spans, span{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size(), path})
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	walk(reflect.ValueOf(root), "stmt")
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return spans[i-1].path, spans[i].path, true
		}
	}
	return "", "", false
}

func TestNormalizeTokenStream(t *testing.T) {
	cases := [][2]string{
		{"SELECT  *\nFROM t; -- done", "select * from t"},
		{"select A , B from T where S = 'It''s'", "select a , b from t where s = 'It''s'"},
		{"SELECT a FROM t WHERE x != 1", "select a from t where x <> 1"},
		{"broken '", "broken '"}, // unlexable text passes through
		{"SELECT 1.5E+3,.5e1 FROM t WHERE x>1e-2", "select 1.5E+3 , .5e1 from t where x > 1e-2"},
	}
	for _, c := range cases {
		if got := Normalize(c[0]); got != c[1] {
			t.Errorf("Normalize(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// A number's exponent is part of its token; an e or E with no digits
// after it is a lex error at the number.
func TestExponentNumbers(t *testing.T) {
	for _, c := range []struct{ text, num string }{
		{"SELECT 1e3 FROM t", "1e3"},
		{"SELECT 2.5E-3 FROM t", "2.5E-3"},
		{"SELECT .5e1 FROM t", ".5e1"},
		{"SELECT 1.5e308 FROM t", "1.5e308"},
		{"SELECT 7E+2 FROM t", "7E+2"},
	} {
		st, err := Parse(c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.text, err)
		}
		if nl, ok := st.AST.(*SelectStmt).Items[0].Expr.(*NumLit); !ok || nl.Text != c.num {
			t.Fatalf("%s: item %#v, want the number %s", c.text, st.AST.(*SelectStmt).Items[0].Expr, c.num)
		}
	}
	for _, c := range []struct{ text, near string }{
		{"SELECT 1e", "1e"},
		{"SELECT 1e+ FROM t", "1e+"},
		{"SELECT .5E- FROM t", ".5E-"},
		{"SELECT 2.5ex FROM t", "2.5e"},
	} {
		_, err := Parse(c.text)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Near != c.near || pe.Offset != 7 || pe.Msg != "malformed number: exponent has no digits" {
			t.Fatalf("%s: %v", c.text, err)
		}
	}
}
