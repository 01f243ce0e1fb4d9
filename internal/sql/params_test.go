package sql

import "testing"

func TestParsePlaceholders(t *testing.T) {
	st, err := Parse(`SELECT v FROM t WHERE k = ? AND v > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 2 {
		t.Fatalf("params = %d, want 2", st.NumParams)
	}
	s := st.AST.(*SelectStmt)
	cmp := s.Where.(*BinExpr) // AND
	if p, ok := cmp.L.(*BinExpr).R.(*ParamExpr); !ok || p.Idx != 1 {
		t.Fatalf("first ? not ordinal 1: %+v", cmp.L)
	}
	if p, ok := cmp.R.(*BinExpr).R.(*ParamExpr); !ok || p.Idx != 2 {
		t.Fatalf("second ? not ordinal 2: %+v", cmp.R)
	}
}

func TestParseDollarPlaceholders(t *testing.T) {
	// $N names ordinals explicitly and may repeat and mix with ?.
	st, err := Parse(`SELECT v FROM t WHERE k = $2 OR k = $1 OR k = $2`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 2 {
		t.Fatalf("params = %d, want 2", st.NumParams)
	}
	// A ? after $3 takes the next ordinal (4).
	st, err = Parse(`SELECT v FROM t WHERE k = $3 AND v = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 4 {
		t.Fatalf("params = %d, want 4", st.NumParams)
	}
	if _, err := Parse(`SELECT v FROM t WHERE k = $0`); err == nil {
		t.Fatal("$0 must be rejected")
	}
}

func TestParsePlaceholderPositions(t *testing.T) {
	good := []string{
		`INSERT INTO t VALUES (?, ?), (?, ?)`,
		`UPDATE t SET v = ? WHERE k = ?`,
		`DELETE FROM t WHERE k = ?`,
		`SELECT v FROM t WHERE k BETWEEN ? AND ?`,
		`SELECT v FROM t WHERE k IN (?, ?, 3)`,
		`SELECT v + ? FROM t`,
		`SELECT v FROM t WHERE k = ? ORDER BY v LIMIT 3`,
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	// `$` not followed by a digit is not a placeholder.
	if _, err := Parse(`SELECT $ FROM t`); err == nil {
		t.Fatal("lone $ must be rejected")
	}
}
