package sql

import (
	"reflect"
	"testing"
)

// whereOf parses a one-table SELECT and returns its WHERE expression.
func whereOf(t *testing.T, cond string) Expr {
	t.Helper()
	st, err := Parse("SELECT a FROM t WHERE " + cond)
	if err != nil {
		t.Fatal(err)
	}
	return st.AST.(*SelectStmt).Where
}

// everyOperand has an identifier in each operand position MapExpr knows
// (v1..v16) and two subqueries whose own identifiers (hidden1, hidden2)
// belong to another scope.
const everyOperand = `v1 + v2 > 0 AND NOT v3 = 1 AND v4 BETWEEN v5 AND v6 AND v7 IN (v8, v9) ` +
	`AND v10 LIKE 'x%' AND v11 IS NULL AND CASE WHEN v12 = 1 THEN v13 ELSE v14 END = YEAR(v15) ` +
	`AND v16 IN (SELECT hidden1 FROM u WHERE hidden1 > 0) AND 1 < (SELECT MAX(hidden2) FROM u WHERE hidden2 > 0)`

func TestMapExprVisitsEveryOperandAndNoSubquery(t *testing.T) {
	seen := map[string]bool{}
	walkExprs(whereOf(t, everyOperand), func(e Expr) {
		if id, ok := e.(*Ident); ok {
			seen[id.Name] = true
		}
	})
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11",
		"v12", "v13", "v14", "v15", "v16"} {
		if !seen[name] {
			t.Errorf("%s was never visited", name)
		}
	}
	if seen["hidden1"] || seen["hidden2"] {
		t.Error("the walk entered a subquery's own statement")
	}
	// Aggregate arguments belong to the enclosing query.
	st, err := Parse("SELECT SUM(x * y) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	args := 0
	walkExprs(st.AST.(*SelectStmt).Items[0].Expr, func(e Expr) {
		if _, ok := e.(*Ident); ok {
			args++
		}
	})
	if args != 2 {
		t.Errorf("visited %d identifiers under SUM(x * y), want 2", args)
	}
}

func TestMapExprCopiesOnChange(t *testing.T) {
	e := whereOf(t, everyOperand)
	if got := MapExpr(e, func(Expr) Expr { return nil }); got != e {
		t.Fatal("an identity MapExpr copied the expression")
	}
	// Renaming one IN-list member copies the path to it and nothing else.
	out := MapExpr(e, func(x Expr) Expr {
		if id, ok := x.(*Ident); ok && id.Name == "v9" {
			return &Ident{Name: "renamed"}
		}
		return nil
	})
	if out == e {
		t.Fatal("the replacement was dropped")
	}
	if !reflect.DeepEqual(e, whereOf(t, everyOperand)) {
		t.Fatal("MapExpr mutated its input")
	}
	// Conjuncts other than the IN list are shared with the input.
	shared, copied := 0, 0
	in, outc := splitConjuncts(e), splitConjuncts(out)
	for i := range in {
		if in[i] == outc[i] {
			shared++
		} else {
			copied++
			list := outc[i].(*InExpr).List
			if list[0] != in[i].(*InExpr).List[0] || list[1].(*Ident).Name != "renamed" {
				t.Errorf("IN list rebuilt wrongly: %s", RenderExpr(outc[i]))
			}
		}
	}
	if copied != 1 || shared != len(in)-1 {
		t.Fatalf("%d conjuncts copied, %d shared; want 1 and %d", copied, shared, len(in)-1)
	}
	// A replacement ends the descent: the callback never sees inside it.
	MapExpr(e, func(x Expr) Expr {
		if id, ok := x.(*Ident); ok && id.Name == "v13" {
			t.Error("descended into a replaced CASE")
		}
		if _, ok := x.(*CaseExpr); ok {
			return &NumLit{Text: "1"}
		}
		return nil
	})
}
