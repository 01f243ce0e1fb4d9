package sql

// AST → SQL text rendering for the one statement the cluster re-renders:
// the coordinator routes each VALUES row of an INSERT to its shard and
// sends every shard its rows as a new INSERT. The renderer emits exactly
// the dialect the parser accepts — a rendered expression must re-parse to
// an equivalent AST.

import (
	"fmt"
	"strings"
)

// RenderExpr renders an expression as parseable SQL text. Binary
// operations are fully parenthesized, so rendering never needs the
// parser's precedence table.
func RenderExpr(e Expr) string {
	switch t := e.(type) {
	case *Ident:
		if t.Qualifier != "" {
			return t.Qualifier + "." + t.Name
		}
		return t.Name
	case *NumLit:
		return t.Text
	case *StrLit:
		return quoteStr(t.Val)
	case *DateLit:
		return "DATE '" + t.Val + "'"
	case *BoolLit:
		if t.Val {
			return "TRUE"
		}
		return "FALSE"
	case *NullLit:
		return "NULL"
	case *ParamExpr:
		return fmt.Sprintf("$%d", t.Idx)
	case *BinExpr:
		return "(" + RenderExpr(t.L) + " " + t.Op + " " + RenderExpr(t.R) + ")"
	case *NotExpr:
		return "(NOT " + RenderExpr(t.In) + ")"
	case *BetweenExpr:
		return "(" + RenderExpr(t.In) + " BETWEEN " + RenderExpr(t.Lo) +
			" AND " + RenderExpr(t.Hi) + ")"
	case *InExpr:
		var b strings.Builder
		b.WriteString(RenderExpr(t.In))
		b.WriteString(" IN (")
		for i, m := range t.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(RenderExpr(m))
		}
		b.WriteString(")")
		return b.String()
	case *LikeExpr:
		op := " LIKE "
		if t.Negate {
			op = " NOT LIKE "
		}
		return RenderExpr(t.In) + op + quoteStr(t.Pattern)
	case *IsNullExpr:
		if t.Negate {
			return RenderExpr(t.In) + " IS NOT NULL"
		}
		return RenderExpr(t.In) + " IS NULL"
	case *CaseExpr:
		return "CASE WHEN " + RenderExpr(t.Cond) + " THEN " + RenderExpr(t.Then) +
			" ELSE " + RenderExpr(t.Else) + " END"
	case *FuncCall:
		return t.Fn + "(" + RenderExpr(t.Arg) + ")"
	default:
		return fmt.Sprintf("/*unrenderable %T*/", e)
	}
}

// RenderInsert renders an INSERT statement (the coordinator re-renders
// inserts after routing each VALUES row to its shard).
func RenderInsert(table string, rows [][]Expr) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(RenderExpr(v))
		}
		b.WriteString(")")
	}
	return b.String()
}

func quoteStr(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
