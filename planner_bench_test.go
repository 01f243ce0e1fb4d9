package vectorwise

import (
	"sync"
	"testing"

	"vectorwise/internal/algebra"
	"vectorwise/internal/bufmgr"
	"vectorwise/internal/catalog"
	"vectorwise/internal/rewriter"
	"vectorwise/internal/sql"
	"vectorwise/internal/tpch"
	"vectorwise/internal/xcompile"
)

// plannerBenchSF leaves the caches (600K lineitem rows), so a join that
// hashes the wrong side pays for it.
const plannerBenchSF = 0.1

var (
	plannerBenchOnce sync.Once
	plannerBenchCat  *catalog.Catalog
	plannerBenchErr  error
)

// BenchmarkPlannerVsHandPlan runs every suite query twice on the
// vectorized engine at parallelism 1 over a warm buffer pool: from
// the hand-built plan of internal/tpch/queries.go, where a person placed
// join order and build sides, and from what sql.Planner makes of the SQL
// text. The pairs are the evidence for (or against) deleting the hand
// plans; CI prints them side by side.
func BenchmarkPlannerVsHandPlan(b *testing.B) {
	plannerBenchOnce.Do(func() { plannerBenchCat, plannerBenchErr = tpch.Generate(plannerBenchSF, 8192) })
	if plannerBenchErr != nil {
		b.Fatal(plannerBenchErr)
	}
	cat, pool := plannerBenchCat, bufmgr.New(0, nil)
	run := func(b *testing.B, plan algebra.Node) {
		b.ReportAllocs()
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // round -1 filled the pool
			}
			op, err := xcompile.Compile(plan, cat, xcompile.Options{Fetch: pool})
			if err != nil {
				b.Fatal(err)
			}
			if err := op.Open(); err != nil {
				b.Fatal(err)
			}
			for {
				batch, err := op.Next()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
			}
			if err := op.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, q := range tpch.Suite() {
		hand := algebra.PushFiltersIntoScans(rewriter.SimplifyPlan(q.Build()))
		text, _ := tpch.FindSQL(q.Name)
		st, err := sql.Parse(text.SQL)
		if err != nil {
			b.Fatal(err)
		}
		planned, err := (&sql.Planner{Cat: cat}).PlanQuery(st.AST)
		st.Release()
		if err != nil {
			b.Fatal(err)
		}
		planned = rewriter.SimplifyPlan(planned)
		b.Run(q.Name+"/hand", func(b *testing.B) { run(b, hand) })
		b.Run(q.Name+"/planner", func(b *testing.B) { run(b, planned) })
	}
}
