package query

import "testing"

// FuzzQuery runs arbitrary SQL through the enforced path over the shared
// fixture. Any input may be refused; none may panic, and every answer must
// be internally consistent: rows returned ≤ rows matched ≤ rows scanned,
// and each row carries one cell per column. The seed corpus in
// testdata/fuzz/FuzzQuery (the planner-gate statements, the EXPLAIN-golden
// queries and past crashers) runs as part of the ordinary test suite;
// `make fuzz` explores beyond it.
func FuzzQuery(f *testing.F) {
	fx := newFixture(f)
	f.Fuzz(func(t *testing.T, sql string) {
		res, err := fx.eng.Query(Request{
			Requester: "fuzz", Purpose: "service", Visibility: 2, SQL: sql, Explain: true,
		})
		if err != nil {
			return
		}
		st := res.Stats
		if st.RowsReturned > st.RowsMatched || st.RowsMatched > st.RowsScanned {
			t.Fatalf("inconsistent stats for %q: %+v", sql, st)
		}
		if len(res.Rows) != st.RowsReturned {
			t.Fatalf("%d rows returned, stats say %d", len(res.Rows), st.RowsReturned)
		}
		for i, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(res.Columns))
			}
		}
	})
}
