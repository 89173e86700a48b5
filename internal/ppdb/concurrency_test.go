package ppdb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/privacy"
	"repro/internal/relational"
)

// TestConcurrentQueriesAndInserts exercises the PPDB under parallel reads,
// writes, certifications and sweeps; run with -race.
func TestConcurrentQueriesAndInserts(t *testing.T) {
	hp := privacy.NewHousePolicy("p")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 5})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 5})
	db, err := New(Config{Policy: hp})
	if err != nil {
		t.Fatal(err)
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const writers, rows = 4, 50
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				name := fmt.Sprintf("p-%d-%d", g, i)
				p := privacy.NewPrefs(name, 100)
				p.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 4, Granularity: 3, Retention: 5})
				p.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 4, Granularity: 3, Retention: 5})
				if err := db.RegisterProvider(p); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if _, err := db.Insert("t", name, relational.Row{
					relational.Text(name), relational.Float(float64(i)),
				}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := db.QueryEnforced(EnforcedQuery{
				Requester: "reader", Purpose: "care", Visibility: 2,
				SQL: "SELECT provider, weight FROM t",
			}); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Certify(1); err != nil {
				t.Errorf("certify: %v", err)
				return
			}
			if _, err := db.Sweep(); err != nil {
				t.Errorf("sweep: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if db.TableLen("t") != writers*rows {
		t.Errorf("rows = %d, want %d", db.TableLen("t"), writers*rows)
	}
	cert, err := db.Certify(0)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Report.N != writers*rows || cert.Report.ViolatedCount != 0 {
		t.Errorf("final cert = %+v", cert.Report)
	}
	if got := db.Audit().Len(); got < 30 {
		t.Errorf("audit entries = %d", got)
	}
}
