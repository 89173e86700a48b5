package ppdb_test

import (
	"fmt"

	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/relational"
)

// Example demonstrates the enforcement loop: a purpose-bound query is served
// for the stated purpose and refused for an unstated one, and the audit
// trail records both.
func Example() {
	hp := privacy.NewHousePolicy("v1")
	hp.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	hp.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	db, err := ppdb.New(ppdb.Config{Policy: hp})
	if err != nil {
		fmt.Println(err)
		return
	}
	schema, _ := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
	})
	_ = db.RegisterTable("t", schema, "provider")

	maria := privacy.NewPrefs("maria", 50)
	maria.Add("provider", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	maria.Add("weight", privacy.Tuple{Purpose: "care", Visibility: 2, Granularity: 3, Retention: 4})
	_ = db.RegisterProvider(maria)
	_, _ = db.Insert("t", "maria", relational.Row{relational.Text("maria"), relational.Float(61.5)})

	res, err := db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "dr", Purpose: "care", Visibility: 2,
		SQL: "SELECT weight FROM t",
	})
	fmt.Println("care query error:", err)
	fmt.Println("care weight:", res.Rows[0][0].Display())

	_, err = db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "ads", Purpose: "marketing", Visibility: 2,
		SQL: "SELECT weight FROM t",
	})
	fmt.Println("marketing query error:", err != nil)
	fmt.Println("audited accesses:", db.Audit().Len())
	// Output:
	// care query error: <nil>
	// care weight: 61.5
	// marketing query error: true
	// audited accesses: 2
}
