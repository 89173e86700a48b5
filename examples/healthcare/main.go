// Healthcare example: a clinic runs a PPDB over patient records with
// purposes care / research / billing. It demonstrates purpose-bound access
// enforced per datum — visibility gating, withholding of providers who never
// consented to a purpose, granularity degradation on research reads —
// retention sweeping on a simulated clock, the audit trail, and α-PPDB
// certification — the full Sec. 10 prototype on the paper's motivating
// domain (Westin ranks health data most sensitive).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/generalize"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/relational"
)

const corpus = `
policy "clinic-v1" {
  attr patient {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=specific retention=month
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
  attr condition {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr balance {
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
  sensitivity condition 5
  sensitivity weight 4
  sensitivity balance 5
}

provider "maria" threshold 80 {
  attr patient {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=specific retention=month
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
  attr condition {
    sens value=2 v=2 g=2 r=1
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=research visibility=third-party granularity=partial retention=month
  }
  attr balance {
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
}

provider "omar" threshold 15 {
  # Omar consents to care only — research use trips the implicit-zero rule.
  attr patient {
    tuple purpose=care visibility=house granularity=specific retention=year
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
  attr condition {
    sens value=4 v=3 g=3 r=2
    tuple purpose=care visibility=house granularity=specific retention=year
  }
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
  }
  attr balance {
    tuple purpose=billing visibility=house granularity=specific retention=year
  }
}
`

func main() {
	doc, err := policydsl.Parse(corpus)
	if err != nil {
		log.Fatal(err)
	}

	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	condH, err := generalize.NewCategoryHierarchy(map[string]string{
		"flu": "respiratory", "asthma": "respiratory",
		"diabetes": "metabolic", "hypertension": "cardiovascular",
		"respiratory": "illness", "metabolic": "illness", "cardiovascular": "illness",
	})
	if err != nil {
		log.Fatal(err)
	}

	db, err := ppdb.New(ppdb.Config{
		Policy:   doc.Policy,
		AttrSens: doc.AttrSens,
		Hierarchies: map[string]generalize.Hierarchy{
			"weight":    weightH,
			"condition": condH,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	schema, err := relational.NewSchema([]relational.Column{
		{Name: "patient", Type: relational.TypeText, PrimaryKey: true},
		{Name: "condition", Type: relational.TypeText},
		{Name: "weight", Type: relational.TypeFloat},
		{Name: "balance", Type: relational.TypeFloat},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.RegisterTable("records", schema, "patient"); err != nil {
		log.Fatal(err)
	}
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			log.Fatal(err)
		}
	}
	mustInsert(db, "maria", relational.Row{relational.Text("maria"), relational.Text("asthma"), relational.Float(61.5), relational.Float(120)})
	mustInsert(db, "omar", relational.Row{relational.Text("omar"), relational.Text("diabetes"), relational.Float(92), relational.Float(450)})

	// 1. A clinician (house class) reads exact data for care.
	show(db, "clinician reads for care (exact)", ppdb.EnforcedQuery{
		Requester: "dr-chen", Purpose: "care", Visibility: 2,
		SQL: "SELECT patient, condition, weight FROM records ORDER BY patient",
	})

	// 2. A research partner (third-party class) gets degraded granularity,
	//    and omar, who never consented to research, is withheld entirely.
	show(db, "research partner reads (omar withheld; maria degraded to 'partial')", ppdb.EnforcedQuery{
		Requester: "uni-lab", Purpose: "research", Visibility: 3,
		SQL: "SELECT patient, condition, weight FROM records ORDER BY patient",
	})

	// 3. Research cannot see billing balances at all.
	_, err = db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "uni-lab", Purpose: "research", Visibility: 3,
		SQL: "SELECT balance FROM records",
	})
	fmt.Printf("\nresearch asks for balances → %v\n", err)

	// 4. Certification: Omar never consented to research, so the implicit-
	//    zero rule flags him and he would default (threshold 15).
	cert, err := db.Certify(0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncertification: P(W)=%.2f P(Default)=%.2f α=0.25-PPDB=%v wouldDefault=%v\n",
		cert.Report.PW, cert.Report.PDefault, cert.IsAlphaPPDB, cert.WouldDefault)

	// 5. Retention: advance 60 days; research's month-long grants lapse but
	//    care's year-long grants keep the cells alive. Advance past a year
	//    and the records expire entirely.
	if _, err := db.Advance(400 * 24 * time.Hour); err != nil {
		log.Fatal(err)
	}
	sweep, err := db.Sweep()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter 400 days: sweep expired %d cells, deleted %d rows; records left: %d\n",
		sweep.CellsExpired, sweep.RowsDeleted, db.TableLen("records"))

	// 6. The audit trail captured everything, including the denial.
	fmt.Println("\naudit trail:")
	for _, rec := range db.Audit().Records() {
		verdict := "allowed"
		if !rec.Allowed {
			verdict = "DENIED: " + rec.Reason
		}
		fmt.Printf("  [%s] %s purpose=%s class=%d → %s\n",
			rec.At.Format("2006-01-02"), rec.Requester, rec.Purpose, rec.Visibility, verdict)
	}
}

func mustInsert(db *ppdb.DB, provider string, row relational.Row) {
	if _, err := db.Insert("records", provider, row); err != nil {
		log.Fatal(err)
	}
}

func show(db *ppdb.DB, title string, req ppdb.EnforcedQuery) {
	fmt.Printf("\n%s:\n", title)
	res, err := db.QueryEnforced(req)
	if err != nil {
		fmt.Printf("  error: %v\n", err)
		return
	}
	fmt.Printf("  %v\n", res.Columns)
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.Display()
		}
		fmt.Printf("  %v\n", cells)
	}
	fmt.Printf("  (%d returned, %d withheld)\n", res.Stats.RowsReturned, res.Stats.RowsSuppressed)
}
