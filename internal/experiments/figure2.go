package experiments

import (
	"fmt"
	"io"

	"repro/internal/generalize"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/relational"
)

// Figure2 walks the notation of Sec. 4 / Figure 2 on a live PPDB: the data
// table T = {t_1 … t_n} with attributes A^j, the house policy HP with its
// per-attribute extraction HP^j (Eq. 4), and each provider's ProviderPref_i
// with its per-datum extraction ProviderPref_i^j (Eq. 6). It serves as the
// end-to-end integration check that the formal objects are all reachable
// from a running database.
func Figure2(w io.Writer) error {
	doc, err := policydsl.Parse(`
policy "figure2" {
  attr provider {
    tuple purpose=research visibility=house granularity=specific retention=month
  }
  attr weight {
    tuple purpose=research visibility=house granularity=partial retention=month
  }
  attr age {
    tuple purpose=research visibility=house granularity=partial retention=month
    tuple purpose=care visibility=owner granularity=specific retention=year
  }
  sensitivity weight 4
  sensitivity age 1
}

provider "t1" threshold 25 {
  attr weight {
    sens value=2 v=1 g=2 r=1
    tuple purpose=research visibility=third-party granularity=specific retention=year
  }
  attr age {
    tuple purpose=research visibility=house granularity=partial retention=month
    tuple purpose=care visibility=owner granularity=specific retention=year
  }
}

provider "t2" threshold 5 {
  attr weight {
    sens value=3 v=2 g=3 r=1
    tuple purpose=research visibility=owner granularity=existential retention=week
  }
  attr age {
    tuple purpose=research visibility=house granularity=partial retention=month
    tuple purpose=care visibility=owner granularity=specific retention=year
  }
}
`)
	if err != nil {
		return err
	}

	weightH, err := generalize.NewNumericHierarchy(5, 2, 2)
	if err != nil {
		return err
	}
	ageH, err := generalize.NewNumericHierarchy(10, 2, 2)
	if err != nil {
		return err
	}
	db, err := ppdb.New(ppdb.Config{
		Policy:      doc.Policy,
		AttrSens:    doc.AttrSens,
		Hierarchies: map[string]generalize.Hierarchy{"weight": weightH, "age": ageH},
	})
	if err != nil {
		return err
	}
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "age", Type: relational.TypeInt},
		{Name: "weight", Type: relational.TypeFloat},
	})
	if err != nil {
		return err
	}
	if err := db.RegisterTable("t", schema, "provider"); err != nil {
		return err
	}
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			return err
		}
	}
	if _, err := db.Insert("t", "t1", relational.Row{relational.Text("t1"), relational.Int(34), relational.Float(61.5)}); err != nil {
		return err
	}
	if _, err := db.Insert("t", "t2", relational.Row{relational.Text("t2"), relational.Int(51), relational.Float(92)}); err != nil {
		return err
	}

	fmt.Fprintln(w, "Figure 2 — notation walk-through on a live PPDB")
	fmt.Fprintln(w)

	// The data table T: t_i is provider i's own tuple, read through the
	// Sec. 1 right of access (ProviderView), so T appears exactly as stored.
	var cols []string
	var rows [][]string
	for _, name := range []string{"t1", "t2"} {
		own, err := db.ProviderView(name)
		if err != nil {
			return err
		}
		for _, r := range own {
			cols = r.Columns
			cells := make([]string, len(r.Values))
			for i, v := range r.Values {
				cells[i] = v.Display()
			}
			rows = append(rows, cells)
		}
	}
	fmt.Fprintln(w, "T (each t_i read by its own provider through the Sec. 1 right of access):")
	if err := WriteTable(w, cols, rows); err != nil {
		return err
	}

	// The same table as a house-class requester sees it for research,
	// enforced per datum: neither provider states a preference on the
	// provider column, so the Sec. 5 implicit zero withholds both rows.
	res, err := db.QueryEnforced(ppdb.EnforcedQuery{
		Requester: "figure2", Purpose: "research", Visibility: 2,
		SQL: "SELECT provider, age, weight FROM t ORDER BY provider",
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nenforced read of T for purpose=research by a house-class requester: %d rows returned, %d suppressed\n",
		res.Stats.RowsReturned, res.Stats.RowsSuppressed)

	// HP and HP^weight (Eq. 4).
	fmt.Fprintf(w, "\nHP: %s\n", db.Policy())
	fmt.Fprintln(w, "\nHP^weight (Eq. 4):")
	for _, e := range db.Policy().ForAttribute("weight") {
		fmt.Fprintf(w, "  %s\n", e)
	}

	// ProviderPref_i and ProviderPref_i^weight (Eqs. 5-6).
	for _, name := range []string{"t1", "t2"} {
		p, _ := db.Provider(name)
		fmt.Fprintf(w, "\nProviderPref_%s^weight (Eq. 6):\n", name)
		for _, e := range p.ForAttribute("weight") {
			fmt.Fprintf(w, "  %s  σ=%s\n", e, p.Sensitivity("weight", e.Tuple.Purpose))
		}
	}

	// The violation assessment over the live registry.
	cert, err := db.Certify(0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAssessment: P(W) = %.3f, P(Default) = %.3f, Violations = %g, α=0.5-PPDB: %v\n",
		cert.Report.PW, cert.Report.PDefault, cert.Report.TotalViolations, cert.IsAlphaPPDB)
	return nil
}
