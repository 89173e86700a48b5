// Command ppdbaudit audits a policy/preference corpus: it parses a DSL
// document (see internal/policydsl), assesses every provider against the
// house policy, and reports violations (Def. 1), severities (Eq. 15),
// defaults (Def. 4), P(W), P(Default) and the α-PPDB verdict (Def. 3).
//
// Usage:
//
//	ppdbaudit -in corpus.dsl -alpha 0.1 [-top 10] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/policydsl"
)

func main() {
	in := flag.String("in", "", "DSL document to audit (default: stdin)")
	alpha := flag.Float64("alpha", 0.1, "α threshold for the PPDB verdict")
	top := flag.Int("top", 10, "show the top-N most violated providers")
	asJSON := flag.Bool("json", false, "emit the population report as JSON")
	flag.Parse()

	if err := runAudit(os.Stdout, *in, *alpha, *top, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "ppdbaudit: %v\n", err)
		os.Exit(1)
	}
}

func runAudit(w io.Writer, in string, alpha float64, top int, asJSON bool) error {
	var src []byte
	var err error
	if in == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		return err
	}
	if doc.Policy == nil {
		return fmt.Errorf("document has no policy block")
	}
	if len(doc.Providers) == 0 {
		return fmt.Errorf("document has no provider blocks")
	}
	assessor, err := core.NewAssessor(doc.Policy, doc.AttrSens, core.Options{})
	if err != nil {
		return err
	}
	// Build the provider table across the worker pool and certify its
	// rows (sorted by provider key, so the output is stable across runs).
	// Duplicate provider blocks collapse, last one wins — the same
	// semantics as registering against a PPDB.
	table := ledger.NewTable()
	table.Upsert(assessor, ledger.ItemsOf(doc.Providers))
	rep := ledger.Assemble(assessor, table.Rows())

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(w, "policy %q: %d tuples over %v\n", doc.Policy.Name, doc.Policy.Len(), doc.Policy.Attributes())
	fmt.Fprintf(w, "providers: %d\n\n", rep.N)
	fmt.Fprintf(w, "P(W)        = %.4f  (%d violated)\n", rep.PW, rep.ViolatedCount)
	fmt.Fprintf(w, "P(Default)  = %.4f  (%d would default)\n", rep.PDefault, rep.DefaultCount)
	fmt.Fprintf(w, "Violations  = %g (Eq. 16)\n", rep.TotalViolations)
	verdict := "FAIL"
	if core.IsAlphaPPDB(rep.PW, alpha) {
		verdict = "ok"
	}
	fmt.Fprintf(w, "α-PPDB      = %s (α = %g, min feasible α = %.4f)\n\n", verdict, alpha, rep.PW)

	// Rank the snapshot's rows, not the raw blocks, so a superseded
	// duplicate never reaches the table.
	worst := core.TopViolated(rep.Providers, top)
	rows := make([][]string, 0, len(worst))
	for _, pr := range worst {
		rows = append(rows, []string{
			pr.Provider,
			fmt.Sprintf("%v", pr.Violated),
			fmt.Sprintf("%g", pr.Violation),
			fmt.Sprintf("%g", pr.Threshold),
			fmt.Sprintf("%v", pr.Defaults),
			fmt.Sprintf("%d", len(pr.Pairs)),
		})
	}
	return experiments.WriteTable(w,
		[]string{"provider", "w_i", "Violation_i", "v_i", "default_i", "conflict pairs"}, rows)
}
