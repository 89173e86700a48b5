// Command whatif evaluates a proposed policy against a current corpus — the
// Sec. 10 "what-if scenario": what would adopting the new policy do to
// P(W), P(Default), and what extra per-provider utility T would the change
// need to generate to pay for the lost providers (Eq. 31)?
//
// It is a thin client of the internal/whatif engine, the same one POST
// /v1/whatif serves: the two policies are expressed as a candidate diff,
// evaluated under a shadow policy, and classified with the Eq. 28-31
// verdict. -json emits the exact HTTP response body, so offline analysis
// and the live service cannot drift.
//
// The current document supplies the provider population, the current
// policy and its Σ vector; the proposed document supplies the candidate
// policy (and optionally its own Σ vector — its provider blocks, if any,
// are ignored).
//
// Usage:
//
//	whatif -current corpus.dsl -proposed next-policy.dsl -u 10 [-t 2] [-detail] [-json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/policydsl"
	"repro/internal/whatif"
)

func main() {
	currentPath := flag.String("current", "", "DSL document with the current policy and providers")
	proposedPath := flag.String("proposed", "", "DSL document with the proposed policy")
	u := flag.Float64("u", 10, "current per-provider utility U (Eq. 25)")
	t := flag.Float64("t", 0, "realized extra per-provider utility T the change would generate (Eq. 27)")
	detail := flag.Bool("detail", false, "include per-segment default counts for each affected attribute")
	asJSON := flag.Bool("json", false, "emit the POST /v1/whatif response body instead of the table")
	flag.Parse()

	if err := run(*currentPath, *proposedPath, *u, *t, *detail, *asJSON); err != nil {
		fmt.Fprintf(os.Stderr, "whatif: %v\n", err)
		os.Exit(1)
	}
}

func run(currentPath, proposedPath string, u, t float64, detail, asJSON bool) error {
	if currentPath == "" || proposedPath == "" {
		return fmt.Errorf("both -current and -proposed are required")
	}
	curSrc, err := os.ReadFile(currentPath)
	if err != nil {
		return err
	}
	propSrc, err := os.ReadFile(proposedPath)
	if err != nil {
		return err
	}
	cur, err := policydsl.Parse(string(curSrc))
	if err != nil {
		return fmt.Errorf("current: %w", err)
	}
	prop, err := policydsl.Parse(string(propSrc))
	if err != nil {
		return fmt.Errorf("proposed: %w", err)
	}
	if cur.Policy == nil || len(cur.Providers) == 0 {
		return fmt.Errorf("current document needs a policy and providers")
	}
	if prop.Policy == nil {
		return fmt.Errorf("proposed document needs a policy")
	}

	diff, err := whatif.DiffPolicies(cur.Policy, prop.Policy, cur.AttrSens, prop.AttrSens)
	if err != nil {
		return err
	}
	req := &whatif.Request{Name: prop.Policy.Name, Diff: diff, U: u, T: t, Detail: detail}
	resp, err := whatif.EvaluateOffline(cur.Policy, cur.AttrSens, core.Options{}, cur.Providers, req)
	if err != nil {
		return err
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(resp)
	}
	printTable(resp)
	return nil
}

func printTable(w *whatif.Response) {
	fmt.Printf("what-if: %q → %q over %d providers (U = %g, T = %g)\n\n",
		w.PolicyName, w.ProposedName, w.Current.N, w.U, w.T)
	fmt.Printf("%-22s %12s %12s %12s\n", "", "current", "proposed", "delta")
	fmt.Printf("%-22s %12.4f %12.4f %+12.4f\n", "P(W)", w.Current.PW, w.Proposed.PW, w.DeltaPW)
	fmt.Printf("%-22s %12.4f %12.4f %+12.4f\n", "P(Default)", w.Current.PDefault, w.Proposed.PDefault, w.DeltaPDefault)
	fmt.Printf("%-22s %12g %12g %+12g\n", "Violations (Eq. 16)",
		w.Current.TotalViolations, w.Proposed.TotalViolations,
		w.Proposed.TotalViolations-w.Current.TotalViolations)
	fmt.Printf("%-22s %12d %12d %+12d\n", "defaults",
		w.Current.DefaultCount, w.Proposed.DefaultCount,
		w.Proposed.DefaultCount-w.Current.DefaultCount)

	fmt.Printf("\naffected attributes: %v", w.AffectedAttributes)
	if w.GlobalFallback {
		fmt.Printf(" (implicit-zero conflicts moved: every provider re-assessed)")
	}
	fmt.Printf("\nre-assessed %d providers, reused the live totals of %d\n", w.Affected, w.MemoReused)

	if w.BreakEvenT != nil {
		fmt.Printf("\nbreak-even extra utility per provider (Eq. 31): T > %g\n", *w.BreakEvenT)
	} else {
		fmt.Printf("\nbreak-even extra utility per provider (Eq. 31): none — the candidate defaults every provider\n")
	}
	switch w.Verdict {
	case whatif.VerdictFree:
		fmt.Println("verdict: free — the proposal loses no providers; any positive T pays.")
	case whatif.VerdictJustified:
		fmt.Printf("verdict: justified — T = %g clears the break-even (Eq. 28).\n", w.T)
	default:
		fmt.Printf("verdict: unjustified — T = %g does not pay for the lost providers.\n", w.T)
	}

	if len(w.Segments) > 0 {
		fmt.Printf("\n%-22s %12s %12s %12s\n", "segment", "providers", "defaults", "defaults'")
		for _, seg := range w.Segments {
			fmt.Printf("%-22s %12d %12d %12d\n", seg.Attribute, seg.Providers, seg.DefaultsCurrent, seg.DefaultsProposed)
		}
	}
}
