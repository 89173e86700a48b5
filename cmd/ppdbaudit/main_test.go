package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func corpusPath(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "examples", "corpus", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("corpus %s missing: %v", name, err)
	}
	return p
}

func TestRunAudit(t *testing.T) {
	if err := runAudit(io.Discard, corpusPath(t, "clinic.dsl"), 0.4, 5, false); err != nil {
		t.Fatal(err)
	}
	if err := runAudit(io.Discard, corpusPath(t, "clinic.dsl"), 0.4, 5, true); err != nil {
		t.Fatalf("json mode: %v", err)
	}
}

func TestRunAuditErrors(t *testing.T) {
	if err := runAudit(io.Discard, "does-not-exist.dsl", 0.1, 5, false); err == nil {
		t.Error("missing file should fail")
	}
	// A document with a policy but no providers.
	tmp := filepath.Join(t.TempDir(), "noproviders.dsl")
	if err := os.WriteFile(tmp, []byte(`policy "p" { attr x { tuple purpose=q visibility=0 granularity=0 retention=0 } }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAudit(io.Discard, tmp, 0.1, 5, false); err == nil {
		t.Error("providerless corpus should fail")
	}
	// A document with providers but no policy.
	tmp2 := filepath.Join(t.TempDir(), "nopolicy.dsl")
	if err := os.WriteFile(tmp2, []byte(`provider "a" threshold 5 { }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAudit(io.Discard, tmp2, 0.1, 5, false); err == nil {
		t.Error("policyless corpus should fail")
	}
	// Unparseable document.
	tmp3 := filepath.Join(t.TempDir(), "bad.dsl")
	if err := os.WriteFile(tmp3, []byte("not a dsl"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAudit(io.Discard, tmp3, 0.1, 5, false); err == nil {
		t.Error("bad corpus should fail")
	}
}

// TestTopTableMatchesReport pins the top-N table to the population the
// report lines describe: a duplicate provider block supersedes the earlier
// one (last wins, case-folded), so the superseded block must not be ranked.
func TestTopTableMatchesReport(t *testing.T) {
	corpus := `policy "p" { attr weight { tuple purpose=care visibility=1 granularity=1 retention=1 } }
provider "ann" threshold 0 { }
provider "bob" threshold 0 { attr weight { tuple purpose=care visibility=3 granularity=3 retention=3 } }
provider "ANN" threshold 0 { attr weight { tuple purpose=care visibility=3 granularity=3 retention=3 } }
`
	in := filepath.Join(t.TempDir(), "dup.dsl")
	if err := os.WriteFile(in, []byte(corpus), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := runAudit(&buf, in, 0.5, 10, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "providers: 2\n") || !strings.Contains(out, "(0 would default)") {
		t.Fatalf("report lines do not describe the collapsed population:\n%s", out)
	}
	_, table, ok := strings.Cut(out, "conflict pairs\n")
	if !ok {
		t.Fatalf("no top-N table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")[1:] // skip the rule
	if len(lines) != 2 {
		t.Fatalf("top-N table has %d rows, want 2:\n%s", len(lines), table)
	}
	for _, l := range lines {
		f := strings.Fields(l)
		if f[0] == "ann" {
			t.Errorf("superseded block ranked: %q", l)
		}
		if f[1] != "false" || f[4] != "false" {
			t.Errorf("row %q contradicts the report (no provider is violated or defaults)", l)
		}
	}
}
