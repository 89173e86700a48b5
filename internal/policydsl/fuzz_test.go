package policydsl

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzPolicyDSL checks the parse → render → parse round trip. Any input may
// be refused; for one that parses, Render's output must parse again, render
// to the same bytes, and keep every policy and provider name byte for byte
// (checkpoints persist providers as rendered DSL, so a name that changes
// here renames a provider across a restart). The seed corpus is
// examples/corpus/*.dsl plus testdata/fuzz/FuzzPolicyDSL (past crashers),
// which the ordinary test suite replays; `make fuzz` explores beyond it.
func FuzzPolicyDSL(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "corpus", "*.dsl"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := Parse(src)
		if err != nil {
			return
		}
		out := Render(doc)
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("rendered document does not parse: %v\n%s", err, out)
		}
		if out2 := Render(again); out2 != out {
			t.Fatalf("render is not stable:\nfirst  %q\nsecond %q", out, out2)
		}
		// Identical renders imply the same blocks; the names must also be
		// the parsed bytes, not an escaped or re-decoded form of them.
		if doc.Policy != nil && again.Policy.Name != doc.Policy.Name {
			t.Fatalf("policy name %q came back as %q", doc.Policy.Name, again.Policy.Name)
		}
		for i, p := range doc.Providers {
			if got := again.Providers[i].Provider; got != p.Provider {
				t.Fatalf("provider %q came back as %q", p.Provider, got)
			}
		}
	})
}
