package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/whatif"
)

func silenceStdout(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// captureStdout redirects os.Stdout to a temp file and returns a function
// that reads back everything written.
func captureStdout(t *testing.T) func() []byte {
	t.Helper()
	old := os.Stdout
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	t.Cleanup(func() {
		os.Stdout = old
		f.Close()
	})
	return func() []byte {
		os.Stdout = old
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
}

func TestRunWhatIf(t *testing.T) {
	silenceStdout(t)
	cur := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	prop := filepath.Join("..", "..", "examples", "corpus", "clinic-v2.dsl")
	if err := run(cur, prop, 10, 0, true, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunWhatIfJSON pins the -json output to the HTTP wire format: the
// bytes must decode as a whatif.Response, the shared request/response
// contract of POST /v1/whatif.
func TestRunWhatIfJSON(t *testing.T) {
	read := captureStdout(t)
	cur := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	prop := filepath.Join("..", "..", "examples", "corpus", "clinic-v2.dsl")
	if err := run(cur, prop, 10, 3, true, true); err != nil {
		t.Fatal(err)
	}
	var resp whatif.Response
	if err := json.Unmarshal(read(), &resp); err != nil {
		t.Fatalf("-json output is not a whatif.Response: %v", err)
	}
	if resp.Current.N == 0 {
		t.Error("expected a non-empty population in the JSON response")
	}
	if resp.Verdict == "" {
		t.Error("expected a verdict in the JSON response")
	}
	if resp.Affected+resp.MemoReused != resp.Current.N {
		t.Errorf("affected %d + reused %d != N %d", resp.Affected, resp.MemoReused, resp.Current.N)
	}
}

func TestRunWhatIfErrors(t *testing.T) {
	silenceStdout(t)
	cur := filepath.Join("..", "..", "examples", "corpus", "clinic.dsl")
	if err := run("", cur, 10, 0, false, false); err == nil {
		t.Error("missing -current should fail")
	}
	if err := run(cur, "", 10, 0, false, false); err == nil {
		t.Error("missing -proposed should fail")
	}
	if err := run("nope.dsl", cur, 10, 0, false, false); err == nil {
		t.Error("missing current file should fail")
	}
	if err := run(cur, "nope.dsl", 10, 0, false, false); err == nil {
		t.Error("missing proposed file should fail")
	}
	// Proposed without a policy block.
	tmp := filepath.Join(t.TempDir(), "noprov.dsl")
	if err := os.WriteFile(tmp, []byte(`provider "a" threshold 5 { }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cur, tmp, 10, 0, false, false); err == nil {
		t.Error("policyless proposal should fail")
	}
	if err := run(tmp, cur, 10, 0, false, false); err == nil {
		t.Error("current without policy+providers should fail")
	}
	// Identical documents produce an empty diff — nothing to evaluate.
	if err := run(cur, cur, 10, 0, false, false); err == nil {
		t.Error("identical policies should fail with an empty diff")
	}
}

// TestRunWhatIfMatchesStore pins the offline evaluation to the store's:
// the corpus names one provider twice in different case, and cmd/whatif
// must evaluate the table the store would hold — the key given twice
// collapsed, its last block kept — so its current and proposed summaries
// equal DB.WhatIf's on a store loaded from the same corpus.
func TestRunWhatIfMatchesStore(t *testing.T) {
	dir := t.TempDir()
	curSrc := `policy "v1" {
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
  }
}
provider "alice" threshold 1 {
  attr weight {
    tuple purpose=care visibility=owner granularity=existential retention=transient
  }
}
provider "Alice" threshold 90 {
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
  }
}
provider "bob" threshold 90 {
  attr weight {
    tuple purpose=care visibility=house granularity=specific retention=year
  }
}
`
	propSrc := `policy "v2" {
  attr weight {
    tuple purpose=care visibility=third-party granularity=specific retention=year
  }
}
`
	cur, prop := filepath.Join(dir, "cur.dsl"), filepath.Join(dir, "prop.dsl")
	if err := os.WriteFile(cur, []byte(curSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prop, []byte(propSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	read := captureStdout(t)
	if err := run(cur, prop, 10, 0, false, true); err != nil {
		t.Fatal(err)
	}
	var offline whatif.Response
	if err := json.Unmarshal(read(), &offline); err != nil {
		t.Fatal(err)
	}

	curDoc, err := policydsl.Parse(curSrc)
	if err != nil {
		t.Fatal(err)
	}
	propDoc, err := policydsl.Parse(propSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ppdb.New(ppdb.Config{Policy: curDoc.Policy, AttrSens: curDoc.AttrSens})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterProviders(curDoc.Providers); err != nil {
		t.Fatal(err)
	}
	diff, err := whatif.DiffPolicies(curDoc.Policy, propDoc.Policy, curDoc.AttrSens, propDoc.AttrSens)
	if err != nil {
		t.Fatal(err)
	}
	online, err := db.WhatIf(&whatif.Request{Name: propDoc.Policy.Name, Diff: diff, U: 10})
	if err != nil {
		t.Fatal(err)
	}
	if online.Current.N != 2 {
		t.Fatalf("the store holds %d providers, want 2", online.Current.N)
	}
	if offline.Current != online.Current || offline.Proposed != online.Proposed {
		t.Errorf("cmd/whatif and DB.WhatIf disagree:\noffline current %+v proposed %+v\nonline  current %+v proposed %+v",
			offline.Current, offline.Proposed, online.Current, online.Proposed)
	}
}
