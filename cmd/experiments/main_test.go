package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestRunOneAllExperiments exercises every experiment through the CLI entry
// point with small populations. Correctness of the numbers is covered by
// internal/experiments tests and TestCanonicalOutput — here we check the
// wiring.
func TestRunOneAllExperiments(t *testing.T) {
	for _, name := range allExperiments {
		if err := runOne(io.Discard, name, 300, 7, 4, 3); err != nil {
			t.Errorf("runOne(%s): %v", name, err)
		}
	}
}

// TestCanonicalOutput pins EXPERIMENTS.md to the code: `experiments -run
// all` at the default flags must print, byte for byte, the fenced block
// under "## Canonical output".
func TestCanonicalOutput(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const open = "## Canonical output\n\n```\n"
	i := bytes.Index(doc, []byte(open))
	if i < 0 {
		t.Fatal("EXPERIMENTS.md has no canonical output block")
	}
	want := doc[i+len(open):]
	j := bytes.Index(want, []byte("\n```\n"))
	if j < 0 {
		t.Fatal("canonical output block is not closed")
	}
	want = want[:j+1]

	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if gl[k] != wl[k] {
				t.Fatalf("output differs from EXPERIMENTS.md at line %d of the block:\n got: %q\nwant: %q", k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("output has %d lines, EXPERIMENTS.md's block %d", len(gl), len(wl))
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne(io.Discard, "nope", 10, 1, 1, 1); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestMinHelper(t *testing.T) {
	if min(1, 2) != 1 || min(5, 3) != 3 {
		t.Error("min wrong")
	}
}
