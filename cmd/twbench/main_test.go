package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this build")

const golden = "testdata/experiments.golden"

// TestExperimentsGolden renders the paper's tables at three seeds and
// compares them byte for byte with the committed golden file, so a
// change that moves any reported number shows up as a diff of that
// file. Regenerate with: go test ./cmd/twbench -run TestExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, "all", 3); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from %s (-want +got; rerun with -update to accept):\n%s",
			golden, lineDiff(string(want), got.String()))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "e7", 1); err == nil {
		t.Fatal("run accepted an experiment the suite does not have")
	}
}

// lineDiff lists the lines that differ between want and got, position
// by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
