package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
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

// TestExperimentsDocMatchesGolden checks that EXPERIMENTS.md reports the
// golden tables: every row of the E2, E3, E5, E6 and E8 tables, each
// number as the document rounds it, and the E4 and E9 counts its prose
// quotes. A change that moves a table must move the document with it.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	gold, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"E2", "E3", "E5", "E6", "E8"} {
		g := goldenRows(string(gold), e)
		d := docRows(string(doc), e)
		if len(g) == 0 || len(g) != len(d) {
			t.Errorf("%s: the golden table has %d rows, EXPERIMENTS.md %d", e, len(g), len(d))
			continue
		}
		for i := range g {
			if len(g[i]) != len(d[i]) {
				t.Errorf("%s row %d: golden %q, document %q", e, i+1, g[i], d[i])
				continue
			}
			for j := range g[i] {
				if !sameFigure(g[i][j], d[i][j]) {
					t.Errorf("%s row %d column %d: golden %q, document %q", e, i+1, j+1, g[i][j], d[i][j])
				}
			}
		}
	}
	for _, c := range []struct{ name, gold, doc string }{
		{"E4 suspicion states", `wrong-suspicion states entered: ([\d.]+)`, `wrong-suspicion states entered ([\d.]+) per run`},
		{"E4 masked runs", `masked without membership change: (\d+)/(\d+) runs`, `masked without any membership change in (\d+) of\s+(\d+) seeds`},
		{"E9 scenarios", `fault scenarios checked: (\d+)`, `(\d+) randomized fault scenarios`},
	} {
		g := regexp.MustCompile(c.gold).FindStringSubmatch(string(gold))
		d := regexp.MustCompile(c.doc).FindStringSubmatch(string(doc))
		if g == nil || d == nil {
			t.Errorf("%s: not found (golden %v, document %v)", c.name, g != nil, d != nil)
			continue
		}
		for i := 1; i < len(g); i++ {
			if !sameFigure(g[i], d[i]) {
				t.Errorf("%s: golden %q, document %q", c.name, g[1:], d[1:])
				break
			}
		}
	}
}

// goldenRows returns the table rows of experiment e in the golden
// output: the lines of its section whose last field is a number.
func goldenRows(out, e string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "=== ") {
			in = strings.HasPrefix(line, "=== "+e+" ")
			continue
		}
		f := strings.Fields(line)
		if !in || len(f) < 3 {
			continue
		}
		if _, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			rows = append(rows, f)
		}
	}
	return rows
}

// docRows returns the body rows of the first table in experiment e's
// section of EXPERIMENTS.md, one trimmed string per cell.
func docRows(doc, e string) [][]string {
	var rows [][]string
	in, header := false, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			if in {
				break
			}
			in = strings.HasPrefix(line, "## "+e+" ")
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break // the first table is over
			}
			continue
		}
		if !header {
			header = true // column names
			continue
		}
		if strings.HasPrefix(line, "|-") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		rows = append(rows, cells)
	}
	return rows
}

// sameFigure reports whether the document's figure d states the golden
// figure g: the same word, or the same number rounded to d's precision.
// d may group thousands with spaces, carry a unit ("ms") or be a count
// out of a total ("40/40").
func sameFigure(g, d string) bool {
	gv, err := strconv.ParseFloat(g, 64)
	if err != nil {
		return g == d
	}
	d = strings.TrimSuffix(d, " ms")
	d, _, _ = strings.Cut(d, "/")
	d = strings.ReplaceAll(d, " ", "")
	dv, err := strconv.ParseFloat(d, 64)
	if err != nil {
		return false
	}
	decimals := 0
	if _, frac, ok := strings.Cut(d, "."); ok {
		decimals = len(frac)
	}
	return math.Abs(gv-dv) <= 0.5*math.Pow(10, -float64(decimals))+1e-9
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
