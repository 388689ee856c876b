package harness

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestTablesMatchTestdata pins every cell of every table across
// commits. The golden tests check the paper's claims within tolerances
// and CI compares a build only with itself, so without this a change
// that moved a cell everywhere at once would pass. The testdata files
// are `ctbench [-quick] -exp all` output with the per-experiment timing
// lines and the total line stripped:
//
//	ctbench -quick -exp all | sed -e '/^(.* in .*)$/d' -e '/^total:/d' > testdata/tables_quick.txt
//
// A change meant to move a cell regenerates them and says why. The
// paper-scale run is skipped under -short.
func TestTablesMatchTestdata(t *testing.T) {
	for _, tc := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"paper", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.quick && testing.Short() {
				t.Skip("paper-scale tables need the full-scale run")
			}
			want, err := os.ReadFile("testdata/tables_" + tc.name + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, r := range RunAll(nil, Options{Quick: tc.quick, Parallel: runtime.GOMAXPROCS(0)}) {
				b.WriteString(r.Table.Render())
				b.WriteString("\n")
			}
			got := b.String()
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("tables differ from testdata/tables_%s.txt at line %d:\ngot  %q\nwant %q",
						tc.name, i+1, lineAt(gl, i), lineAt(wl, i))
				}
			}
		})
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of tables>"
}
