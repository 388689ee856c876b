package harness

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ctbia/internal/obs"
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
			var b strings.Builder
			for _, r := range RunAll(nil, Options{Quick: tc.quick, Parallel: runtime.GOMAXPROCS(0)}) {
				b.WriteString(r.Table.Render())
				b.WriteString("\n")
			}
			requireTestdata(t, "testdata/tables_"+tc.name+".txt", b.String())
		})
	}
}

// TestSimCountsMatchTestdata pins every count the simulated machines
// keep, as TestTablesMatchTestdata pins the cells: a speed-up of the
// simulator must leave them all unchanged, including the ones no table
// prints. The testdata files hold the nonzero cpu.*, cache.*, bia.* and
// mem.dram_* registry totals of a serial run, one "name value" line
// each, sorted; host-side and schedule-dependent names (mem.page_*,
// harness.*, trace.*, cpu.machines_*) are left out. They are made from
// ctbench's -json metrics:
//
//	ctbench -quick -exp all -parallel 1 -json r.json >/dev/null
//	python3 -c 'import json,sys; m=json.load(open("r.json"))["metrics"]; [print(k, m[k]) for k in sorted(m) if k.startswith(("cpu.", "cache.", "bia.", "mem.dram_")) and not k.startswith("cpu.machines_") and m[k]]' > testdata/counts_quick.txt
//
// The same run's nonzero path.* totals, which of AccessBatch's three
// ways charged how many lines, are pinned in testdata/paths_*.txt
// (the same one-liner with k.startswith("path.")): no table or count
// sees a run move between the closed form, the pass and the accesses
// one by one, so a change to the cache's gates that moves one fails
// here instead of only moving the host's time. The paper-scale run is
// skipped under -short.
func TestSimCountsMatchTestdata(t *testing.T) {
	for _, tc := range []struct {
		name  string
		quick bool
	}{
		{"quick", true},
		{"paper", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.quick && testing.Short() {
				t.Skip("paper-scale counts need the full-scale run")
			}
			defer obsReset()
			obsReset()
			obs.Arm()
			RunAll(nil, Options{Quick: tc.quick, Parallel: 1})
			snap := obs.Snapshot()
			requireTestdata(t, "testdata/counts_"+tc.name+".txt", listCounts(snap, simCount))
			requireTestdata(t, "testdata/paths_"+tc.name+".txt", listCounts(snap, func(name string) bool {
				return strings.HasPrefix(name, "path.")
			}))
		})
	}
}

// listCounts lists snap's nonzero counts whose names keep says, one
// "name value" line each, sorted by name.
func listCounts(snap map[string]uint64, keep func(name string) bool) string {
	var names []string
	for name, v := range snap {
		if keep(name) && v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, snap[name])
	}
	return b.String()
}

// simCount reports whether a registry name is a simulated count.
func simCount(name string) bool {
	if strings.HasPrefix(name, "cpu.machines_") {
		return false
	}
	for _, p := range []string{"cpu.", "cache.", "bia.", "mem.dram_"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// requireTestdata fails at the first line where got differs from the
// testdata file.
func requireTestdata(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("output differs from %s at line %d:\ngot  %q\nwant %q", file, i+1, lineAt(gl, i), lineAt(wl, i))
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}
