package harness

import (
	"strconv"
	"strings"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/memp"
	"ctbia/internal/workloads"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"config", "table2", "fig2", "motivation",
		"fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
		"fig8", "fig9", "fig10",
		"placement", "threshold", "biasize", "pinning", "llcbia", "replacement",
	}
	ids := IDs()
	for _, id := range want {
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, err := ByID("fig7a"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID must reject unknown ids")
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table := e.Run(Options{Quick: true})
			if table.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("empty table")
			}
			out := table.Render()
			if !strings.Contains(out, e.ID) {
				t.Error("render missing ID")
			}
		})
	}
}

// parseRatio extracts the float from "12.34x".
func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", s, err)
	}
	return v
}

func TestFig2OverheadGrowsWithSize(t *testing.T) {
	tab, _ := ByID("fig2")
	table := tab.Run(Options{Quick: true})
	if len(table.Rows) < 2 {
		t.Fatal("need at least two sizes")
	}
	first := parseRatio(t, table.Rows[0][2])
	last := parseRatio(t, table.Rows[len(table.Rows)-1][2])
	if last <= first {
		t.Fatalf("CT overhead should grow with DS size: %.2f -> %.2f", first, last)
	}
	// AVX strictly helps.
	for _, row := range table.Rows {
		if parseRatio(t, row[3]) >= parseRatio(t, row[2]) {
			t.Fatalf("avx (%s) should beat scalar (%s)", row[3], row[2])
		}
	}
}

func TestFig7BIABeatsCT(t *testing.T) {
	for _, id := range []string{"fig7b", "fig7c"} {
		e, _ := ByID(id)
		table := e.Run(Options{Quick: true})
		for _, row := range table.Rows {
			l1d := parseRatio(t, row[1])
			ctOv := parseRatio(t, row[3])
			if l1d >= ctOv {
				t.Errorf("%s %s: L1d BIA (%.2f) should beat CT (%.2f)", id, row[0], l1d, ctOv)
			}
		}
	}
}

func TestFig8DRAMRatioIsOne(t *testing.T) {
	e, _ := ByID("fig8")
	table := e.Run(Options{Quick: true})
	for _, row := range table.Rows {
		if got := parseRatio(t, row[4]); got < 0.9 || got > 1.1 {
			t.Errorf("%s: dram ratio %.2f, paper expects ~1", row[0], got)
		}
		if exec := parseRatio(t, row[5]); exec <= 1 {
			t.Errorf("%s: exec-time reduction %.2f should exceed 1", row[0], exec)
		}
	}
}

func TestFig10Verdicts(t *testing.T) {
	e, _ := ByID("fig10")
	table := e.Run(Options{Quick: true})
	joined := strings.Join(table.Notes, "\n")
	if !strings.Contains(joined, "insecure counts differ across secrets: true") {
		t.Error("insecure histogram should leak per-set counts")
	}
	if !strings.Contains(joined, "protected counts differ across secrets: false") {
		t.Error("protected histogram must not leak per-set counts")
	}
}

func TestRunWorkloadValidatesChecksums(t *testing.T) {
	// The harness must reject wrong results loudly. Feed it a strategy
	// whose loads return garbage.
	defer func() {
		if recover() == nil {
			t.Fatal("RunWorkload must panic on checksum mismatch")
		}
	}()
	RunWorkload(workloads.Histogram{}, workloads.Params{Size: 200, Seed: 1}, corrupting{}, 0)
}

// TestAddRowsFailsOnlyTheBadRow: an ablation row whose point returns a
// wrong checksum is a FAILED row naming the point, and the rows beside
// it still measure.
func TestAddRowsFailsOnlyTheBadRow(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 200, Seed: 1}
	strats := []ct.Strategy{ct.Direct{}, corrupting{}, ct.Linear{}}
	for _, workers := range []int{1, 3} {
		tb := &Table{ID: "rows", Headers: []string{"strategy", "cycles"}}
		ok := tb.addRows(workers, []string{"direct", "corrupting", "linear"}, func(i int) []string {
			r := runPoint(smallCacheConfig(0), "rows/"+strats[i].Name(),
				func() uint64 { return w.Reference(p) },
				func(m *cpu.Machine) uint64 { return w.Run(m, strats[i], p) })
			return []string{count(r.Cycles)}
		})
		if ok || len(tb.Rows) != 3 || len(tb.Failures) != 1 {
			t.Fatalf("workers=%d: ok=%v, %d rows, %d failures; want false, 3, 1", workers, ok, len(tb.Rows), len(tb.Failures))
		}
		if got := tb.Rows[1]; got[0] != "corrupting" || got[1] != "FAILED" {
			t.Errorf("workers=%d: bad row %v, want [corrupting FAILED]", workers, got)
		}
		if pe := tb.Failures[0]; pe.Point != "rows/corrupting" || !strings.Contains(pe.Error(), "checksum") {
			t.Errorf("workers=%d: failure %q at point %q", workers, pe.Error(), pe.Point)
		}
		for _, i := range []int{0, 2} {
			if tb.Rows[i][1] == "FAILED" {
				t.Errorf("workers=%d: row %v failed beside the bad one", workers, tb.Rows[i])
			}
		}
	}
}

// corrupting is a deliberately wrong strategy for the validation test:
// every load is off by one.
type corrupting struct{ ct.Direct }

func (corrupting) Name() string { return "corrupting" }

func (c corrupting) Load(m *cpu.Machine, ds *ct.LinSet, addr memp.Addr, w cpu.Width) uint64 {
	return c.Direct.Load(m, ds, addr, w) + 1
}

func TestRatioAndCountFormatting(t *testing.T) {
	if got := ratio(300, 100); got != "3.00x" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(0, 0); got != "1.00x" {
		t.Errorf("ratio(0,0) = %q", got)
	}
	if got := ratio(5, 0); got != "inf" {
		t.Errorf("ratio(5,0) = %q", got)
	}
	if got := count(1234567); got != "1,234,567" {
		t.Errorf("count = %q", got)
	}
	if got := count(42); got != "42" {
		t.Errorf("count = %q", got)
	}
}
