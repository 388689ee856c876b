package ct

import (
	"slices"
	"testing"
	"testing/quick"

	"ctbia/internal/memp"
)

func TestContiguousSinglePage(t *testing.T) {
	// The paper's Bitmask example: DS = {0x1080, 0x10c0, ..., 0x1fc0}
	// (lines 2..63 of page 0x1000) → Bitmask = 111...1100.
	ds := NewContiguous("ex", 0x1080, 0x1000-0x80)
	if ds.NumPages() != 1 {
		t.Fatalf("pages = %d", ds.NumPages())
	}
	span := ds.Pages()[0]
	if span.Base != 0x1000 {
		t.Fatalf("base = %v", span.Base)
	}
	if want := ^uint64(3); span.Mask != want {
		t.Fatalf("mask = %#x, want %#x", span.Mask, want)
	}
	if ds.NumLines() != 62 || span.Lines() != 62 {
		t.Fatalf("lines = %d/%d", ds.NumLines(), span.Lines())
	}
}

func TestContiguousSpansPages(t *testing.T) {
	// 3 pages: half of page 1, all of page 2, one line of page 3.
	base := memp.Addr(0x1800) // line 32 of page 0x1000
	size := uint64(0x800 + 0x1000 + 0x40)
	ds := NewContiguous("span", base, size)
	if ds.NumPages() != 3 {
		t.Fatalf("pages = %d", ds.NumPages())
	}
	p := ds.Pages()
	wantMask0 := ^uint64(0) &^ (1<<32 - 1) // lines 32..63
	if p[0].Base != 0x1000 || p[0].Mask != wantMask0 {
		t.Fatalf("page0 = %+v", p[0])
	}
	if p[1].Base != 0x2000 || p[1].Mask != ^uint64(0) {
		t.Fatalf("page1 = %+v", p[1])
	}
	if p[2].Base != 0x3000 || p[2].Mask != 1 {
		t.Fatalf("page2 = %+v", p[2])
	}
	if ds.NumLines() != 32+64+1 {
		t.Fatalf("NumLines = %d", ds.NumLines())
	}
}

func TestPartialLineInclusion(t *testing.T) {
	// A 1-byte set still covers its whole line; a set straddling a
	// line boundary covers both lines.
	if got := NewContiguous("b", 0x1001, 1).NumLines(); got != 1 {
		t.Fatalf("1 byte = %d lines", got)
	}
	if got := NewContiguous("s", 0x103f, 2).NumLines(); got != 2 {
		t.Fatalf("straddle = %d lines", got)
	}
}

func TestFromLinesNormalizes(t *testing.T) {
	ds := FromLines("n", []memp.Addr{0x1048, 0x1008, 0x1040, 0x2000})
	// 0x1048 and 0x1040 share a line.
	if ds.NumLines() != 3 {
		t.Fatalf("NumLines = %d, want 3 (dedup + line align)", ds.NumLines())
	}
	lines := ds.Lines()
	if lines[0] != 0x1000 || lines[1] != 0x1040 || lines[2] != 0x2000 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestContainsLine(t *testing.T) {
	ds := FromLines("c", []memp.Addr{0x1000, 0x1080})
	for addr, want := range map[memp.Addr]bool{
		0x1000: true, 0x103f: true, // first line, any offset
		0x1040: false, // gap line
		0x1080: true,
		0x10c0: false,
	} {
		if got := ds.ContainsLine(addr); got != want {
			t.Errorf("ContainsLine(%v) = %v, want %v", addr, got, want)
		}
	}
}

// TestContainsLineMatchesLines holds the run search to a linear scan of
// Lines(), for a contiguous set (one run) and a scattered one, at every
// line from one line below the set to one line past it, gaps included.
func TestContainsLineMatchesLines(t *testing.T) {
	for _, ds := range []*LinSet{
		NewContiguous("c", 0x1800, 3*memp.PageSize),
		FromLines("s", []memp.Addr{0x1fc0, 0x1000, 0x1040, 0x2000, 0x1080, 0x10c8, 0x1200, 0x1f80, 0x5000}),
	} {
		lines := ds.Lines()
		first, last := lines[0]-memp.LineSize, lines[len(lines)-1]+memp.LineSize
		for la := first; la <= last; la += memp.LineSize {
			want := slices.Contains(lines, la)
			for _, addr := range []memp.Addr{la, la + memp.LineSize - 1} {
				if got := ds.ContainsLine(addr); got != want {
					t.Errorf("%s: ContainsLine(%v) = %v, want %v", ds.Name(), addr, got, want)
				}
			}
		}
	}
}

func TestFromRegion(t *testing.T) {
	r := memp.Region{Name: "tab", Base: 0x10000, Size: 300}
	ds := FromRegion(r)
	if ds.Name() != "tab" || ds.NumLines() != 5 { // ceil(300/64)
		t.Fatalf("ds = %v", ds)
	}
	if ds.String() == "" {
		t.Fatal("String empty")
	}
}

func TestEmptySetPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewContiguous("e", 0x1000, 0) },
		func() { FromLines("e", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty set should panic")
				}
			}()
			f()
		}()
	}
}

func TestMaskMatchesLinesProperty(t *testing.T) {
	// For arbitrary contiguous sets, the per-page masks collectively
	// enumerate exactly the set's lines.
	f := func(rawBase uint32, rawSize uint16) bool {
		base := memp.Addr(rawBase)
		size := uint64(rawSize%20000) + 1
		ds := NewContiguous("p", base, size)
		count := 0
		for _, span := range ds.Pages() {
			for slot := uint(0); slot < memp.LinesPerPage; slot++ {
				if span.Mask&(1<<slot) != 0 {
					la := memp.LineOf(span.Base, slot)
					if !ds.ContainsLine(la) {
						return false
					}
					count++
				}
			}
		}
		return count == ds.NumLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// requireRunsCoverLines checks the sweep decomposition of ds: its runs
// enumerate Lines() exactly and in order, each run's first index is
// where its lines start in Lines(), and no two runs could be one.
func requireRunsCoverLines(t *testing.T, ds *LinSet) {
	t.Helper()
	lines := ds.Lines()
	next := 0
	for k, r := range ds.runs {
		if r.first != next || r.n <= 0 {
			t.Fatalf("%s: run %d = %+v, want first index %d", ds.Name(), k, r, next)
		}
		for j := 0; j < r.n; j++ {
			if want := r.base + memp.Addr(j*memp.LineSize); lines[r.first+j] != want {
				t.Fatalf("%s: run %d line %d = %v, want %v", ds.Name(), k, j, lines[r.first+j], want)
			}
		}
		if k > 0 && lines[r.first-1]+memp.LineSize == r.base {
			t.Fatalf("%s: runs %d and %d are contiguous", ds.Name(), k-1, k)
		}
		next += r.n
	}
	if next != len(lines) {
		t.Fatalf("%s: runs cover %d of %d lines", ds.Name(), next, len(lines))
	}
}

func TestLinSetRuns(t *testing.T) {
	ds := FromLines("g", []memp.Addr{0x1fc0, 0x1000, 0x1040, 0x2000, 0x1080, 0x10c8, 0x1200, 0x1f80})
	requireRunsCoverLines(t, ds)
	want := []lineRun{{0x1000, 0, 4}, {0x1200, 4, 1}, {0x1f80, 5, 3}}
	if !slices.Equal(ds.runs, want) {
		t.Fatalf("runs = %+v, want %+v", ds.runs, want)
	}
	if got := NewContiguous("c", 0x1800, 3*memp.PageSize).runs; len(got) != 1 || got[0].n != 3*64 {
		t.Fatalf("a contiguous set is one run, got %+v", got)
	}
	requireRunsCoverLines(t, gappedSet(memp.Region{Name: "g", Base: 0x10000, Size: 5 * memp.PageSize / 2}))
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		lines := make([]memp.Addr, len(raw))
		for i, r := range raw {
			lines[i] = memp.Addr(r%512) * memp.LineSize
		}
		requireRunsCoverLines(t, FromLines("p", lines))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
