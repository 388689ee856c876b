package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctbia/internal/memp"
)

// tiny returns a small 2-level hierarchy handy for eviction tests:
// L1: 4 sets x 2 ways (512 B), L2: 8 sets x 4 ways (2 KiB).
func tiny() *Hierarchy {
	return NewHierarchy(100,
		Config{Name: "L1d", Size: 512, Ways: 2, Latency: 2},
		Config{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
	)
}

// addrForSet builds the k-th distinct line address mapping to set s of c.
func addrForSet(c *Cache, s, k int) memp.Addr {
	return memp.Addr(uint64(s+k*c.Sets()) << memp.LineShift)
}

func TestGeometry(t *testing.T) {
	h := tiny()
	if got := h.Level(1).Sets(); got != 4 {
		t.Fatalf("L1 sets = %d, want 4", got)
	}
	if got := h.Level(2).Sets(); got != 8 {
		t.Fatalf("L2 sets = %d, want 8", got)
	}
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d", h.Levels())
	}
	if h.LLC() != h.Level(2) {
		t.Fatal("LLC should be the outermost level")
	}
}

func TestColdMissFillsAllLevelsAndHitsAfter(t *testing.T) {
	h := tiny()
	a := memp.Addr(0x40000)
	r := h.Access(a, 0)
	if r.HitLevel != 0 {
		t.Fatalf("cold access hit level %d, want 0 (DRAM)", r.HitLevel)
	}
	if want := 2 + 15 + 100; r.Cycles != want {
		t.Fatalf("cold access cycles = %d, want %d", r.Cycles, want)
	}
	if h.Stats.DRAMReads != 1 {
		t.Fatalf("DRAMReads = %d, want 1", h.Stats.DRAMReads)
	}
	r = h.Access(a, 0)
	if r.HitLevel != 1 || r.Cycles != 2 {
		t.Fatalf("second access = %+v, want L1 hit @2 cycles", r)
	}
	for i := 1; i <= 2; i++ {
		if p, _ := h.Level(i).Lookup(a); !p {
			t.Fatalf("line missing at L%d after fill", i)
		}
	}
}

func TestL2HitRefillsL1(t *testing.T) {
	h := tiny()
	a := memp.Addr(0x40000)
	h.Access(a, 0)
	// Evict a from L1 by filling its set with 2 conflicting lines.
	c1 := h.Level(1)
	s := c1.SetOf(a)
	for k := 1; k <= 2; k++ {
		h.Access(addrForSet(c1, s, k), 0)
	}
	if p, _ := c1.Lookup(a); p {
		t.Fatal("a should have been evicted from L1")
	}
	r := h.Access(a, 0)
	if r.HitLevel != 2 {
		t.Fatalf("hit level = %d, want 2", r.HitLevel)
	}
	if want := 2 + 15; r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if p, _ := c1.Lookup(a); !p {
		t.Fatal("L2 hit should refill L1")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	h := tiny()
	c1 := h.Level(1)
	a0 := addrForSet(c1, 0, 0)
	a1 := addrForSet(c1, 0, 1)
	a2 := addrForSet(c1, 0, 2)
	h.Access(a0, 0)
	h.Access(a1, 0)
	h.Access(a0, 0) // a0 is now MRU, a1 LRU
	h.Access(a2, 0) // must evict a1
	if p, _ := c1.Lookup(a1); p {
		t.Fatal("a1 should be the LRU victim")
	}
	if p, _ := c1.Lookup(a0); !p {
		t.Fatal("a0 (MRU) must survive")
	}
}

func TestNoLRUFlagFreezesReplacementState(t *testing.T) {
	h := tiny()
	c1 := h.Level(1)
	a0 := addrForSet(c1, 0, 0)
	a1 := addrForSet(c1, 0, 1)
	a2 := addrForSet(c1, 0, 2)
	h.Access(a0, 0)
	h.Access(a1, 0)
	// Touch a0 with NoLRU: it must remain the LRU victim.
	h.Access(a0, FlagNoLRU)
	h.Access(a2, 0)
	if p, _ := c1.Lookup(a0); p {
		t.Fatal("NoLRU hit must not promote a0; it should be evicted")
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	h := tiny()
	c1 := h.Level(1)
	a0 := addrForSet(c1, 1, 0)
	h.Access(a0, FlagWrite) // dirty in L1
	if _, d := c1.Lookup(a0); !d {
		t.Fatal("store must dirty the L1 line")
	}
	if _, d := h.Level(2).Lookup(a0); d {
		t.Fatal("L2 copy must be clean (dirty lives innermost)")
	}
	// Evict from L1: dirty data must land in L2 (writeback), not DRAM.
	for k := 1; k <= 2; k++ {
		h.Access(addrForSet(c1, 1, k), 0)
	}
	if p, d := h.Level(2).Lookup(a0); !p || !d {
		t.Fatalf("after L1 eviction: L2 present=%v dirty=%v, want true/true", p, d)
	}
	if h.Stats.DRAMWrites != 0 {
		t.Fatalf("DRAMWrites = %d, want 0 (writeback absorbed by L2)", h.Stats.DRAMWrites)
	}
	if got := c1.Stats.Writebacks; got != 1 {
		t.Fatalf("L1 writebacks = %d, want 1", got)
	}
}

func TestDirtyEvictionFromLLCReachesDRAM(t *testing.T) {
	h := NewHierarchy(100, Config{Name: "L1", Size: 128, Ways: 1, Latency: 1})
	c := h.Level(1) // 2 sets x 1 way
	a := addrForSet(c, 0, 0)
	h.Access(a, FlagWrite)
	h.Access(addrForSet(c, 0, 1), 0) // evicts dirty a
	if h.Stats.DRAMWrites != 1 {
		t.Fatalf("DRAMWrites = %d, want 1", h.Stats.DRAMWrites)
	}
}

func TestFlushWritesBackAndInvalidatesEverywhere(t *testing.T) {
	h := tiny()
	a := memp.Addr(0x50000)
	h.Access(a, FlagWrite)
	h.Flush(a)
	for i := 1; i <= 2; i++ {
		if p, _ := h.Level(i).Lookup(a); p {
			t.Fatalf("line still present at L%d after flush", i)
		}
	}
	// L1 dirty copy → writeback walks down: L2 had a clean copy which
	// turns dirty, then the L2 flush writes to DRAM.
	if h.Stats.DRAMWrites != 1 {
		t.Fatalf("DRAMWrites = %d, want 1", h.Stats.DRAMWrites)
	}
}

func TestUncachedAccessTouchesNothing(t *testing.T) {
	h := tiny()
	before := h.SnapshotLevel(1)
	r := h.Access(0x60000, FlagUncached)
	if r.Cycles != 100 || r.HitLevel != 0 {
		t.Fatalf("uncached = %+v", r)
	}
	if !h.SnapshotLevel(1).Equal(before) {
		t.Fatal("uncached access must not change cache state")
	}
	if h.Stats.DRAMReads != 1 {
		t.Fatalf("DRAMReads = %d", h.Stats.DRAMReads)
	}
	h.Access(0x60040, FlagUncached|FlagWrite)
	if h.Stats.DRAMWrites != 1 {
		t.Fatalf("DRAMWrites = %d", h.Stats.DRAMWrites)
	}
}

func TestAccessFromBypassesL1(t *testing.T) {
	h := tiny()
	a := memp.Addr(0x70000)
	r := h.AccessFrom(2, a, 0)
	if want := 15 + 100; r.Cycles != want {
		t.Fatalf("bypass cycles = %d, want %d", r.Cycles, want)
	}
	if p, _ := h.Level(1).Lookup(a); p {
		t.Fatal("bypass access must not fill L1")
	}
	if p, _ := h.Level(2).Lookup(a); !p {
		t.Fatal("bypass access must fill L2")
	}
	if h.Level(1).Stats.Accesses != 0 {
		t.Fatal("bypass must not even probe L1")
	}
}

func TestCTProbeLoadSemantics(t *testing.T) {
	h := tiny()
	a := memp.Addr(0x80000)

	// Miss: no allocation anywhere, latency = one L1 probe.
	hit, cyc := h.CTProbeLoad(1, a)
	if hit || cyc != 2 {
		t.Fatalf("CTProbeLoad cold = hit:%v cyc:%d, want miss @2", hit, cyc)
	}
	if p, _ := h.Level(1).Lookup(a); p {
		t.Fatal("CTProbeLoad must not allocate on miss")
	}
	if h.Stats.DRAMReads != 0 {
		t.Fatal("CTProbeLoad must not forward the miss to DRAM")
	}

	// Hit: present line found, zero state change (incl. LRU stamps).
	h.Access(a, 0)
	before := h.SnapshotLevel(1)
	hit, _ = h.CTProbeLoad(1, a)
	if !hit {
		t.Fatal("CTProbeLoad should hit after fill")
	}
	if !h.SnapshotLevel(1).Equal(before) {
		t.Fatal("CTProbeLoad hit must not change any cache state")
	}
}

func TestCTProbeStoreSemantics(t *testing.T) {
	h := tiny()
	clean := memp.Addr(0x90000)
	dirty := memp.Addr(0x90040)
	h.Access(clean, 0)
	h.Access(dirty, FlagWrite)

	before := h.SnapshotLevel(1)
	if wrote, _ := h.CTProbeStore(1, clean); wrote {
		t.Fatal("CTProbeStore must DO NOTHING on a clean line")
	}
	if wrote, _ := h.CTProbeStore(1, dirty); !wrote {
		t.Fatal("CTProbeStore must write a dirty line")
	}
	if wrote, _ := h.CTProbeStore(1, 0xa0000); wrote {
		t.Fatal("CTProbeStore must DO NOTHING on a miss")
	}
	if !h.SnapshotLevel(1).Equal(before) {
		t.Fatal("CTProbeStore must never change cache metadata")
	}
}

func TestPrefetchLineInstallsClean(t *testing.T) {
	h := tiny()
	a := memp.Addr(0xb0000)
	h.PrefetchLine(a)
	if p, d := h.Level(1).Lookup(a); !p || d {
		t.Fatalf("prefetched line present=%v dirty=%v, want true/false", p, d)
	}
	if h.Level(1).Stats.Prefetches != 1 {
		t.Fatalf("prefetch stat = %d", h.Level(1).Stats.Prefetches)
	}
}

func TestPrefetchCountsDRAMReads(t *testing.T) {
	h := tiny()
	a := memp.Addr(0xb0000)
	h.PrefetchLine(a)
	if got := h.Stats.DRAMReads; got != 1 {
		t.Fatalf("prefetch of an uncached line: DRAMReads = %d, want 1", got)
	}
	// A prefetch of a line already cached somewhere is dropped before
	// the memory controller: no DRAM read.
	h.PrefetchLine(a)
	if got := h.Stats.DRAMReads; got != 1 {
		t.Fatalf("prefetch of a cached line: DRAMReads = %d, want still 1", got)
	}
}

func TestFIFOPolicyIgnoresHits(t *testing.T) {
	h := NewHierarchy(50, Config{Name: "L1", Size: 128, Ways: 2, Latency: 1, Policy: FIFO})
	c := h.Level(1) // 1 set x 2 ways
	a0 := addrForSet(c, 0, 0)
	a1 := addrForSet(c, 0, 1)
	a2 := addrForSet(c, 0, 2)
	h.Access(a0, 0)
	h.Access(a1, 0)
	h.Access(a0, 0) // FIFO: does NOT protect a0
	h.Access(a2, 0)
	if p, _ := c.Lookup(a0); p {
		t.Fatal("FIFO must evict the oldest fill (a0) despite its recent hit")
	}
}

func TestRandomPolicyDeterministicUnderSeed(t *testing.T) {
	mk := func() []memp.Addr {
		h := NewHierarchy(50, Config{Name: "L1", Size: 256, Ways: 4, Latency: 1, Policy: Random, Seed: 7})
		c := h.Level(1)
		for k := 0; k < 32; k++ {
			h.Access(addrForSet(c, 0, k), 0)
		}
		return c.Contents(0)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random policy not reproducible: %v vs %v", a, b)
		}
	}
}

func TestPinnedLinesSurviveConflicts(t *testing.T) {
	h := NewHierarchy(50, Config{Name: "L1", Size: 128, Ways: 2, Latency: 1})
	c := h.Level(1) // 1 set x 2 ways
	a0 := addrForSet(c, 0, 0)
	h.Access(a0, 0)
	if !c.Pin(a0) {
		t.Fatal("Pin should find the line")
	}
	for k := 1; k <= 8; k++ {
		h.Access(addrForSet(c, 0, k), 0)
	}
	if p, _ := c.Lookup(a0); !p {
		t.Fatal("pinned line must never be evicted")
	}
	if c.PinnedLines() != 1 {
		t.Fatalf("PinnedLines = %d", c.PinnedLines())
	}
	c.Unpin(a0)
	h.Access(addrForSet(c, 0, 9), 0)
	h.Access(addrForSet(c, 0, 10), 0)
	if p, _ := c.Lookup(a0); p {
		t.Fatal("unpinned line becomes evictable again")
	}
}

func TestFullyPinnedSetDropsFills(t *testing.T) {
	h := NewHierarchy(50, Config{Name: "L1", Size: 128, Ways: 2, Latency: 1})
	c := h.Level(1)
	a0, a1 := addrForSet(c, 0, 0), addrForSet(c, 0, 1)
	h.Access(a0, 0)
	h.Access(a1, 0)
	c.Pin(a0)
	c.Pin(a1)
	an := addrForSet(c, 0, 2)
	h.Access(an, 0)
	if p, _ := c.Lookup(an); p {
		t.Fatal("fill into a fully pinned set must be dropped")
	}
	if p, _ := c.Lookup(a0); !p {
		t.Fatal("pinned lines must survive")
	}
}

// TestPinLeavesWithTheLine checks that a pinned line's departure takes
// its pin with it: a flush, and an inclusive back-invalidation, leave
// the pinned count at 0, and re-pinning the refilled line counts once.
func TestPinLeavesWithTheLine(t *testing.T) {
	h := tiny()
	h.Inclusive = true
	c1, c2 := h.Level(1), h.Level(2)
	a := addrForSet(c1, 0, 0)
	h.Access(a, 0)
	c1.Pin(a)
	h.Flush(a)
	if got := c1.PinnedLines(); got != 0 {
		t.Fatalf("PinnedLines after Pin+Flush = %d, want 0", got)
	}
	h.Access(a, 0)
	c1.Pin(a)
	if got := c1.PinnedLines(); got != 1 {
		t.Fatalf("PinnedLines after re-pinning = %d, want 1", got)
	}
	// Overfill a's L2 set behind the L1's back: inclusion evicts it from
	// the L1, pin or no pin.
	for k := 1; k <= c2.Ways(); k++ {
		h.AccessFrom(2, addrForSet(c2, c2.SetOf(a), k), 0)
	}
	if p, _ := c1.Lookup(a); p {
		t.Fatal("precondition: the back-invalidation removed the pinned line")
	}
	if got := c1.PinnedLines(); got != 0 {
		t.Fatalf("PinnedLines after a back-invalidation = %d, want 0", got)
	}
}

func TestSlicedCacheRoutesBySliceHash(t *testing.T) {
	h := NewHierarchy(50, Config{
		Name: "LLC", Size: 4096, Ways: 2, Latency: 10,
		Slices:    2,
		SliceHash: func(a memp.Addr) int { return int(a.LineIndex() & 1) },
	})
	c := h.Level(1)
	h.Access(0x0, 0)  // line 0 → slice 0
	h.Access(0x40, 0) // line 1 → slice 1
	h.Access(0x80, 0) // line 2 → slice 0
	if c.SliceTraffic[0] != 2 || c.SliceTraffic[1] != 1 {
		t.Fatalf("slice traffic = %v, want [2 1]", c.SliceTraffic)
	}
	if c.SliceOf(0x40) != 1 || c.SliceOf(0x80) != 0 {
		t.Fatal("SliceOf mismatch")
	}
	// Sets of different slices never collide.
	if c.SetOf(0x0) == c.SetOf(0x40) {
		t.Fatal("same set for different slices")
	}
}

func TestEventStream(t *testing.T) {
	h := tiny()
	var got []Event
	h.Subscribe(ListenerFunc(func(ev Event) { got = append(got, ev) }))
	a := memp.Addr(0xd0000)

	h.Access(a, FlagWrite) // cold write: access L1, access L2, fills, dirty
	kinds := map[EventKind]int{}
	for _, ev := range got {
		kinds[ev.Kind]++
	}
	if kinds[EvAccess] != 2 { // one per level probed
		t.Fatalf("EvAccess = %d, want 2", kinds[EvAccess])
	}
	if kinds[EvFill] != 2 {
		t.Fatalf("EvFill = %d, want 2", kinds[EvFill])
	}
	if kinds[EvDirty] != 1 { // dirty only innermost
		t.Fatalf("EvDirty = %d, want 1", kinds[EvDirty])
	}

	got = got[:0]
	h.Access(a, 0) // L1 hit
	if len(got) != 2 || got[0].Kind != EvAccess || got[1].Kind != EvHit {
		t.Fatalf("hit events = %+v", got)
	}
	if !got[1].Dirty {
		t.Fatal("EvHit must carry the dirty bit")
	}

	got = got[:0]
	h.Flush(a)
	evicts := 0
	for _, ev := range got {
		if ev.Kind == EvEvict {
			evicts++
		}
	}
	if evicts != 2 {
		t.Fatalf("flush evict events = %d, want 2", evicts)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Fatal("policy names")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy name")
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvAccess: "access", EvHit: "hit", EvFill: "fill", EvEvict: "evict", EvDirty: "dirty",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
	if EventKind(42).String() != "event?" {
		t.Error("unknown kind")
	}
}

// runLog is a listener at the L1 that, like the BIA there, takes runs
// and batches and wants every kind but EvAccess. It logs the batches'
// events and the runs.
type runLog struct {
	events []Event
	runs   [][4]int // level, first line index, n, mult
}

func (l *runLog) CacheEvent(ev Event)         { l.events = append(l.events, ev) }
func (l *runLog) WantsEvent(k EventKind) bool { return k != EvAccess }
func (l *runLog) WantsLevel(level int) bool   { return level == 1 }

func (l *runLog) CacheBatch(level int, snoops []Snoop) {
	for _, sn := range snoops {
		l.events = append(l.events, Event{Level: level, Kind: sn.Kind, Line: sn.Line, Dirty: sn.Dirty})
	}
}

func (l *runLog) CacheRun(level int, first memp.Addr, n, mult int) {
	l.runs = append(l.runs, [4]int{level, int(first.LineIndex()), n, mult})
}

// TestResidencyMemo pins the L1's residency memo: the batch pass notes
// its hits page by page, a later batch whose lines it covers at
// the current generation is charged in closed form, and any line that
// leaves the L1 — by eviction, back-invalidation, Flush or Reset —
// forgets it, while ResetStats or a fill into a free way does not.
func TestResidencyMemo(t *testing.T) {
	const n = 4
	base := memp.Addr(0x40000) // lines in L1 sets 0..3 and L2 sets 0..3
	line := func(k int) memp.Addr { return base + memp.Addr(k*memp.LineSize) }
	covered := func(h *Hierarchy, k, m int, dirty bool) bool { return h.Level(1).covered(line(k), m, dirty) }
	// warm notes the n lines from base in the memo, through the pass,
	// which takes only a non-inclusive hierarchy's batches.
	warm := func() *Hierarchy {
		h := tiny()
		h.AccessBatch(1, base, memp.LineSize, n, FlagNoLRU, false)
		if covered(h, 0, 1, false) {
			t.Fatal("a miss was noted as resident")
		}
		h.AccessBatch(1, base+8, memp.LineSize, n, FlagNoLRU, false)
		if !covered(h, 0, n, false) {
			t.Fatal("an all-hit batch was not noted")
		}
		return h
	}

	h := warm()
	c1 := h.Level(1)
	if !covered(h, 1, 2, false) || !covered(h, 3, 1, false) {
		t.Fatal("a sub-run of a noted run is not covered")
	}
	if covered(h, 0, n+1, false) || covered(h, -1, 2, false) {
		t.Fatal("a line never seen is covered")
	}
	if covered(h, 0, 1, true) {
		t.Fatal("a clean line is covered for a write")
	}
	before, snap := c1.Stats, h.SnapshotLevel(1)
	if hits, miss := h.AccessBatch(1, line(1), memp.LineSize, 2, FlagNoLRU, false); hits != 2 || miss != 0 {
		t.Fatalf("covered sub-run = %d hits, %d miss cycles; want 2, 0", hits, miss)
	}
	if c1.Stats.Accesses != before.Accesses+2 || c1.Stats.Hits != before.Hits+2 || c1.Stats.Misses != before.Misses {
		t.Fatalf("closed form charged %+v after %+v", c1.Stats, before)
	}
	if !h.SnapshotLevel(1).Equal(snap) {
		t.Fatal("a closed-form batch changed the L1")
	}

	// A snooped load of clean lines goes event by event, through the
	// pass; a write dirties them line by line and notes them dirty, after
	// which a snooped load is one run.
	rl := &runLog{}
	h.Subscribe(rl)
	h.AccessBatch(1, base, memp.LineSize, n, FlagNoLRU, false)
	if len(rl.runs) != 0 || len(rl.events) != n {
		t.Fatalf("snooped load of clean lines: %d runs, %d events; want 0, %d", len(rl.runs), len(rl.events), n)
	}
	h.AccessBatch(1, base, memp.LineSize, n, FlagNoLRU|FlagWrite, false)
	if !covered(h, 0, n, true) || len(rl.runs) != 0 {
		t.Fatal("a write over clean lines must dirty them one by one and note them dirty")
	}
	rl.events = nil
	h.AccessBatch(1, line(1), memp.LineSize, 3, FlagNoLRU, false)
	h.AccessBatch(1, base, memp.LineSize, 2, FlagNoLRU, true)
	want := [][4]int{{1, int(line(1).LineIndex()), 3, 1}, {1, int(base.LineIndex()), 2, 2}}
	if len(rl.events) != 0 || !slices.Equal(rl.runs, want) {
		t.Fatalf("covered snooped batches: %d events, runs %v; want 0, %v", len(rl.events), rl.runs, want)
	}
	// A plain listener on the L1, which wants EvAccess too, keeps every
	// batch on the access-by-access path: an EvAccess and an EvHit a line.
	plain := &eventLogger{}
	h.Subscribe(plain)
	h.AccessBatch(1, base, memp.LineSize, n, FlagNoLRU, false)
	if len(rl.runs) != 2 || len(plain.events) != 2*n || plain.events[0].Kind != EvAccess || plain.events[1].Kind != EvHit {
		t.Fatalf("with a plain listener: %d runs, plain events %v; want 2 runs, %d access and hit events", len(rl.runs), plain.events, n)
	}
	h.TruncateListeners(0)

	h.ResetStats()
	s := c1.SetOf(base)
	h.Access(addrForSet(c1, s, 1), 0) // fills set s's free way
	if !covered(h, 0, n, true) {
		t.Fatal("ResetStats or a fill into a free way forgot the memo")
	}
	h.Access(addrForSet(c1, s, 2), 0) // evicts from set s
	if covered(h, 1, 1, false) {
		t.Fatal("an eviction from the L1 did not forget the memo")
	}

	h = warm()
	h.Flush(line(n)) // not cached: nothing leaves
	if !covered(h, 0, n, false) {
		t.Fatal("flushing an uncached line forgot the memo")
	}
	h.Flush(line(2))
	if covered(h, 0, 1, false) {
		t.Fatal("a Flush did not forget the memo")
	}

	for _, inclusive := range []bool{false, true} {
		h = warm()
		h.Inclusive = inclusive
		c2 := h.Level(2)
		for k := 1; k <= c2.Ways(); k++ {
			h.AccessFrom(2, addrForSet(c2, c2.SetOf(base), k), 0)
		}
		if p, _ := c2.Lookup(base); p {
			t.Fatal("precondition: the run's first line left the L2")
		}
		if covered(h, 1, 1, false) == inclusive {
			t.Fatalf("inclusive=%v: an L2 eviction left the memo covered=%v", inclusive, !inclusive)
		}
	}

	h = warm()
	h.Reset()
	if covered(h, 0, 1, false) {
		t.Fatal("Reset did not forget the memo")
	}

	// Hits noted before a miss in the same call must not survive the
	// departure the miss causes: line n maps to line 0's set, which a
	// fill of line 2n has made full, so its fill evicts line 0.
	h = warm()
	c1 = h.Level(1)
	h.Access(line(2*n), 0)
	h.AccessBatch(1, base, memp.LineSize, n+1, FlagNoLRU, false)
	if p, _ := c1.Lookup(base); p {
		t.Fatal("precondition: the miss evicted line 0")
	}
	if covered(h, 0, 1, false) || covered(h, 1, 1, false) {
		t.Fatal("hits noted before an evicting miss outlived it")
	}

	// A page whose memo slot another page takes over is forgotten,
	// though none of its lines left.
	h = warm()
	c1 = h.Level(1)
	other := base + memoSlots*memp.PageSize
	h.AccessBatch(1, other, memp.LineSize, 2, FlagNoLRU, false)
	gen := c1.gen
	h.AccessBatch(1, other, memp.LineSize, 2, FlagNoLRU, false)
	if c1.gen != gen || !c1.covered(other, 2, false) {
		t.Fatal("precondition: the colliding page's lines hit without a departure")
	}
	if covered(h, 0, 1, false) {
		t.Fatal("a colliding page did not take the memo slot over")
	}
}

// eventLogger is a plain listener that logs every event.
type eventLogger struct{ events []Event }

func (l *eventLogger) CacheEvent(ev Event) { l.events = append(l.events, ev) }

// TestL2ResidencyMemo pins the L2's residency memo: a demand hit at the
// L2 notes its line with the dirty bit after the access, and a
// writeback that dirties an L2 copy notes it dirty, while a fill notes
// nothing; a clean line never covers a store; an L2 eviction, a Flush,
// a Reset and an inclusive back-invalidation each forget the line,
// while a non-inclusive LLC eviction does not.
func TestL2ResidencyMemo(t *testing.T) {
	a := memp.Addr(0x40000) // L1 set 0, L2 set 0, LLC set 0
	line := func(k int) memp.Addr { return a + memp.Addr(k*memp.LineSize) }
	covered := func(h *Hierarchy, la memp.Addr, dirty bool) bool { return h.Level(2).covered(la, 1, dirty) }
	// evictL1 pushes la out of the tiny L1 by filling its set with two
	// lines outside la's L2 set.
	evictL1 := func(h *Hierarchy, la memp.Addr) {
		h.Access(la+4*memp.LineSize, 0)
		h.Access(la+12*memp.LineSize, 0)
		if p, _ := h.Level(1).Lookup(la); p {
			t.Fatal("precondition: the line left the L1")
		}
	}
	// noted returns a hierarchy in which a has hit the L2 once.
	noted := func(h *Hierarchy) *Hierarchy {
		h.Access(a, 0)
		if covered(h, a, false) {
			t.Fatal("a fill was noted")
		}
		evictL1(h, a)
		h.Access(a, 0)
		if !covered(h, a, false) {
			t.Fatal("an L2 hit was not noted")
		}
		return h
	}

	h := noted(tiny())
	if covered(h, a, true) {
		t.Fatal("a clean line covers a store")
	}
	h.Access(a, FlagWrite) // dirty in the L1 only
	if covered(h, a, true) {
		t.Fatal("a store hit at the L1 noted the L2 copy dirty")
	}
	evictL1(h, a)
	if !covered(h, a, true) {
		t.Fatal("a dirtying writeback was not noted")
	}
	// A store that misses the L1 and hits the L2 dirties the L2 copy,
	// and the hit notes it dirty.
	b := line(1)
	h.Access(b, 0)
	evictL1(h, b)
	h.Access(b, FlagWrite)
	if !covered(h, b, true) {
		t.Fatal("a store's L2 hit was not noted dirty")
	}
	// Overfill b's L2 set behind the L1's back.
	for k := 2; k <= 5; k++ {
		h.AccessFrom(2, line(1+8*k), 0)
	}
	if p, _ := h.Level(2).Lookup(b); p {
		t.Fatal("precondition: b left the L2")
	}
	if covered(h, b, false) {
		t.Fatal("an L2 eviction did not forget the memo")
	}
	h.Flush(a)
	if covered(h, a, false) {
		t.Fatal("a Flush did not forget the memo")
	}

	h = noted(tiny())
	h.Reset()
	if covered(h, a, false) {
		t.Fatal("Reset did not forget the memo")
	}

	for _, inclusive := range []bool{false, true} {
		h = NewHierarchy(100,
			Config{Name: "L1d", Size: 512, Ways: 2, Latency: 2},
			Config{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
			Config{Name: "LLC", Size: 4096, Ways: 4, Latency: 30},
		)
		h.Inclusive = inclusive
		noted(h)
		for k := 1; k <= 4; k++ {
			h.AccessFrom(3, line(16*k), 0) // a's LLC set
		}
		if p, _ := h.Level(3).Lookup(a); p {
			t.Fatal("precondition: a left the LLC")
		}
		if covered(h, a, false) == inclusive {
			t.Fatalf("inclusive=%v: an LLC eviction left the L2 memo covered=%v", inclusive, !inclusive)
		}
	}
}

// TestProbeFreeGate pins which line-stride batches take the batch pass:
// any length, shorter than the L1's set count too; lines the L2's memo
// has not seen, and lines no level holds; an L1 whose subscribers all
// take batches and watch the L1 alone; and a FIFO or Random L1. It must
// refuse LRU-updating batches, a pinned or sliced L1, a plain listener
// at the L1, a batch listener that also watches the L2, a plain
// listener at the L2 beside a batch listener at the L1, an inclusive
// hierarchy, an L1 batch listener that wants EvAccess and a batch that
// starts below the L1, all of which go access by access, with the
// events the accesses one by one send.
func TestProbeFreeGate(t *testing.T) {
	const n = 12 // three lines to each of the tiny L1's four sets
	base := memp.Addr(0x40000)
	mk := func(p Policy) *Hierarchy {
		return NewHierarchy(100,
			Config{Name: "L1d", Size: 512, Ways: 2, Latency: 2, Policy: p},
			Config{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
		)
	}
	// pass runs one batch and reports whether the pass charged it.
	pass := func(h *Hierarchy, n int, flags Flags) bool {
		before := h.Path
		h.AccessBatch(1, base, memp.LineSize, n, flags, false)
		if h.Path.PassLines == before.PassLines {
			return false
		}
		if h.Path.PassLines != before.PassLines+uint64(n) || h.Path.LoopLines != before.LoopLines {
			t.Fatalf("a batch of %d charged %+v after %+v", n, h.Path, before)
		}
		return true
	}
	h := mk(LRU)
	if !pass(h, 1, FlagNoLRU) || h.Path.OuterMisses != 1 || h.Level(1).plan != nil {
		t.Fatalf("a one-line cold batch: path %+v, plan built %v; want one outer miss, no plan", h.Path, h.Level(1).plan != nil)
	}
	if !pass(h, n, FlagNoLRU) || h.Level(1).plan == nil {
		t.Fatal("a batch that returns to its sets did not take the pass with a plan")
	}
	// The first thrashing load finds its L2 hits, which note the L2
	// memo; the second's misses are the memo's.
	if !pass(h, h.Level(1).Sets()-1, FlagNoLRU|FlagWrite) || !pass(h, n, FlagNoLRU) || !pass(h, n, FlagNoLRU) {
		t.Fatal("the pass refused a short store batch or a thrashing load")
	}
	if h.Path.MemoMisses == 0 || h.Path.OuterMisses < n {
		t.Fatalf("path %+v: want misses served by the L2 memo and by the outer levels", h.Path)
	}
	if !pass(mk(FIFO), n, FlagNoLRU) {
		t.Error("the pass refused a FIFO L1")
	}
	if h := mk(Random); !pass(h, n, FlagNoLRU) || !pass(h, n, FlagNoLRU) || h.Level(1).plan != nil {
		t.Errorf("a Random L1: path %+v, plan built %v; want the pass, with no plan", h.Path, h.Level(1).plan != nil)
	}
	for _, tc := range []struct {
		name string
		// subs are subscribed before the batch; each logs its events.
		subs []Listener
		take bool
	}{
		{"a batch listener at the L1", []Listener{&batchLog{levelLog: levelLog{level: 1}}}, true},
		{"two batch listeners at the L1", []Listener{&batchLog{levelLog: levelLog{level: 1}}, &batchLog{levelLog: levelLog{level: 1}}}, true},
		{"a plain listener at the L2 beside one", []Listener{&batchLog{levelLog: levelLog{level: 1}}, &levelLog{level: 2}}, false},
		{"a plain listener at the L1", []Listener{&levelLog{level: 1}}, false},
		{"a batch listener at the L1 and L2", []Listener{&batchLog{levelLog: levelLog{level: 0}}}, false},
		{"a plain listener at every level", []Listener{ListenerFunc(func(Event) {})}, false},
	} {
		h := mk(LRU)
		for _, l := range tc.subs {
			h.Subscribe(l)
		}
		if got := pass(h, n, FlagNoLRU); got != tc.take {
			t.Errorf("%s: takes the pass = %v, want %v", tc.name, got, tc.take)
		}
		h.TruncateListeners(0)
		if !pass(h, n, FlagNoLRU) {
			t.Errorf("%s: the pass refused the batch after the listeners left", tc.name)
		}
	}
	for _, tc := range []struct {
		name  string
		h     func() *Hierarchy
		flags Flags
	}{
		{"LRU-updating", func() *Hierarchy { return mk(LRU) }, 0},
		{"a pinned L1 line", func() *Hierarchy {
			h := mk(LRU)
			h.Access(base, 0)
			h.Level(1).Pin(base)
			return h
		}, FlagNoLRU},
		{"a sliced L1", func() *Hierarchy {
			return NewHierarchy(100,
				Config{Name: "L1d", Size: 512, Ways: 2, Latency: 2, Slices: 2},
				Config{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
			)
		}, FlagNoLRU},
		{"an inclusive hierarchy", func() *Hierarchy { h := mk(LRU); h.Inclusive = true; return h }, FlagNoLRU},
	} {
		h := tc.h()
		for k := 0; k < 3; k++ {
			if pass(h, n, tc.flags) {
				t.Errorf("%s: takes the pass", tc.name)
			}
		}
		if h.Path.LoopLines != 3*n {
			t.Errorf("%s: path %+v, want %d lines access by access", tc.name, h.Path, 3*n)
		}
	}
	// A listener that takes batches at the start level alone but wants
	// EvAccess too, at the L1 and under a batch from the L2, takes the
	// same events as from the accesses one by one, EvAccess included.
	for _, start := range []int{1, 2} {
		a, b := mk(LRU), mk(LRU)
		la, lb := &batchLog{levelLog: levelLog{level: start, access: true}}, &batchLog{levelLog: levelLog{level: start, access: true}}
		a.Subscribe(la)
		b.Subscribe(lb)
		for k := 0; k < 2; k++ {
			a.AccessBatch(start, base, memp.LineSize, n, FlagNoLRU, k == 1)
			for j := 0; j < n; j++ {
				b.AccessFrom(start, base+memp.Addr(j*memp.LineSize), FlagNoLRU)
				if k == 1 {
					b.AccessFrom(start, base+memp.Addr(j*memp.LineSize), FlagNoLRU|FlagWrite)
				}
			}
		}
		if a.Path.LoopLines != 2*n || !slices.Equal(la.events, lb.events) || len(la.events) == 0 || la.events[0].Kind != EvAccess {
			t.Errorf("from L%d under an EvAccess listener: path %+v, %d events; want %d lines access by access and the scalar loop's %d events",
				start, a.Path, len(la.events), 2*n, len(lb.events))
		}
	}
}

// TestOuterStepGate pins which hierarchies below the L1 let a batch
// take the pass, whose every miss takes the L2's memo or the outer
// step, one scan per outer level: it must take a hierarchy with no
// listener or with a batch listener at the L1 alone, FIFO outer levels
// and a Random L1, and refuse a listener at the L2 or the LLC, a
// sliced, pinned or Random outer level, an inclusive hierarchy and one
// deeper than the step takes, whose batches go access by access.
func TestOuterStepGate(t *testing.T) {
	base := memp.Addr(0x40000)
	mk := func(edit func(cfgs []Config) []Config) *Hierarchy {
		cfgs := []Config{
			{Name: "L1d", Size: 512, Ways: 2, Latency: 2},
			{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
			{Name: "LLC", Size: 8192, Ways: 4, Latency: 30},
		}
		if edit != nil {
			cfgs = edit(cfgs)
		}
		return NewHierarchy(100, cfgs...)
	}
	subscribed := func(l Listener) func() *Hierarchy {
		return func() *Hierarchy { h := mk(nil); h.Subscribe(l); return h }
	}
	pinned := func(level int) func() *Hierarchy {
		return func() *Hierarchy { h := mk(nil); h.Access(base, 0); h.Level(level).Pin(base); return h }
	}
	policy := func(level int, p Policy) func() *Hierarchy {
		return func() *Hierarchy { return mk(func(c []Config) []Config { c[level-1].Policy = p; return c }) }
	}
	sliced := func(level int) func() *Hierarchy {
		return func() *Hierarchy { return mk(func(c []Config) []Config { c[level-1].Slices = 2; return c }) }
	}
	for _, tc := range []struct {
		name string
		h    func() *Hierarchy
		pass bool
	}{
		{"no listener", func() *Hierarchy { return mk(nil) }, true},
		{"a batch listener at the L1", subscribed(&batchLog{levelLog: levelLog{level: 1}}), true},
		{"FIFO outer levels", func() *Hierarchy {
			return mk(func(c []Config) []Config { c[1].Policy, c[2].Policy = FIFO, FIFO; return c })
		}, true},
		{"a Random L1", policy(1, Random), true},
		{"a listener at the L2", subscribed(&levelLog{level: 2}), false},
		{"a listener at the LLC", subscribed(&levelLog{level: 3}), false},
		{"a sliced L2", sliced(2), false},
		{"a sliced LLC", sliced(3), false},
		{"a pinned L2 line", pinned(2), false},
		{"a pinned LLC line", pinned(3), false},
		{"a Random L2", policy(2, Random), false},
		{"a Random LLC", policy(3, Random), false},
		{"an inclusive hierarchy", func() *Hierarchy { h := mk(nil); h.Inclusive = true; return h }, false},
		{"five levels", func() *Hierarchy {
			return mk(func(c []Config) []Config {
				return append(c, Config{Name: "L4", Size: 16384, Ways: 4, Latency: 40}, Config{Name: "L5", Size: 32768, Ways: 4, Latency: 50})
			})
		}, false},
	} {
		h := tc.h()
		if got := h.passable(FlagNoLRU); got != tc.pass {
			t.Errorf("%s: takes the pass = %v, want %v", tc.name, got, tc.pass)
		}
		h.AccessBatch(1, base, memp.LineSize, 12, FlagNoLRU, false)
		if took := h.Path.PassLines != 0; took != tc.pass || !tc.pass && h.Path.LoopLines != 12 {
			t.Errorf("%s: path %+v, want the pass %v and the rest access by access", tc.name, h.Path, tc.pass)
		}
	}
}

// batchLog is a listener at one level (every level for level 0) that
// takes the pass's batches and the closed form's runs, logging them as
// the events they stand for, with Set left 0.
type batchLog struct{ levelLog }

func (l *batchLog) CacheEvent(ev Event) {
	ev.Set = 0
	l.events = append(l.events, ev)
}

func (l *batchLog) CacheBatch(level int, snoops []Snoop) {
	for _, sn := range snoops {
		l.events = append(l.events, Event{Level: level, Kind: sn.Kind, Line: sn.Line, Dirty: sn.Dirty})
	}
}

func (l *batchLog) CacheRun(level int, first memp.Addr, n, mult int) {
	for la := first; la < first+memp.Addr(n*memp.LineSize); la += memp.LineSize {
		for range mult {
			l.events = append(l.events, Event{Level: level, Kind: EvHit, Line: la, Dirty: true})
		}
	}
}

func (l *batchLog) WantsLevel(level int) bool { return l.level == 0 || level == l.level }

// TestProbeFreePassMatchesScalar holds the batch pass to the scalar
// access loop on hierarchies a random schedule drives into states the
// machine-level twin scripts rarely reach: L1 sets with invalid ways (a
// line vacated behind the L2's back, as a back-invalidation leaves it),
// LRU stamps that single accesses reorder, dirty and clean victims,
// batch lines that hit and are then evicted by the same batch, and
// batches of every length, from one line to more than the L1's set
// count. On the first geometry the DS fits the L2, so most misses are
// the L2 memo's; on the second it exceeds every level, so misses go to
// the L2, the LLC and DRAM through the outer step; the third has an L1
// of more ways than a ring names, whose every line the pass scans,
// reading a full set's stamps. Each runs on LRU and
// FIFO hierarchies and on a Random L1 over LRU levels, and a quarter of
// the batches update LRU state, which go access by access. Every step
// must leave both hierarchies alike, stamps included, and the pass must
// have run from such states.
func TestProbeFreePassMatchesScalar(t *testing.T) {
	base := memp.Addr(0x40000)
	for _, geo := range []struct {
		name string
		ds   int // lines
		cfgs []Config
	}{
		{"fits-l2", 40, []Config{ // the L1 holds 16 lines, the L2 128
			{Name: "L1d", Size: 1024, Ways: 2, Latency: 2},
			{Name: "L2", Size: 8192, Ways: 4, Latency: 15},
		}},
		{"exceeds-llc", 160, []Config{ // 16, 32 and 128 lines
			{Name: "L1d", Size: 1024, Ways: 2, Latency: 2},
			{Name: "L2", Size: 2048, Ways: 4, Latency: 15},
			{Name: "LLC", Size: 8192, Ways: 4, Latency: 30},
		}},
		{"wide-l1", 600, []Config{ // a set of 256 ways, too many for a ring, over 512 lines
			{Name: "L1d", Size: 16384, Ways: 256, Latency: 2},
			{Name: "L2", Size: 32768, Ways: 4, Latency: 15},
		}},
	} {
		for _, pol := range []Policy{LRU, FIFO, Random} {
			mk := func() *Hierarchy {
				cfgs := slices.Clone(geo.cfgs)
				for i := range cfgs {
					cfgs[i].Policy = pol
				}
				if pol == Random { // a Random L1 over LRU levels, as replacement's
					for i := range cfgs[1:] {
						cfgs[i+1].Policy = LRU
					}
				}
				return NewHierarchy(100, cfgs...)
			}
			a, b := mk(), mk() // a batches, b runs the scalar loop
			c := a.Level(1)
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			var passes, withInvalid int
			for step := 0; step < 600; step++ {
				label := fmt.Sprintf("%s/%v step %d", geo.name, pol, step)
				la := base + memp.Addr(rng.Intn(geo.ds)*memp.LineSize)
				switch op := rng.Intn(10); {
				case op < 6: // a batch over a window of the DS
					n := 1 + rng.Intn(geo.ds)
					first := base + memp.Addr(rng.Intn(geo.ds-n+1)*memp.LineSize)
					flags, rmw := FlagNoLRU, false
					switch rng.Intn(4) {
					case 1:
						flags |= FlagWrite
					case 2:
						rmw = true
					case 3: // LRU-updating, loads or pairs: access by access
						flags, rmw = 0, rng.Intn(2) == 0
					}
					if a.passable(flags) {
						passes++
						for s := 0; s < c.Sets(); s++ {
							if int(c.validCnt[s]) < c.Ways() {
								withInvalid++
								break
							}
						}
					}
					hits, miss := a.AccessBatch(1, first, memp.LineSize, n, flags, rmw)
					want := 0
					for j := 0; j < n; j++ {
						addr := first + memp.Addr(j*memp.LineSize)
						want += b.AccessFrom(1, addr, flags).Cycles
						if rmw {
							want += b.AccessFrom(1, addr, flags|FlagWrite).Cycles
						}
					}
					if got := hits*c.Latency() + miss; got != want {
						t.Fatalf("%s: batch of %d charged %d cycles, scalar %d", label, n, got, want)
					}
				case op < 8: // a single access, which may move an LRU stamp
					flags := Flags(0)
					if op == 7 {
						flags = FlagWrite
					}
					a.Access(la, flags)
					b.Access(la, flags)
				default: // the line leaves the L1 only
					for _, h := range []*Hierarchy{a, b} {
						if s, w := h.Level(1).find(la); w >= 0 {
							h.Level(1).vacate(s, w)
						}
					}
				}
				if a.Stats != b.Stats {
					t.Fatalf("%s: hierarchy stats %+v, scalar %+v", label, a.Stats, b.Stats)
				}
				for i := 1; i <= a.Levels(); i++ {
					if sa, sb := a.Level(i).Stats, b.Level(i).Stats; sa != sb {
						t.Fatalf("%s: L%d stats %+v, scalar %+v", label, i, sa, sb)
					}
					if !a.SnapshotLevel(i).Equal(b.SnapshotLevel(i)) {
						t.Fatalf("%s: L%d contents differ from the scalar loop's", label, i)
					}
				}
			}
			if passes < 50 || withInvalid < 5 || a.Path.OuterMisses == 0 {
				t.Fatalf("%s/%v: the pass ran %d times, %d of them over a set with an invalid way; path %+v",
					geo.name, pol, passes, withInvalid, a.Path)
			}
			if geo.name == "fits-l2" && a.Path.MemoMisses == 0 {
				t.Fatalf("%s/%v: no miss was the L2 memo's: path %+v", geo.name, pol, a.Path)
			}
		}
	}
}

// levelLog is a plain listener at one cache level that, like the BIA,
// wants every kind but EvAccess, unless access is set.
type levelLog struct {
	level  int
	access bool
	events []Event
}

func (l *levelLog) CacheEvent(ev Event)         { l.events = append(l.events, ev) }
func (l *levelLog) WantsEvent(k EventKind) bool { return k != EvAccess || l.access }
func (l *levelLog) WantsLevel(level int) bool   { return level == l.level }
