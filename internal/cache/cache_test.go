package cache

import (
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
	// The next-line prefetcher goes through the same accounting: one
	// demand read plus one prefetch read.
	h2 := tiny()
	h2.PrefetchNextLine = true
	h2.Access(memp.Addr(0xc0000), 0)
	if got := h2.Stats.DRAMReads; got != 2 {
		t.Fatalf("demand fill + next-line prefetch: DRAMReads = %d, want 2", got)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	h := tiny()
	h.PrefetchNextLine = true
	a := memp.Addr(0xc0000)
	h.Access(a, 0)
	if p, _ := h.Level(1).Lookup(a + memp.LineSize); !p {
		t.Fatal("next line should be prefetched after a DRAM fill")
	}
	// An L1 hit must not prefetch.
	h.Access(a, 0)
	if p, _ := h.Level(1).Lookup(a + 2*memp.LineSize); p {
		t.Fatal("hit must not trigger prefetch")
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

// TestRememberedRun pins the L1's memory of its last all-hit line-stride
// batch: remembered after a batch in which every access hit, charged in
// closed form when repeated, and forgotten once any valid line leaves
// the L1 — by eviction, back-invalidation, Flush or Reset — but not by a
// fill into a free way, an access that leaves the L1 alone or ResetStats.
func TestRememberedRun(t *testing.T) {
	const n = 4
	base := memp.Addr(0x40000) // lines in L1 sets 0..3 and L2 sets 0..3
	remembered := func(h *Hierarchy) bool { return h.Level(1).resident(base, n, false) }
	warm := func(inclusive bool) *Hierarchy {
		h := tiny()
		h.Inclusive = inclusive
		h.AccessBatch(base, memp.LineSize, n, FlagNoLRU)
		if remembered(h) {
			t.Fatal("a batch that missed was remembered")
		}
		h.AccessBatch(base+8, memp.LineSize, n, FlagNoLRU)
		if !remembered(h) {
			t.Fatal("an all-hit batch was not remembered")
		}
		return h
	}

	h := warm(false)
	c1 := h.Level(1)
	if c1.resident(base, n-1, false) || c1.resident(base+memp.LineSize, n, false) {
		t.Fatal("only the remembered run itself may count as resident")
	}
	if c1.resident(base, n, true) {
		t.Fatal("a clean run must not serve a write in closed form")
	}
	before, snap := c1.Stats, h.SnapshotLevel(1)
	if hits, miss := h.AccessBatch(base, memp.LineSize, n, FlagNoLRU); hits != n || miss != 0 {
		t.Fatalf("repeat = %d hits, %d miss cycles; want %d, 0", hits, miss, n)
	}
	if c1.Stats.Accesses != before.Accesses+n || c1.Stats.Hits != before.Hits+n || c1.Stats.Misses != before.Misses {
		t.Fatalf("repeat charged %+v after %+v", c1.Stats, before)
	}
	if !h.SnapshotLevel(1).Equal(snap) {
		t.Fatal("a closed-form repeat changed the L1")
	}
	if hits, _ := h.AccessBatchRMW(base, memp.LineSize, n, FlagNoLRU); hits != 2*n || !c1.resident(base, n, true) {
		t.Fatal("an all-hit read-modify-write batch must leave the run remembered dirty")
	}
	h.ResetStats()
	s := c1.SetOf(base)
	h.Access(addrForSet(c1, s, 1), 0) // fills set s's free way
	if !remembered(h) {
		t.Fatal("ResetStats or a fill into a free way forgot the run")
	}
	h.Access(addrForSet(c1, s, 2), 0) // evicts from set s
	if remembered(h) {
		t.Fatal("an eviction from the L1 did not forget the run")
	}

	h = warm(false)
	h.Flush(base + 4*memp.LineSize) // not cached: nothing leaves
	if !remembered(h) {
		t.Fatal("flushing an uncached line forgot the run")
	}
	h.Flush(base + 2*memp.LineSize)
	if remembered(h) {
		t.Fatal("a Flush did not forget the run")
	}

	for _, inclusive := range []bool{false, true} {
		h = warm(inclusive)
		c2 := h.Level(2)
		for k := 1; k <= c2.Ways(); k++ {
			h.AccessFrom(2, addrForSet(c2, c2.SetOf(base), k), 0)
		}
		if p, _ := c2.Lookup(base); p {
			t.Fatal("precondition: the run's first line left the L2")
		}
		if remembered(h) == inclusive {
			t.Fatalf("inclusive=%v: an L2 eviction left the run remembered=%v", inclusive, remembered(h))
		}
	}

	h = warm(false)
	h.Reset()
	if remembered(h) {
		t.Fatal("Reset did not forget the run")
	}
}
