package bia

import (
	"math/rand"
	"reflect"
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// Hierarchy.AccessBatch may charge a run under a BIA without probing
// its lines, because the pass and the closed form send the BIA the same
// hit/fill/evict/dirty edges the accesses one by one would. These tests
// pin that equivalence: a BIA-attached system driven through
// AccessBatch must end in bit-identical state — every cache statistic
// and line, stamps included, every BIA counter, every
// existence/dirtiness bitmap — to one driven access by access, and the
// batch's (l1Hits, missCycles) split must re-compose into the scalar
// path's total charged cycles.

// TestBIAHierarchyIsBatchSafe pins the gate AccessBatch keys on: a BIA
// wants hit/fill/evict/dirty events but not EvAccess, so a FlagNoLRU
// line run on its hierarchy takes the batch pass, then the closed form,
// not the accesses one by one.
func TestBIAHierarchyIsBatchSafe(t *testing.T) {
	h, b := newSystem()
	base := memp.Addr(0x40000)
	b.LookupOrInstall(base)
	for k := 0; k < 2; k++ {
		h.AccessBatch(1, base, memp.LineSize, 8, cache.FlagNoLRU, true)
	}
	if p := h.Path; p.PassSnoopedLines != 8 || p.ClosedLines != 8 || p.LoopLines != 0 {
		t.Fatalf("BIA-attached hierarchy charged two runs of 8 lines as %+v; want the snooped pass, then the closed form", p)
	}
}

// batchStep is one randomized schedule element, replayed identically
// against the scalar and the batched system.
type batchStep struct {
	base   memp.Addr
	n      int
	flags  cache.Flags
	rmw    bool
	instal memp.Addr // page to LookupOrInstall before the run (0 = none)
}

func randomSteps(rng *rand.Rand, count int) []batchStep {
	steps := make([]batchStep, count)
	for i := range steps {
		st := batchStep{
			base: memp.Addr(rng.Intn(1<<17)) &^ memp.LineMask,
			n:    1 + rng.Intn(96),
		}
		if rng.Intn(3) == 0 {
			st.flags = cache.FlagWrite
		}
		if rng.Intn(4) == 0 {
			st.rmw = true
			st.flags &^= cache.FlagWrite // RMW supplies the write itself
		}
		if rng.Intn(2) == 0 {
			st.flags |= cache.FlagNoLRU // the pass or the closed form
		}
		if rng.Intn(2) == 0 {
			// Install a BIA entry covering part of the upcoming run so
			// the snooped events actually flip bitmap bits.
			st.instal = st.base + memp.Addr(rng.Intn(st.n))*memp.LineSize
		}
		steps[i] = st
	}
	return steps
}

func TestBatchSnoopChargingEquivalence(t *testing.T) {
	hs, bs := newSystem() // scalar reference
	hb, bb := newSystem() // batched
	l1Lat := hs.Level(1).Latency()

	rng := rand.New(rand.NewSource(7))
	for _, st := range randomSteps(rng, 300) {
		if st.instal != 0 {
			bs.LookupOrInstall(st.instal)
			bb.LookupOrInstall(st.instal)
		}
		var scalarCycles int
		addr := st.base
		for k := 0; k < st.n; k++ {
			if st.rmw {
				scalarCycles += hs.AccessFrom(1, addr, st.flags).Cycles
				scalarCycles += hs.AccessFrom(1, addr, st.flags|cache.FlagWrite).Cycles
			} else {
				scalarCycles += hs.AccessFrom(1, addr, st.flags).Cycles
			}
			addr += memp.LineSize
		}
		hits, miss := hb.AccessBatch(1, st.base, memp.LineSize, st.n, st.flags, st.rmw)
		if got := hits*l1Lat + miss; got != scalarCycles {
			t.Fatalf("step %+v: batch charges %d cycles (hits=%d miss=%d), scalar %d",
				st, got, hits, miss, scalarCycles)
		}
	}

	for lvl := 1; lvl <= hs.Levels(); lvl++ {
		if ws, gs := hs.Level(lvl).Stats, hb.Level(lvl).Stats; ws != gs {
			t.Errorf("L%d stats diverged\nscalar: %+v\nbatch:  %+v", lvl, ws, gs)
		}
		if !hs.SnapshotLevel(lvl).Equal(hb.SnapshotLevel(lvl)) {
			t.Errorf("L%d contents diverged", lvl)
		}
	}
	if p := hb.Path; p.PassLines == 0 || p.LoopLines == 0 {
		t.Errorf("path %+v: want runs through the pass and access by access", p)
	}
	if hs.Stats != hb.Stats {
		t.Errorf("DRAM stats diverged\nscalar: %+v\nbatch:  %+v", hs.Stats, hb.Stats)
	}
	if bs.Stats != bb.Stats {
		t.Errorf("BIA stats diverged\nscalar: %+v\nbatch:  %+v", bs.Stats, bb.Stats)
	}
	if !reflect.DeepEqual(bs.entries, bb.entries) {
		t.Errorf("BIA table state diverged under batched snooping\nscalar: %+v\nbatch:  %+v",
			bs.entries, bb.entries)
	}
}

// TestNegativeFindMemo pins the miss memo: repeated snoops for the
// last two untracked chunks skip the way scan, and an install
// invalidates both immediately.
func TestNegativeFindMemo(t *testing.T) {
	_, b := newSystem()
	a, c := memp.Addr(0x40000), memp.Addr(0x80000)
	if b.find(b.chunkIdx(a)) != nil || b.find(b.chunkIdx(c)) != nil {
		t.Fatal("fresh table claims to track a chunk")
	}
	if b.miss != [2]uint64{b.chunkIdx(c), b.chunkIdx(a)} {
		t.Fatalf("misses memoized as %#x, want both chunks, the last first", b.miss)
	}
	// The memoized misses must not outlive an install of either chunk.
	b.LookupOrInstall(a)
	if e := b.find(b.chunkIdx(a)); e == nil {
		t.Fatal("stale negative memo hid a freshly installed entry")
	}
	if b.miss != [2]uint64{noChunk, noChunk} {
		t.Fatal("an install left the negative memo armed")
	}
	b.find(b.chunkIdx(c))
	b.Reset()
	if b.miss != [2]uint64{noChunk, noChunk} || b.hit != [2]*entry{} {
		t.Fatal("Reset left a find memo armed")
	}
}

// TestFindMemoKeepsTwoEntries pins the positive memo: a fill's victim
// chunk and its own both stay memoized, the most recent first, and an
// entry that leaves the table is never served from it.
func TestFindMemoKeepsTwoEntries(t *testing.T) {
	_, b := newSystem()
	a, c := memp.Addr(0x40000), memp.Addr(0x80000)
	b.LookupOrInstall(a)
	b.LookupOrInstall(c)
	ea, ec := b.find(b.chunkIdx(a)), b.find(b.chunkIdx(c))
	if ea == nil || ec == nil || b.hit != [2]*entry{ec, ea} {
		t.Fatal("the last two entries found are not memoized, the last first")
	}
	if b.find(b.chunkIdx(a)) != ea || b.hit != [2]*entry{ea, ec} {
		t.Fatal("a hit on the older entry did not make it the most recent")
	}
	// Evict a's entry: fill its set with other chunks.
	for k := 1; k <= b.cfg.Ways; k++ {
		b.LookupOrInstall(a + memp.Addr(k*b.sets)<<memp.PageShift)
	}
	if _, _, ok := b.Peek(a); ok {
		t.Fatal("precondition: a's entry left the table")
	}
	if b.find(b.chunkIdx(a)) != nil {
		t.Fatal("the memo served an entry that left the table")
	}
}
