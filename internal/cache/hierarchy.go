package cache

import (
	"fmt"

	"ctbia/internal/memp"
)

// Flags modify how an access traverses the hierarchy.
type Flags uint32

// Access flags.
const (
	// FlagWrite makes the access a store (write-allocate, write-back).
	FlagWrite Flags = 1 << iota
	// FlagNoLRU suppresses replacement-metadata updates on hits. The
	// paper uses this for secret-relevant touches so the replacement
	// state cannot leak ("not updating replacement bit (LRU bit) if
	// the access is secret-relevant", Sec. 3.2).
	FlagNoLRU
	// FlagUncached bypasses every cache level and goes straight to
	// DRAM without perturbing any cache state — the Sec. 6.5
	// granularity optimization's "directly load from DRAM" path.
	FlagUncached
	// FlagPrefetch marks fills injected by the prefetcher (stats only).
	FlagPrefetch
)

// Result describes a completed access.
type Result struct {
	// Cycles is the total latency charged.
	Cycles int
	// HitLevel is the 1-based level that supplied the line, or 0 for
	// DRAM (including uncached accesses).
	HitLevel int
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	DRAMReads  uint64 // demand misses served by DRAM + uncached reads
	DRAMWrites uint64 // writebacks reaching DRAM + uncached writes
}

// DRAMAccesses is reads plus writes — the paper's "number of accesses
// to DRAM" metric in Fig. 8.
func (s HierStats) DRAMAccesses() uint64 { return s.DRAMReads + s.DRAMWrites }

// Hierarchy is a write-back, write-allocate multi-level cache in front
// of DRAM. Level 1 is the L1d. By default the hierarchy is
// non-inclusive (fills propagate everywhere, evictions at one level
// leave other levels alone); setting Inclusive enforces inclusion by
// back-invalidating the inner levels whenever an outer level evicts a
// line — the property that gives a cross-core attacker sharing only the
// LLC eviction power over the victim's private caches. The paper's
// threat model covers both ("caches can be inclusive, non-inclusive, or
// exclusive, and inclusivity does not influence the effectiveness of
// our work" — a claim the test suite checks).
type Hierarchy struct {
	levels      []*Cache
	dramLatency int
	// subs are the subscribers in order, each with the kinds and levels
	// it wants, as Subscribe found them.
	subs       []subscriber
	wantMask   uint32 // union of subscribed event kinds (1 << kind)
	wantLevels uint32 // union of subscribed cache levels (1 << level)
	// plainLevels is the union of the levels wanted by subscribers that
	// are not RunListeners: a level in it gets no closed-form run.
	plainLevels uint32
	// unbatchedL1 holds while a subscriber that wants the L1 is not a
	// BatchListener wanting the L1 alone: the pass then refuses batches.
	unbatchedL1 bool
	// snoops is the pass's queue of L1 events for the batch port, made
	// by the first snooped pass with room for maxSnoops and reused.
	snoops []Snoop

	// PrefetchNextLine enables a simple next-line prefetcher: every
	// demand fill from DRAM also installs the following line, clean.
	// Default off; used by the Fig. 6(d) interference scenarios.
	PrefetchNextLine bool

	// Inclusive enforces inclusion via back-invalidation (see above).
	Inclusive bool

	Stats HierStats
	// Path counts how the batch paths charged their accesses.
	Path PathStats
}

// subscriber is one Subscribe call's listener with its appetite: the
// event kinds (1 << kind) and levels (1 << level) it wants, and its
// run and batch ports, nil where it has none.
type subscriber struct {
	l      Listener
	kinds  uint32
	levels uint32
	run    RunListener
	batch  BatchListener
}

// PathStats counts, per hierarchy, which path the batch entry points
// (AccessBatch, AccessBatchRMW) charged their accesses through. They
// describe the host's work, not the simulated machine, so no table or
// simulated count depends on them. Each is added once per batch.
type PathStats struct {
	ClosedLines      uint64 // lines charged in closed form (a pair's line once)
	PassLines        uint64 // lines charged by the batch pass
	PassSnoopedLines uint64 // of PassLines, those on a snooped L1
	LoopLines        uint64 // accesses charged by the per-line loop (a pair once)
	MemoMisses       uint64 // batch L1 misses served by the L2's residency memo
	OuterMisses      uint64 // batch L1 misses served by probing the outer levels
}

// Each calls emit once per counter under a stable snake_case name, as
// Stats.Each does.
func (s PathStats) Each(emit func(name string, v uint64)) {
	emit("closed_lines", s.ClosedLines)
	emit("pass_lines", s.PassLines)
	emit("pass_snooped_lines", s.PassSnoopedLines)
	emit("loop_lines", s.LoopLines)
	emit("memo_misses", s.MemoMisses)
	emit("outer_misses", s.OuterMisses)
}

// NewHierarchy builds a hierarchy from innermost to outermost level.
func NewHierarchy(dramLatency int, cfgs ...Config) *Hierarchy {
	if len(cfgs) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{dramLatency: dramLatency}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, NewCache(cfg))
	}
	return h
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Level returns the 1-based cache level.
func (h *Hierarchy) Level(i int) *Cache {
	if i < 1 || i > len(h.levels) {
		panic(fmt.Sprintf("cache: level %d out of range 1..%d", i, len(h.levels)))
	}
	return h.levels[i-1]
}

// LLC returns the outermost cache level.
func (h *Hierarchy) LLC() *Cache { return h.levels[len(h.levels)-1] }

// DRAMLatency returns the miss-to-memory latency in cycles.
func (h *Hierarchy) DRAMLatency() int { return h.dramLatency }

// Subscribe registers a listener for cache events. Listeners that also
// implement KindFilter or LevelFilter get only the kinds and levels
// they want; all others receive every event.
func (h *Hierarchy) Subscribe(l Listener) {
	sub := subscriber{l: l, kinds: ^uint32(0), levels: ^uint32(0)}
	if f, ok := l.(KindFilter); ok {
		sub.kinds = 0
		for k := EvAccess; k <= EvDirty; k++ {
			if f.WantsEvent(k) {
				sub.kinds |= 1 << uint(k)
			}
		}
	}
	if f, ok := l.(LevelFilter); ok {
		sub.levels = 0
		for i := 1; i <= len(h.levels); i++ {
			if f.WantsLevel(i) {
				sub.levels |= 1 << uint(i)
			}
		}
	}
	sub.run, _ = l.(RunListener)
	sub.batch, _ = l.(BatchListener)
	h.subs = append(h.subs, sub)
	h.mergeMasks(sub)
}

// mergeMasks folds one subscriber's appetite into the emit guards.
func (h *Hierarchy) mergeMasks(sub subscriber) {
	h.wantMask |= sub.kinds
	h.wantLevels |= sub.levels
	if sub.run == nil {
		h.plainLevels |= sub.levels
	}
	if sub.levels&(1<<1) != 0 && (sub.batch == nil || sub.levels != 1<<1) {
		h.unbatchedL1 = true
	}
}

// ListenerCount returns the number of subscribed listeners; pair with
// TruncateListeners to drop subscriptions added after a point in time.
func (h *Hierarchy) ListenerCount() int { return len(h.subs) }

// TruncateListeners drops every listener subscribed after the first n
// and recomputes the emit-guard masks from the survivors' appetites as
// Subscribe found them. The machine pool uses it on Reset: a pooled
// machine keeps its construction-time subscribers (the BIA) but sheds
// telemetry an experiment attached, so a later borrower sees the event
// traffic of a fresh machine.
func (h *Hierarchy) TruncateListeners(n int) {
	if n < 0 || n > len(h.subs) {
		panic(fmt.Sprintf("cache: truncate to %d with %d listeners", n, len(h.subs)))
	}
	clear(h.subs[n:])
	h.subs = h.subs[:n]
	h.wantMask, h.wantLevels, h.plainLevels, h.unbatchedL1 = 0, 0, 0, false
	for _, sub := range h.subs {
		h.mergeMasks(sub)
	}
}

// ResetStats zeroes all per-level and hierarchy counters, leaving cache
// contents (and listeners) alone.
func (h *Hierarchy) ResetStats() {
	for _, c := range h.levels {
		c.ResetStats()
	}
	h.Stats = HierStats{}
	h.Path = PathStats{}
}

// Reset restores every level to its cold state (see Cache.Reset) and
// clears the hierarchy counters and the run-tunable knobs, without
// touching the listener list — the caller decides which subscribers
// survive (see TruncateListeners).
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.Stats = HierStats{}
	h.Path = PathStats{}
	h.PrefetchNextLine = false
}

// emit delivers one event to every listener that wants its kind and
// level. Hot paths guard calls with snoopsAt so the Event struct is
// never even constructed when nobody listens — the insecure and
// software-CT runs have zero listeners and their linearization sweeps
// dominate experiment wall time.
func (h *Hierarchy) emit(ev Event) {
	kind, level := uint32(1)<<uint(ev.Kind), uint32(1)<<uint(ev.Level)
	for i := range h.subs {
		if sub := &h.subs[i]; sub.kinds&kind != 0 && sub.levels&level != 0 {
			sub.l.CacheEvent(ev)
		}
	}
}

// emitRun delivers a closed-form run of hits (see RunListener) to every
// RunListener that wants the level's hits; quietL1 has made sure that
// no other listener wants the level.
func (h *Hierarchy) emitRun(level int, first memp.Addr, n, mult int) {
	for i := range h.subs {
		if sub := &h.subs[i]; sub.run != nil && sub.kinds&(1<<EvHit) != 0 && sub.levels&(1<<uint(level)) != 0 {
			sub.run.CacheRun(level, first, n, mult)
		}
	}
}

// emitBatch delivers the pass's queued L1 events to every BatchListener
// that wants the L1, and empties the queue; unbatchedL1 has made sure
// that no other listener wants the L1.
func (h *Hierarchy) emitBatch() {
	for i := range h.subs {
		if sub := &h.subs[i]; sub.batch != nil && sub.levels&(1<<1) != 0 {
			sub.batch.CacheBatch(1, h.snoops)
		}
	}
	h.snoops = h.snoops[:0]
}

// wants reports whether any subscriber consumes events of kind k; emit
// sites for per-probe EvAccess events guard on it so a BIA-only run (the
// common configuration) skips them entirely.
func (h *Hierarchy) wants(k EventKind) bool { return h.wantMask&(1<<uint(k)) != 0 }

// snoopsAt reports whether any subscriber consumes events from the given
// cache level. Emit sites guard on it so a hierarchy whose only listener
// is a single-level BIA skips the event work behind that level's back
// (the L2/LLC traffic of every L1 miss, and vice versa for bypassing
// configurations).
func (h *Hierarchy) snoopsAt(level int) bool {
	return len(h.subs) != 0 && h.wantLevels&(1<<uint(level)) != 0
}

// Access performs a demand load or store starting at L1.
func (h *Hierarchy) Access(addr memp.Addr, flags Flags) Result {
	return h.AccessFrom(1, addr, flags)
}

// AccessFrom performs a demand access that bypasses the levels above
// start (1-based). BIA-in-L2/LLC configurations use this: the paper's
// CTLoad/CTStore and the follow-up DS accesses "bypass the L1 cache ...
// for security" when the BIA lives lower in the hierarchy.
func (h *Hierarchy) AccessFrom(start int, addr memp.Addr, flags Flags) Result {
	if flags&FlagUncached != 0 {
		return Result{Cycles: h.Uncached(1, flags&FlagWrite != 0)}
	}
	return h.demandAccess(start, start, addr.Line(), flags, 0)
}

// Uncached charges n accesses that bypass every level (FlagUncached),
// stores when write is set, and returns their latency: n DRAM reads or
// writes at the DRAM latency each. Such an access changes no cache
// state and emits no event, so n of them are one step.
func (h *Hierarchy) Uncached(n int, write bool) (cycles int) {
	if write {
		h.Stats.DRAMWrites += uint64(n)
	} else {
		h.Stats.DRAMReads += uint64(n)
	}
	return n * h.dramLatency
}

// demandAccess probes levels probe..N for la and charges their
// latencies on top of cycles (the latency the caller already paid for
// levels it probed itself); on a hit below start the levels start..hit-1
// are filled, and a full miss fills start..N from DRAM. AccessFrom
// enters with probe == start; the per-line batch loops enter with
// probe == start+1 after an inlined start-level miss.
func (h *Hierarchy) demandAccess(start, probe int, la memp.Addr, flags Flags, cycles int) Result {
	r := h.outerAccess(start, probe, la, flags, cycles)
	if r.HitLevel != start {
		h.fillLevel(start, la, flags&FlagWrite != 0, flags, false)
		if r.HitLevel == 0 {
			h.maybePrefetch(la)
		}
	}
	return r
}

// outerAccess is demandAccess up to its fill of start: it probes levels
// probe..N, charges them, and fills the levels between start and the
// one that supplied the line, outermost first. The caller fills start
// last, carrying a store's dirty bit, as demandAccess does; the pass
// fills the L1 from its own plan. The levels it fills are outside
// start, and on a non-inclusive hierarchy nothing it does reaches
// start: its evictions write back outward.
func (h *Hierarchy) outerAccess(start, probe int, la memp.Addr, flags Flags, cycles int) Result {
	write := flags&FlagWrite != 0
	wantAcc := h.wants(EvAccess)
	for i := probe; i <= len(h.levels); i++ {
		c := h.levels[i-1]
		cycles += c.cfg.Latency
		c.Stats.Accesses++
		snoop := h.snoopsAt(i)
		// One set computation per probe: findIn reuses s, and the
		// slice index falls out of s without re-running the hash.
		s := c.SetOf(la)
		if c.SliceTraffic != nil {
			c.SliceTraffic[s/c.setsPerSlc]++
		}
		if snoop && wantAcc {
			h.emit(Event{Level: i, Kind: EvAccess, Line: la, Set: s, Write: write})
		}
		if w := c.findIn(s, la); w >= 0 {
			li := c.way(s, w)
			c.Stats.Hits++
			if flags&FlagNoLRU == 0 {
				c.touch(s, w)
			}
			if snoop {
				h.emit(Event{Level: i, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[li]})
			}
			if write && !c.dirty[li] {
				c.dirty[li] = true
				if snoop {
					h.emit(Event{Level: i, Kind: EvDirty, Line: la, Set: s})
				}
			}
			if i == 2 {
				c.noteLine(la, c.dirty[li])
			}
			// Fill the bypass-free upper levels so subsequent
			// accesses hit closer to the core.
			h.fillRange(start+1, i-1, la, flags)
			return Result{Cycles: cycles, HitLevel: i}
		}
		c.Stats.Misses++
	}
	// Missed everywhere: DRAM supplies the line.
	cycles += h.dramLatency
	h.Stats.DRAMReads++
	h.fillRange(start+1, len(h.levels), la, flags)
	return Result{Cycles: cycles, HitLevel: 0}
}

// BatchSafe reports whether the batched access paths below reproduce
// the per-access event stream bit-exactly for the current subscriber
// set. The batch paths emit every hit/dirty edge a scalar access would
// (and their miss paths delegate to demandAccess, which emits the
// rest); the only events they skip are the per-probe EvAccess ones. A
// BIA's kind filter excludes EvAccess, so BIA-attached machines batch;
// attacker telemetry wants it, so instrumented replays take the scalar
// path.
func (h *Hierarchy) BatchSafe() bool { return !h.wants(EvAccess) }

// lineGroup returns how many of the next rem accesses of a stride walk
// starting at addr (whose line is la) stay within that cache line —
// always at least 1. Sub-line strides make these groups long (a
// stride-8 sweep puts 8 consecutive accesses on every line), and the
// batch paths below charge a whole group from a single tag probe.
func lineGroup(addr, la memp.Addr, stride int64, rem int) int {
	var g int64
	switch {
	case stride == 0:
		return rem
	case stride >= memp.LineSize || stride <= -memp.LineSize:
		return 1
	case stride > 0:
		g = (int64(la) + memp.LineSize - int64(addr) + stride - 1) / stride
	default:
		g = (int64(addr)-int64(la))/(-stride) + 1
	}
	if g > int64(rem) {
		return rem
	}
	return int(g)
}

// AccessBatch performs n demand accesses at base, base+stride, ...,
// all with the same flags, starting at L1 — semantically identical to n
// AccessFrom(1, ...) calls, but with the L1 probe inlined and no Result
// construction or per-access EvAccess plumbing. L1 hits still emit
// EvHit/EvDirty when a listener snoops the L1 (the run-record snoop
// path a BIA needs), so the batch is usable whenever BatchSafe holds;
// the caller must also guarantee flags carry neither FlagUncached nor a
// bypass (the cpu replay engine checks all of it). It returns the
// number of accesses that hit in the L1 (the caller charges those at L1
// latency or streaming throughput) and the total latency of the
// remaining accesses.
//
// Consecutive accesses that stay on one cache line are charged from a
// single tag probe: the stats are additive, one LRU touch leaves the
// same relative stamp order as g consecutive touches of the same way
// (so victim selection cannot diverge), the dirty edge fires on the
// group's first write, and the snooped event stream is re-emitted
// access by access. A miss consumes only its own access — the rest of
// its line group re-probes next iteration (the fill can be dropped by
// a pinned-full set), which keeps the event and cycle sequence
// bit-identical to the scalar loop.
//
// The L1 keeps a residency memo (Cache.memo): every hit of a
// line-stride batch is noted in it, page by page, with the line's
// dirty bit after the access. A line-stride batch whose lines the memo
// covers is charged in closed form, without probing its lines, when
// quietL1 holds: every access then hits and changes nothing but the
// L1's access and hit counts, and the L1's RunListeners take the run's
// hits in one call. A write, or any access to a snooped L1, needs every
// line seen dirty, so that no dirty bit moves and every hit event's
// dirty bit is known; an unsnooped load needs them seen resident.
//
// The L2 keeps a residency memo too, noted by its demand hits and by
// the writebacks that dirty its lines. An L1 miss it covers is charged
// as an L2 hit without probing the L2 when quietL2 holds (batchMiss).
// A line-stride FlagNoLRU batch on an unpinned, unsliced LRU or FIFO L1
// of a non-inclusive hierarchy without the next-line prefetcher, whose
// L1 subscribers all take batches (BatchListener) and watch nothing
// else, skips the L1's probes as well: the batch pass (planBatch) reads
// each set it visits once, serves each miss through the L2's memo or
// the outer levels, changes the state as the per-line loop would and
// adds the counts once; the L1's events reach its subscribers in
// chunks, in order. Every other batch takes the per-line loop. Path
// counts which of the three charged the batch.
func (h *Hierarchy) AccessBatch(base memp.Addr, stride int64, n int, flags Flags) (l1Hits, missCycles int) {
	c := h.levels[0]
	write := flags&FlagWrite != 0
	snoop := h.snoopsAt(1)
	line := stride == memp.LineSize
	if line && h.quietL1(flags) && c.covered(base.Line(), n, write || snoop) {
		c.Stats.Accesses += uint64(n)
		c.Stats.Hits += uint64(n)
		h.Path.ClosedLines += uint64(n)
		if snoop {
			h.emitRun(1, base.Line(), n, 1)
		}
		return n, 0
	}
	if line && h.passable(flags) {
		return h.planBatch(base.Line(), n, flags, false)
	}
	noLRU := flags&FlagNoLRU != 0
	var seen pendingPage
	misses0, memoHits := c.Stats.Misses, 0
	addr := base
	for k := 0; k < n; {
		la := addr.Line()
		s := c.SetOf(la)
		w := c.findIn(s, la)
		if w < 0 {
			c.commit(&seen)
			c.Stats.Accesses++
			if c.SliceTraffic != nil {
				c.SliceTraffic[s/c.setsPerSlc]++
			}
			c.Stats.Misses++
			missCycles += h.batchMiss(la, flags, &memoHits)
			k++
			addr += memp.Addr(stride)
			continue
		}
		g := lineGroup(addr, la, stride, n-k)
		c.Stats.Accesses += uint64(g)
		if c.SliceTraffic != nil {
			c.SliceTraffic[s/c.setsPerSlc] += uint64(g)
		}
		li := c.way(s, w)
		c.Stats.Hits += uint64(g)
		if !noLRU {
			c.touch(s, w)
		}
		if snoop {
			for j := 0; j < g; j++ {
				h.emit(Event{Level: 1, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[li]})
				if write && !c.dirty[li] {
					c.dirty[li] = true
					h.emit(Event{Level: 1, Kind: EvDirty, Line: la, Set: s})
				}
			}
		} else if write {
			c.dirty[li] = true
		}
		if line {
			c.note(&seen, la, c.dirty[li])
		}
		l1Hits += g
		k += g
		addr += memp.Addr(stride * int64(g))
	}
	c.commit(&seen)
	h.Path.addLoop(n, c.Stats.Misses-misses0, memoHits)
	return l1Hits, missCycles
}

// addLoop counts a per-line loop's batch of n accesses (or pairs) and
// its L1 misses, memoHits of them served by the L2's memo.
func (s *PathStats) addLoop(n int, misses uint64, memoHits int) {
	s.LoopLines += uint64(n)
	s.MemoMisses += uint64(memoHits)
	s.OuterMisses += misses - uint64(memoHits)
}

// quietL1 reports whether an L1 hit under flags changes nothing but
// the L1's access and hit counts and what a RunListener takes: with
// FlagNoLRU a hit touches no stamp and no clock, with every L1
// subscriber a RunListener no event is due one by one, and with the L1
// unsliced no per-slice count is due.
func (h *Hierarchy) quietL1(flags Flags) bool {
	return flags&FlagNoLRU != 0 && h.plainLevels&(1<<1) == 0 && h.levels[0].SliceTraffic == nil
}

// AccessBatchRMW performs n load+store pairs: per iteration a load at
// base+i*stride with flags, then a store at the same address with
// flags|FlagWrite — the body of every linearized store sweep. Hit
// accounting matches AccessBatch (the combined L1-hit count drives the
// caller's streaming parity; its cycle sum depends only on the count,
// not on which of the interleaved accesses hit), and so does the
// snooped event stream.
//
// Same-line pairs coalesce like AccessBatch's groups: one tag probe
// charges a whole run of resident pairs (a found line cannot leave the
// set between its own load and store, so the pair hits as a unit),
// while a pair whose load misses runs scalar — including the store
// re-probe, because a pinned-full set can drop the fill. A line-stride
// batch notes its hits in the L1's residency memo, and one whose lines
// the memo has all seen dirty is charged in closed form, as
// AccessBatch's is. A batch the pass takes goes through it, and the
// per-line loop's misses through the L2's memo, as AccessBatch's do: a
// pair's load needs its line seen resident at the L2, and its store
// then hits the line the load filled.
func (h *Hierarchy) AccessBatchRMW(base memp.Addr, stride int64, n int, flags Flags) (l1Hits, missCycles int) {
	c := h.levels[0]
	snoop := h.snoopsAt(1)
	line := stride == memp.LineSize
	if line && h.quietL1(flags) && c.covered(base.Line(), n, true) {
		c.Stats.Accesses += uint64(2 * n)
		c.Stats.Hits += uint64(2 * n)
		h.Path.ClosedLines += uint64(n)
		if snoop {
			h.emitRun(1, base.Line(), n, 2)
		}
		return 2 * n, 0
	}
	if line && h.passable(flags) {
		return h.planBatch(base.Line(), n, flags, true)
	}
	noLRU := flags&FlagNoLRU != 0
	var seen pendingPage
	misses0, memoHits := c.Stats.Misses, 0
	addr := base
	for k := 0; k < n; {
		la := addr.Line()
		s := c.SetOf(la)
		w := c.findIn(s, la)
		if w < 0 {
			// Load probe missed: scalar handling for this one pair.
			c.commit(&seen)
			c.Stats.Accesses++
			if c.SliceTraffic != nil {
				c.SliceTraffic[s/c.setsPerSlc]++
			}
			c.Stats.Misses++
			missCycles += h.batchMiss(la, flags, &memoHits)
			// Store probe: after the load the line is resident in L1
			// unless a pinned-full set dropped the fill, so re-probe
			// rather than assume.
			c.Stats.Accesses++
			if c.SliceTraffic != nil {
				c.SliceTraffic[s/c.setsPerSlc]++
			}
			if w := c.findIn(s, la); w >= 0 {
				li := c.way(s, w)
				c.Stats.Hits++
				if !noLRU {
					c.touch(s, w)
				}
				if snoop {
					h.emit(Event{Level: 1, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[li]})
				}
				if !c.dirty[li] {
					c.dirty[li] = true
					if snoop {
						h.emit(Event{Level: 1, Kind: EvDirty, Line: la, Set: s})
					}
				}
				if line {
					c.note(&seen, la, true)
				}
				l1Hits++
			} else {
				c.Stats.Misses++
				missCycles += h.batchMiss(la, flags|FlagWrite, &memoHits)
			}
			k++
			addr += memp.Addr(stride)
			continue
		}
		g := lineGroup(addr, la, stride, n-k)
		c.Stats.Accesses += uint64(2 * g)
		if c.SliceTraffic != nil {
			c.SliceTraffic[s/c.setsPerSlc] += uint64(2 * g)
		}
		li := c.way(s, w)
		c.Stats.Hits += uint64(2 * g)
		if !noLRU {
			c.touch(s, w)
		}
		if snoop {
			for j := 0; j < g; j++ {
				h.emit(Event{Level: 1, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[li]})
				h.emit(Event{Level: 1, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[li]})
				if !c.dirty[li] {
					c.dirty[li] = true
					h.emit(Event{Level: 1, Kind: EvDirty, Line: la, Set: s})
				}
			}
		} else {
			c.dirty[li] = true
		}
		if line {
			c.note(&seen, la, true)
		}
		l1Hits += 2 * g
		k += g
		addr += memp.Addr(stride * int64(g))
	}
	c.commit(&seen)
	h.Path.addLoop(n, c.Stats.Misses-misses0, memoHits)
	return l1Hits, missCycles
}

// fillRange installs la clean into levels end down to start (1-based,
// inclusive; nothing when end < start). Demand callers have just probed
// and missed every level in the range, so the line is known absent
// there and the fill skips the presence check; filling outermost first
// cannot install la at an inner level (evictions only remove lines and
// writebacks only mark existing ones dirty), so the knowledge stays
// valid across the loop.
func (h *Hierarchy) fillRange(start, end int, la memp.Addr, flags Flags) {
	for i := end; i >= start; i-- {
		h.fillLevel(i, la, false, flags, false)
	}
}

// fillLevel installs la at level i, evicting a victim if needed.
// checkPresent makes it tolerate la already being cached at the level
// (the prefetch path, which fills without probing first).
func (h *Hierarchy) fillLevel(i int, la memp.Addr, dirty bool, flags Flags, checkPresent bool) {
	c := h.levels[i-1]
	s := c.SetOf(la)
	snoop := h.snoopsAt(i)
	// Already present (a prefetch racing a demand fill): just update
	// the dirty bit.
	if checkPresent {
		if w := c.findIn(s, la); w >= 0 {
			if li := c.way(s, w); dirty && !c.dirty[li] {
				c.dirty[li] = true
				if snoop {
					h.emit(Event{Level: i, Kind: EvDirty, Line: la, Set: s})
				}
			}
			return
		}
	}
	w := c.victim(s)
	if w < 0 {
		// Every way pinned (PLcache scenario): drop the fill.
		return
	}
	li := c.way(s, w)
	if c.tags[li] != noTag {
		h.evictLine(i, c, s, w)
	}
	c.setTag(s, w, la)
	c.dirty[li] = dirty
	c.clock++
	c.stamps[li] = c.clock
	c.Stats.Fills++
	if flags&FlagPrefetch != 0 {
		c.Stats.Prefetches++
	}
	if snoop {
		h.emit(Event{Level: i, Kind: EvFill, Line: la, Set: s})
		if dirty {
			h.emit(Event{Level: i, Kind: EvDirty, Line: la, Set: s})
		}
	}
}

// evictLine removes a victim from level i, writing it back toward
// memory if dirty. Writebacks land in the next level that already holds
// the line (its copy turns dirty); otherwise they count as DRAM writes.
// In inclusive mode the inner levels are back-invalidated first, so
// their dirty data drains into this level's copy before it leaves.
func (h *Hierarchy) evictLine(i int, c *Cache, s, w int) {
	li := c.way(s, w)
	la := c.tags[li]
	if h.Inclusive && i > 1 {
		h.backInvalidate(i, la)
	}
	c.Stats.Evictions++
	if h.snoopsAt(i) {
		h.emit(Event{Level: i, Kind: EvEvict, Line: la, Set: s, Dirty: c.dirty[li]})
	}
	if c.dirty[li] {
		c.Stats.Writebacks++
		h.writeback(i+1, la)
	}
	c.vacate(s, w)
}

// backInvalidate removes la from every level inside outer, draining
// dirty copies into outer's (still-present) copy.
func (h *Hierarchy) backInvalidate(outer int, la memp.Addr) {
	for i := outer - 1; i >= 1; i-- {
		c := h.levels[i-1]
		s := c.SetOf(la)
		if w := c.findIn(s, la); w >= 0 {
			dirty := c.dirty[c.way(s, w)]
			c.Stats.Invalidates++
			c.Stats.Evictions++
			if h.snoopsAt(i) {
				h.emit(Event{Level: i, Kind: EvEvict, Line: la, Set: s, Dirty: dirty})
			}
			if dirty {
				c.Stats.Writebacks++
				h.writeback(i+1, la)
			}
			c.vacate(s, w)
		}
	}
}

// writeback pushes a dirty line from level from-1 toward memory.
func (h *Hierarchy) writeback(from int, la memp.Addr) {
	for i := from; i <= len(h.levels); i++ {
		c := h.levels[i-1]
		s := c.SetOf(la)
		if w := c.findIn(s, la); w >= 0 {
			if li := c.way(s, w); !c.dirty[li] {
				c.dirty[li] = true
				if h.snoopsAt(i) {
					h.emit(Event{Level: i, Kind: EvDirty, Line: la, Set: s})
				}
				if i == 2 {
					c.noteLine(la, true)
				}
			}
			return
		}
	}
	h.Stats.DRAMWrites++
}

// CTProbeLoad implements the cache side of the paper's CTLoad at the
// given level: a tag check that, on hit, reads the line WITHOUT updating
// replacement state, and on miss does NOT forward the request or
// allocate ("the new instruction does not forward misses to the next
// level in the cache hierarchy or to the main memory, for security").
// The hit signal still reaches snoopers (the BIA learns existence and
// the current dirty bit). Latency is one probe of that level.
func (h *Hierarchy) CTProbeLoad(level int, addr memp.Addr) (hit bool, cycles int) {
	c := h.Level(level)
	la := addr.Line()
	snoop := h.snoopsAt(level)
	c.Stats.Accesses++
	s := c.SetOf(la)
	if c.SliceTraffic != nil {
		c.SliceTraffic[s/c.setsPerSlc]++
	}
	if snoop && h.wants(EvAccess) {
		h.emit(Event{Level: level, Kind: EvAccess, Line: la, Set: s, Probe: true})
	}
	if w := c.findIn(s, la); w >= 0 {
		c.Stats.Hits++
		if snoop {
			h.emit(Event{Level: level, Kind: EvHit, Line: la, Set: s, Dirty: c.dirty[c.way(s, w)], Probe: true})
		}
		return true, c.cfg.Latency
	}
	c.Stats.Misses++
	return false, c.cfg.Latency
}

// CTProbeStore implements the cache side of the paper's CTStore at the
// given level: the write is applied only if the line is present AND
// already dirty; otherwise DO NOTHING. Either way no line is allocated,
// no replacement state changes, and no request is forwarded. The caller
// performs the data write iff wrote is true.
func (h *Hierarchy) CTProbeStore(level int, addr memp.Addr) (wrote bool, cycles int) {
	c := h.Level(level)
	la := addr.Line()
	snoop := h.snoopsAt(level)
	c.Stats.Accesses++
	s := c.SetOf(la)
	if c.SliceTraffic != nil {
		c.SliceTraffic[s/c.setsPerSlc]++
	}
	if snoop && h.wants(EvAccess) {
		h.emit(Event{Level: level, Kind: EvAccess, Line: la, Set: s, Write: true, Probe: true})
	}
	if w := c.findIn(s, la); w >= 0 {
		dirty := c.dirty[c.way(s, w)]
		c.Stats.Hits++
		if snoop {
			h.emit(Event{Level: level, Kind: EvHit, Line: la, Set: s, Dirty: dirty, Probe: true})
		}
		// Line stays dirty; no EvDirty because there is no 0->1 edge.
		return dirty, c.cfg.Latency
	}
	c.Stats.Misses++
	return false, c.cfg.Latency
}

// Flush invalidates the line holding addr at every level, writing back
// dirty copies (clflush semantics). Attackers and tests use it.
func (h *Hierarchy) Flush(addr memp.Addr) {
	la := addr.Line()
	for i := len(h.levels); i >= 1; i-- {
		c := h.levels[i-1]
		s := c.SetOf(la)
		if w := c.findIn(s, la); w >= 0 {
			c.Stats.Invalidates++
			h.evictLine(i, c, s, w)
		}
	}
}

// PrefetchLine installs la clean at every level without counting as a
// demand access; models a hardware prefetcher bringing a line in
// (Fig. 6(d): "that line should not be dirty in the cache"). The fill
// data comes from DRAM, so it counts toward the Fig. 8 DRAM-access
// metric — unless the line is already cached somewhere, in which case
// the prefetch is dropped before reaching the memory controller.
func (h *Hierarchy) PrefetchLine(addr memp.Addr) {
	la := addr.Line()
	cached := false
	for _, c := range h.levels {
		if _, w := c.find(la); w >= 0 {
			cached = true
			break
		}
	}
	if !cached {
		h.Stats.DRAMReads++
	}
	// Unlike demand fills, the prefetcher has not probed first, so the
	// line may already sit at some level: fill with the presence check.
	for i := len(h.levels); i >= 1; i-- {
		h.fillLevel(i, la, false, FlagPrefetch, true)
	}
}

// maybePrefetch is called after a demand DRAM fill when the next-line
// prefetcher is on.
func (h *Hierarchy) maybePrefetch(la memp.Addr) {
	if h.PrefetchNextLine {
		h.PrefetchLine(la + memp.LineSize)
	}
}

// Snapshot captures the full metadata state of one level, so tests can
// assert that CT probes have zero side effects.
type Snapshot struct {
	Lines []SnapshotLine
}

// SnapshotLine is one valid line in a Snapshot.
type SnapshotLine struct {
	Set   int
	Addr  memp.Addr
	Dirty bool
	Stamp uint64
}

// SnapshotLevel captures level i's state.
func (h *Hierarchy) SnapshotLevel(i int) Snapshot {
	c := h.Level(i)
	var snap Snapshot
	for i, la := range c.tags {
		if la != noTag {
			snap.Lines = append(snap.Lines, SnapshotLine{Set: i / c.cfg.Ways, Addr: la, Dirty: c.dirty[i], Stamp: c.stamps[i]})
		}
	}
	return snap
}

// Equal reports whether two snapshots are identical.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Lines) != len(o.Lines) {
		return false
	}
	for i := range s.Lines {
		if s.Lines[i] != o.Lines[i] {
			return false
		}
	}
	return true
}
