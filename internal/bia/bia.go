// Package bia implements the paper's BItmAp structure (Fig. 5): a small
// set-associative table with one entry per 4 KiB page, each entry holding
// a 64-bit existence bitmap and a 64-bit dirtiness bitmap — one bit per
// cache line of the page — mirroring (a subset of) the state of the cache
// level the BIA is attached to.
//
// The table snoops its cache level through the hierarchy's event bus:
// hits set existence bits and mirror dirty bits, fills set existence,
// evictions/invalidations clear both, and dirty-bit transitions set
// dirtiness. A freshly installed entry starts all-zero even if some of
// the page's lines are already cached; the paper proves this
// "subset-of-truth" inconsistency is harmless for both functionality and
// security, and package tests enforce the subset invariant.
package bia

import (
	"fmt"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// Config sizes the BIA.
type Config struct {
	// Entries is the total number of page entries. The paper's 1 KiB
	// BIA holds 64 entries of 16 bytes of bitmap payload.
	Entries int
	// Ways is the associativity (paper-style set-associative
	// placement with LRU replacement).
	Ways int
	// Latency is the lookup latency in cycles (Table 1: 1 cycle).
	// The BIA is probed in parallel with the cache tag array, so the
	// machine model charges max(cache latency, BIA latency).
	Latency int
	// ChunkShift is the DS-management granularity exponent (the
	// paper's M): each entry tracks one 2^ChunkShift-byte chunk. Zero
	// selects the paper's default M=12 (page granularity). Values in
	// (6, 12) support Sec. 6.4's LLC placement on machines whose
	// slice hash consumes bits below 12 (M = LS_Hash).
	ChunkShift int
}

// normShift resolves the configured granularity.
func (c Config) normShift() int {
	if c.ChunkShift == 0 {
		return memp.PageShift
	}
	return c.ChunkShift
}

// DefaultConfig matches the paper's Table 1: a 1 KiB, 1-cycle BIA.
// 1 KiB of bitmap payload at 16 B/entry is 64 entries; 4-way works out
// to 16 sets.
func DefaultConfig() Config { return Config{Entries: 64, Ways: 4, Latency: 1} }

type entry struct {
	valid   bool
	pageIdx uint64
	exist   uint64
	dirty   uint64
	stamp   uint64
}

// Stats counts BIA activity.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64 // lookups that installed a fresh entry
	Evictions uint64 // entries displaced by installs
	Snoops    uint64 // cache events applied to some entry
}

// Each calls emit once per counter under a stable snake_case name, the
// enumeration the observability layer harvests BIA stats through.
func (s Stats) Each(emit func(name string, v uint64)) {
	emit("lookups", s.Lookups)
	emit("hits", s.Hits)
	emit("misses", s.Misses)
	emit("evictions", s.Evictions)
	emit("snoops", s.Snoops)
}

// Table is the BIA.
type Table struct {
	cfg     Config
	shift   int // chunk granularity exponent (M)
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0
	maskOK  bool
	entries []entry
	clock   uint64
	level   int // cache level being monitored, 0 = detached

	// Two-entry find memo, most recent first: snoop traffic is strongly
	// chunk-local (a linearization sweep touches every line of a page
	// before moving on), but a fill snoops its victim's chunk and then
	// its own, so the last two resolved entries answer most lookups
	// without a way scan. Each pointer is revalidated against (valid,
	// pageIdx) on every use, so eviction or reuse of the slot cannot
	// serve a stale entry. entries never reallocates, so the pointers
	// themselves are safe.
	hit [2]*entry

	// Two-entry negative memo (noChunk when empty): under batched
	// replay the snoop stream is dominated by long runs over chunks the
	// table does not track, each of which would otherwise pay a full
	// way scan. A miss is only cacheable until the next install (the
	// sole way an absent chunk can appear — evictions and snoops never
	// add tags), so LookupOrInstall drops both.
	miss [2]uint64

	Stats Stats
}

// New builds a BIA from cfg.
func New(cfg Config) *Table {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("bia: invalid geometry entries=%d ways=%d", cfg.Entries, cfg.Ways))
	}
	shift := cfg.normShift()
	if shift <= memp.LineShift || shift > memp.PageShift {
		panic(fmt.Sprintf("bia: chunk shift %d out of range (%d, %d]", shift, memp.LineShift, memp.PageShift))
	}
	t := &Table{
		cfg:     cfg,
		shift:   shift,
		sets:    cfg.Entries / cfg.Ways,
		entries: make([]entry, cfg.Entries),
		miss:    [2]uint64{noChunk, noChunk},
	}
	if t.sets&(t.sets-1) == 0 {
		t.maskOK = true
		t.setMask = uint64(t.sets - 1)
	}
	return t
}

// ChunkShift returns the table's management-granularity exponent M.
func (t *Table) ChunkShift() int { return t.shift }

// chunkIdx returns the chunk number of addr at this table's granularity.
func (t *Table) chunkIdx(addr memp.Addr) uint64 { return uint64(addr) >> uint(t.shift) }

// lineBit returns the bitmap bit position of addr's line within its chunk.
func (t *Table) lineBit(addr memp.Addr) uint {
	return uint((uint64(addr) >> memp.LineShift) & (1<<uint(t.shift-memp.LineShift) - 1))
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Latency returns the lookup latency in cycles.
func (t *Table) Latency() int { return t.cfg.Latency }

// Level returns the cache level this BIA monitors (0 if detached).
func (t *Table) Level() int { return t.level }

// AttachTo subscribes the BIA to the hierarchy's event stream, filtered
// to the given cache level. A BIA monitors exactly one level (the paper
// places it in L1d, L2 or the LLC).
func (t *Table) AttachTo(h *cache.Hierarchy, level int) {
	if t.level != 0 {
		panic("bia: already attached")
	}
	if level < 1 || level > h.Levels() {
		panic(fmt.Sprintf("bia: level %d out of range", level))
	}
	t.level = level
	h.Subscribe(t)
}

func (t *Table) set(idx int) []entry {
	return t.entries[idx*t.cfg.Ways : (idx+1)*t.cfg.Ways]
}

func (t *Table) setOf(chunkIdx uint64) int {
	if t.maskOK {
		return int(chunkIdx & t.setMask)
	}
	return int(chunkIdx % uint64(t.sets))
}

// noChunk marks an empty negative memo entry: no address shifts down to
// it.
const noChunk = ^uint64(0)

// find returns chunkIdx's entry, or nil when the table has none. It
// counts nothing, so the memos change no statistic.
func (t *Table) find(chunkIdx uint64) *entry {
	if e := t.hit[0]; e != nil && e.valid && e.pageIdx == chunkIdx {
		return e
	}
	if e := t.hit[1]; e != nil && e.valid && e.pageIdx == chunkIdx {
		t.hit[0], t.hit[1] = e, t.hit[0]
		return e
	}
	if t.miss[0] == chunkIdx || t.miss[1] == chunkIdx {
		return nil
	}
	ways := t.set(t.setOf(chunkIdx))
	for w := range ways {
		if ways[w].valid && ways[w].pageIdx == chunkIdx {
			t.hit[0], t.hit[1] = &ways[w], t.hit[0]
			return &ways[w]
		}
	}
	t.miss[0], t.miss[1] = chunkIdx, t.miss[0]
	return nil
}

// WantsEvent implements cache.KindFilter: the bitmaps react to the
// hit/fill/evict/dirty wires of Fig. 5, not to per-probe access
// telemetry, so a BIA-only hierarchy skips EvAccess emission entirely.
func (t *Table) WantsEvent(k cache.EventKind) bool {
	switch k {
	case cache.EvHit, cache.EvFill, cache.EvEvict, cache.EvDirty:
		return true
	default:
		return false
	}
}

// WantsLevel implements cache.LevelFilter: the snoop port is wired to
// exactly one cache level (AttachTo sets it before subscribing).
func (t *Table) WantsLevel(level int) bool { return level == t.level }

// CacheEvent implements cache.Listener: the snoop port of Fig. 5.
func (t *Table) CacheEvent(ev cache.Event) {
	if ev.Level != t.level {
		return
	}
	switch ev.Kind {
	case cache.EvHit, cache.EvFill, cache.EvEvict, cache.EvDirty:
	default:
		// EvAccess and friends carry nothing the bitmaps track; bail
		// before the table lookup (they are the most frequent events).
		return
	}
	if e := t.find(t.chunkIdx(ev.Line)); e != nil {
		e.snoop(ev.Kind, 1<<t.lineBit(ev.Line), ev.Dirty)
		t.Stats.Snoops++
	}
}

// snoop applies one event of the given kind on the line bit to the
// entry: hits set existence and mirror the dirty bit, fills set
// existence, evictions clear both, dirty edges set both. It reports
// whether the kind is one the bitmaps track.
func (e *entry) snoop(kind cache.EventKind, bit uint64, dirty bool) bool {
	switch kind {
	case cache.EvHit:
		e.exist |= bit
		if dirty {
			e.dirty |= bit
		}
	case cache.EvFill:
		e.exist |= bit
	case cache.EvEvict:
		e.exist &^= bit
		e.dirty &^= bit
	case cache.EvDirty:
		e.exist |= bit
		e.dirty |= bit
	default:
		return false
	}
	return true
}

// CacheRun implements cache.RunListener: the effect of mult EvHit
// events with Dirty set on each of the n lines from first, one chunk
// at a time. A chunk with an entry gets the run's lines ORed into both
// bitmaps and lines×mult snoops; a chunk without one gets nothing, as
// each of its events would.
func (t *Table) CacheRun(level int, first memp.Addr, n, mult int) {
	if level != t.level {
		return
	}
	shift := uint(t.shift - memp.LineShift) // log2 of lines per chunk
	li := first.LineIndex()
	end := li + uint64(n)
	for li < end {
		chunk := li >> shift
		next := (chunk + 1) << shift
		k := min(end, next) - li
		if e := t.find(chunk); e != nil {
			mask := ^uint64(0) >> (64 - k) << (li & (1<<shift - 1))
			e.exist |= mask
			e.dirty |= mask
			t.Stats.Snoops += k * uint64(mult)
		}
		li = next
	}
}

// CacheBatch implements cache.BatchListener: the effect of CacheEvent
// on each of snoops' events, in order. No entry is installed during a
// batch, so an entry found for a chunk holds for the whole batch; a
// fill's events alternate between its victim's chunk and its own, so
// the last two chunks' entries (or their absence) are kept at hand. The
// snoops are counted once.
func (t *Table) CacheBatch(level int, snoops []cache.Snoop) {
	if level != t.level {
		return
	}
	shift := uint(t.shift)
	slots := uint64(1)<<(shift-memp.LineShift) - 1
	c0, c1 := noChunk, noChunk
	var e0, e1 *entry
	var applied uint64
	for _, sn := range snoops {
		switch chunk := uint64(sn.Line) >> shift; chunk {
		case c0:
		case c1:
			c0, c1, e0, e1 = c1, c0, e1, e0
		default:
			c0, c1, e0, e1 = chunk, c0, t.find(chunk), e0
		}
		if e0 != nil && e0.snoop(sn.Kind, 1<<(uint64(sn.Line)>>memp.LineShift&slots), sn.Dirty) {
			applied++
		}
	}
	t.Stats.Snoops += applied
}

// LookupOrInstall is the BIA side of CTLoad/CTStore: it returns the
// existence and dirtiness bitmaps for the page containing addr,
// installing a zero-initialized entry on miss ("an entry is allocated
// and initialized with the existence and dirtiness bits set to 0, and it
// fills the tag with the page index").
func (t *Table) LookupOrInstall(addr memp.Addr) (exist, dirty uint64) {
	pageIdx := t.chunkIdx(addr)
	t.Stats.Lookups++
	if e := t.find(pageIdx); e != nil {
		t.Stats.Hits++
		t.clock++
		e.stamp = t.clock
		return e.exist, e.dirty
	}
	t.Stats.Misses++
	// Install: LRU victim among the set's ways.
	ways := t.set(t.setOf(pageIdx))
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].stamp < ways[victim].stamp {
			victim = w
		}
	}
	if ways[victim].valid {
		t.Stats.Evictions++
	}
	t.clock++
	ways[victim] = entry{valid: true, pageIdx: pageIdx, stamp: t.clock}
	t.hit[0], t.hit[1] = &ways[victim], t.hit[0]
	t.miss = [2]uint64{noChunk, noChunk}
	return 0, 0
}

// Peek returns the bitmaps for addr's page without installing or
// touching LRU state; for tests and debugging.
func (t *Table) Peek(addr memp.Addr) (exist, dirty uint64, ok bool) {
	if e := t.find(t.chunkIdx(addr)); e != nil {
		return e.exist, e.dirty, true
	}
	return 0, 0, false
}

// ResetStats zeroes the counters without touching table contents.
func (t *Table) ResetStats() { t.Stats = Stats{} }

// Reset restores the table to its just-built cold state — no entries,
// clock at zero, find memos dropped, stats cleared — without
// reallocating and without detaching from its cache level.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.clock = 0
	t.hit = [2]*entry{}
	t.miss = [2]uint64{noChunk, noChunk}
	t.Stats = Stats{}
}

// Pages returns the page indices currently tracked, for tests.
func (t *Table) Pages() []uint64 {
	var out []uint64
	for i := range t.entries {
		if t.entries[i].valid {
			out = append(out, t.entries[i].pageIdx)
		}
	}
	return out
}

// CheckSubset verifies the security-critical invariant from the paper's
// Sec. 5.3: every existence bit the BIA holds corresponds to a line that
// is actually present at the monitored level, and every dirtiness bit to
// a line that is actually dirty there. (The converse need not hold.)
// It returns a descriptive error on the first violation.
func (t *Table) CheckSubset(h *cache.Hierarchy) error {
	if t.level == 0 {
		return fmt.Errorf("bia: not attached")
	}
	c := h.Level(t.level)
	linesPerChunk := uint(1) << uint(t.shift-memp.LineShift)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		chunkBase := memp.Addr(e.pageIdx << uint(t.shift))
		for slot := uint(0); slot < linesPerChunk; slot++ {
			bit := uint64(1) << slot
			la := chunkBase + memp.Addr(slot<<memp.LineShift)
			present, dirty := c.Lookup(la)
			if e.exist&bit != 0 && !present {
				return fmt.Errorf("bia: existence bit set for absent line %v (chunk %#x slot %d)", la, e.pageIdx, slot)
			}
			if e.dirty&bit != 0 && !dirty {
				return fmt.Errorf("bia: dirtiness bit set for non-dirty line %v (chunk %#x slot %d)", la, e.pageIdx, slot)
			}
			if e.dirty&bit != 0 && e.exist&bit == 0 {
				return fmt.Errorf("bia: dirty bit without existence bit for line %v", la)
			}
		}
	}
	return nil
}
