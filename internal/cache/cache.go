// Package cache implements the timing-relevant memory system of the
// simulator: set-associative write-back caches with pluggable replacement
// policies, a multi-level hierarchy with the paper's Table 1 latencies,
// and an event bus that exposes exactly the signals the paper's BIA
// hardware snoops (hits, fills, evictions/invalidations, dirty-bit
// transitions) plus per-set access events for the security telemetry.
//
// Caches here track metadata and timing only. Data always lives in the
// simulated physical memory (internal/memp); this is the standard
// trace-simulator factoring and it makes the CTStore "write only when
// dirty, otherwise DO NOTHING" semantics straightforward: skipping the
// write is skipping the memory update.
package cache

import (
	"fmt"
	"math/rand"

	"ctbia/internal/memp"
)

// Policy selects the replacement policy of a cache.
type Policy int

// Replacement policies.
const (
	// LRU is the paper's default policy.
	LRU Policy = iota
	// FIFO evicts the oldest fill regardless of hits.
	FIFO
	// Random evicts a pseudo-random way (seeded, deterministic).
	Random
)

// String names the policy for config dumps.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes one cache level.
type Config struct {
	// Name labels the level in stats dumps ("L1d", "L2", "LLC").
	Name string
	// Size is the capacity in bytes.
	Size int
	// Ways is the associativity.
	Ways int
	// Latency is the access latency in cycles charged per probe of
	// this level.
	Latency int
	// Policy is the replacement policy (default LRU).
	Policy Policy
	// Slices splits the cache into address-hashed slices (Sec. 6.4
	// models a sliced LLC). Zero or one means unsliced.
	Slices int
	// SliceHash maps a line address to a slice in [0, Slices). Only
	// used when Slices > 1; defaults to XOR-folding the line index.
	SliceHash func(memp.Addr) int
	// Seed feeds the Random policy so experiments stay reproducible.
	Seed int64
}

// Stats counts the activity of one cache level.
type Stats struct {
	Accesses    uint64 // probes of this level (demand, from the program)
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Writebacks  uint64 // dirty evictions pushed toward memory
	Prefetches  uint64 // fills injected by the prefetcher
	Invalidates uint64 // explicit flush/invalidate operations
}

// Each calls emit once per counter under a stable snake_case name, the
// enumeration the observability layer harvests per-level stats through.
func (s Stats) Each(emit func(name string, v uint64)) {
	emit("accesses", s.Accesses)
	emit("hits", s.Hits)
	emit("misses", s.Misses)
	emit("fills", s.Fills)
	emit("evictions", s.Evictions)
	emit("writebacks", s.Writebacks)
	emit("prefetches", s.Prefetches)
	emit("invalidates", s.Invalidates)
}

// Cache is one set-associative level.
type Cache struct {
	cfg        Config
	sets       int // total sets across all slices
	setsPerSlc int
	setMask    uint64 // sets-1 when sets is a power of two, else 0
	slcMask    uint64 // setsPerSlc-1 when a power of two, else 0
	maskOK     bool   // set mapping can use bit-masking
	// The lines, sets*ways of them in set-major order, as dense per-line
	// arrays indexed by s*ways+w. tags holds each valid line's
	// line-aligned address, its only copy, and noTag for an invalid
	// line; it changes only through setTag. stamps is the policy's
	// metadata (LRU last touch, FIFO fill time), so victim's scan walks
	// contiguous 8-byte stamps. dirty and pinned are clear on an invalid
	// line.
	tags   []memp.Addr
	stamps []uint64
	dirty  []bool
	pinned []bool
	// validCnt tracks valid lines per set (maintained by setTag), so
	// probes of untouched sets skip the tag scan and fills into full
	// sets skip the invalid-way scan — both the common case once the
	// working set exceeds a level.
	validCnt []uint16
	// mru remembers the way of each set's most recent tag match, probed
	// before the way scan. It is only ever a search-order hint: the
	// hinted tag is compared before use and tags are unique within a
	// set, so a stale or truncated hint degrades to the full scan and
	// can never change which way a probe resolves to.
	mru   []uint16
	clock uint64 // monotonic stamp source for LRU/FIFO
	rng   *rand.Rand
	// rngUsed marks that rng consumed values since its last seeding, so
	// Reset only pays the (expensive) reseed when the state actually
	// diverged — LRU/FIFO machines never draw and skip it entirely.
	rngUsed   bool
	pinnedAll uint64 // count of pinned lines (PLcache comparison)

	// gen counts departures of valid lines: setTag bumps it when it
	// overwrites a valid tag (an eviction, a flush, a back-invalidation)
	// and Reset bumps it when it scrubs. While it stands still no line
	// has left, and as a line turns clean only by leaving, no dirty
	// line has turned clean either.
	gen uint64
	// memo is the residency memo: a direct-mapped slot per page, valid
	// while its generation is gen. The L1's is noted by the batch pass's
	// hits and lets a covered batch be charged in closed form; the L2's
	// is noted by its demand hits and by writebacks, and lets a pass's
	// L1 miss be charged as an L2 hit without probing (see AccessBatch
	// and planBatch).
	memo [memoSlots]pageMemo
	// plan is the batch pass's scratch (see fillPlan), built on the L1
	// by its first pass over a set it returns to and reused after.
	plan *fillPlan

	// SliceTraffic counts per-slice demand accesses when sliced.
	SliceTraffic []uint64

	Stats Stats
}

// memoSlots is the number of page slots in a cache's residency memo.
// The Table 1 L1 holds 16 pages' worth of lines; slots are tagged, so
// two pages that share one only cost the batch path its closed form.
const memoSlots = 64

// linesPerPage is the number of lines in a page: one bit of a memo mask
// each.
const linesPerPage = memp.PageSize / memp.LineSize

// pageMemo is one slot of the residency memo: the lines of page seen
// resident (res), and resident and dirty (dirty, a subset of res),
// while the cache's generation was gen. As no line leaves and no dirty
// line turns clean without a bump of gen, every line the slot names is
// still resident, or resident and dirty, while gen stands.
type pageMemo struct {
	page       uint64
	gen        uint64
	res, dirty uint64
}

// pendingPage gathers one batch's hits on one page before they are
// committed to the memo.
type pendingPage struct {
	page       uint64
	res, dirty uint64
}

// note adds a hit on la, dirty after the access or not, to p,
// committing p first when la is on another page.
func (c *Cache) note(p *pendingPage, la memp.Addr, dirty bool) {
	page := uint64(la) >> memp.PageShift
	if page != p.page {
		c.commit(p)
		p.page = page
	}
	bit := uint64(1) << (uint64(la) >> memp.LineShift % linesPerPage)
	p.res |= bit
	if dirty {
		p.dirty |= bit
	}
}

// commit ORs p's hits into the page's memo slot at the current
// generation, taking the slot over if it holds another page or an
// older generation, and empties p. The batch paths commit before every
// miss, which may bump the generation: a hit seen before a departure
// must never count as seen after it.
func (c *Cache) commit(p *pendingPage) {
	if p.res == 0 {
		return
	}
	m := &c.memo[p.page%memoSlots]
	if m.page != p.page || m.gen != c.gen {
		*m = pageMemo{page: p.page, gen: c.gen}
	}
	m.res |= p.res
	m.dirty |= p.dirty
	p.res, p.dirty = 0, 0
}

// noteLine notes the line la resident at the current generation, and
// dirty too if dirty: the L2 takes its lines one at a time, as demand
// hits and writebacks find them.
func (c *Cache) noteLine(la memp.Addr, dirty bool) {
	p := pendingPage{page: uint64(la) >> memp.PageShift}
	c.note(&p, la, dirty)
	c.commit(&p)
}

// covered reports whether the memo has seen each of the n lines from
// the line-aligned first resident at the current generation, and
// dirty too if dirty, so that every one of them is still so. It checks
// one slot per page the lines span.
func (c *Cache) covered(first memp.Addr, n int, dirty bool) bool {
	if n <= 0 {
		return false
	}
	li := first.LineIndex()
	last := li + uint64(n) - 1
	p0, p1 := li/linesPerPage, last/linesPerPage
	lo := ^uint64(0) << (li % linesPerPage)                    // p0's lines from li on
	hi := ^uint64(0) >> (linesPerPage - 1 - last%linesPerPage) // p1's up to last
	if p0 == p1 {
		return c.seen(p0, lo&hi, dirty)
	}
	if !c.seen(p0, lo, dirty) || !c.seen(p1, hi, dirty) {
		return false
	}
	for p := p0 + 1; p < p1; p++ {
		if !c.seen(p, ^uint64(0), dirty) {
			return false
		}
	}
	return true
}

// holds reports whether the memo vouches for the one line la, as
// covered does for a run of one.
func (c *Cache) holds(la memp.Addr, dirty bool) bool {
	li := la.LineIndex()
	return c.seen(li/linesPerPage, 1<<(li%linesPerPage), dirty)
}

// seen reports whether page's memo slot holds the lines in want at the
// current generation, as resident, or as dirty if dirty.
func (c *Cache) seen(page, want uint64, dirty bool) bool {
	m := &c.memo[page%memoSlots]
	got := m.res
	if dirty {
		got = m.dirty
	}
	return m.page == page && m.gen == c.gen && got&want == want
}

// NewCache builds a cache from cfg, validating the geometry.
func NewCache(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid size/ways %d/%d", cfg.Name, cfg.Size, cfg.Ways))
	}
	nlines := cfg.Size / memp.LineSize
	if nlines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, nlines, cfg.Ways))
	}
	sets := nlines / cfg.Ways
	if cfg.Slices > 1 {
		if sets%cfg.Slices != 0 {
			panic(fmt.Sprintf("cache %s: %d sets not divisible by %d slices", cfg.Name, sets, cfg.Slices))
		}
		if cfg.SliceHash == nil {
			n := cfg.Slices
			cfg.SliceHash = func(a memp.Addr) int {
				x := a.LineIndex()
				return int((x ^ (x >> 7) ^ (x >> 13)) % uint64(n))
			}
		}
	}
	nways := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		tags:     make([]memp.Addr, nways),
		stamps:   make([]uint64, nways),
		dirty:    make([]bool, nways),
		pinned:   make([]bool, nways),
		validCnt: make([]uint16, sets),
		mru:      make([]uint16, sets),
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	if cfg.Slices > 1 {
		c.setsPerSlc = sets / cfg.Slices
		c.SliceTraffic = make([]uint64, cfg.Slices)
	} else {
		c.setsPerSlc = sets
	}
	// All Table 1 geometries have power-of-two set counts, where the
	// `%` in the set mapping reduces to a bit mask; keep the modulo as
	// a fallback for odd hand-built geometries.
	if isPow2(c.sets) && isPow2(c.setsPerSlc) {
		c.maskOK = true
		c.setMask = uint64(c.sets - 1)
		c.slcMask = uint64(c.setsPerSlc - 1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets (across slices).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Latency returns the per-probe latency in cycles.
func (c *Cache) Latency() int { return c.cfg.Latency }

// SetOf returns the set index a line address maps to; exported so that
// attackers can build eviction sets and telemetry can label counters.
func (c *Cache) SetOf(a memp.Addr) int {
	li := a.LineIndex()
	if c.cfg.Slices > 1 {
		slc := c.cfg.SliceHash(a.Line())
		if c.maskOK {
			return slc*c.setsPerSlc + int(li&c.slcMask)
		}
		return slc*c.setsPerSlc + int(li%uint64(c.setsPerSlc))
	}
	if c.maskOK {
		return int(li & c.setMask)
	}
	return int(li % uint64(c.sets))
}

// SliceOf returns the slice a line address maps to (0 when unsliced).
func (c *Cache) SliceOf(a memp.Addr) int {
	if c.cfg.Slices > 1 {
		return c.cfg.SliceHash(a.Line())
	}
	return 0
}

// way returns the per-line array index of way w of set s.
func (c *Cache) way(s, w int) int { return s*c.cfg.Ways + w }

func (c *Cache) find(a memp.Addr) (int, int) {
	la := a.Line()
	s := c.SetOf(la)
	return s, c.findIn(s, la)
}

// noTag marks an invalid way in the tag array. It is not line-aligned,
// so it can never equal a real (line-aligned) probe address — the way
// scan needs no separate validity check.
const noTag = ^memp.Addr(0)

// setTag records la as way w of set s's identity (noTag to invalidate)
// and keeps the per-set valid count and the departure generation in
// step.
func (c *Cache) setTag(s, w int, la memp.Addr) {
	i := c.way(s, w)
	old := c.tags[i]
	c.tags[i] = la
	if old == noTag {
		if la != noTag {
			c.validCnt[s]++
		}
		return
	}
	c.gen++
	if la == noTag {
		c.validCnt[s]--
	}
}

// findIn looks for the line-aligned address la in set s (the caller has
// already computed s = SetOf(la), so the hot paths pay for the set
// mapping exactly once per probe).
func (c *Cache) findIn(s int, la memp.Addr) int {
	if c.validCnt[s] == 0 {
		return -1
	}
	base := s * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	if h := int(c.mru[s]); h < len(tags) && tags[h] == la {
		return h
	}
	for w := range tags {
		if tags[w] == la {
			c.mru[s] = uint16(w)
			return w
		}
	}
	return -1
}

// Lookup reports, without any side effects, whether the line holding a
// is present and whether it is dirty. This is the pure tag check used by
// tests and by the BIA subset-of-truth invariant checker.
func (c *Cache) Lookup(a memp.Addr) (present, dirty bool) {
	s, w := c.find(a)
	if w < 0 {
		return false, false
	}
	return true, c.dirty[c.way(s, w)]
}

// touch updates replacement metadata for a hit according to the policy.
func (c *Cache) touch(s, w int) {
	switch c.cfg.Policy {
	case LRU:
		c.clock++
		c.stamps[c.way(s, w)] = c.clock
	case FIFO, Random:
		// no hit update
	}
}

// victim picks the way to evict in set s. Pinned lines are never chosen;
// if every way is pinned, victim returns -1 (the fill is dropped, which
// models PLcache's "no free way" behaviour).
func (c *Cache) victim(s int) int {
	base := c.way(s, 0)
	tags := c.tags[base : base+c.cfg.Ways]
	stamps := c.stamps[base : base+c.cfg.Ways]
	if c.pinnedAll == 0 {
		// Nothing is pinned anywhere (pinning only appears in the
		// PLcache comparison), so skip the per-way pin checks; scan the
		// dense tag array for an invalid way only when the valid count
		// says one exists (a full set — the steady state — goes straight
		// to the policy). The Random branch stays on the same RNG
		// stream: with no pins the slow path's first draw always
		// succeeds, which is exactly one Intn call.
		if int(c.validCnt[s]) < c.cfg.Ways {
			for w := range tags {
				if tags[w] == noTag {
					return w
				}
			}
		}
		if c.cfg.Policy == Random {
			c.rngUsed = true
			return c.rng.Intn(c.cfg.Ways)
		}
		best, bestStamp := -1, ^uint64(0)
		for w, st := range stamps {
			if st <= bestStamp {
				best, bestStamp = w, st
			}
		}
		return best
	}
	pinned := c.pinned[base : base+c.cfg.Ways]
	// Prefer an invalid way (an invalid line is never pinned).
	for w := range tags {
		if tags[w] == noTag {
			return w
		}
	}
	switch c.cfg.Policy {
	case Random:
		// Try a bounded number of draws to respect pins, then scan.
		c.rngUsed = true
		for i := 0; i < 2*len(tags); i++ {
			w := c.rng.Intn(len(tags))
			if !pinned[w] {
				return w
			}
		}
		fallthrough
	default: // LRU and FIFO: oldest stamp among unpinned
		best, bestStamp := -1, ^uint64(0)
		for w, st := range stamps {
			if pinned[w] {
				continue
			}
			if st <= bestStamp {
				best, bestStamp = w, st
			}
		}
		return best
	}
}

// ValidCount returns how many lines are valid in set s (test invariant).
func (c *Cache) ValidCount(s int) int {
	return len(c.Contents(s))
}

// Contents returns the line addresses currently valid in set s, for
// tests and debugging.
func (c *Cache) Contents(s int) []memp.Addr {
	var out []memp.Addr
	base := c.way(s, 0)
	for _, la := range c.tags[base : base+c.cfg.Ways] {
		if la != noTag {
			out = append(out, la)
		}
	}
	return out
}

// DirtyLines returns all valid+dirty line addresses, for invariant checks.
func (c *Cache) DirtyLines() []memp.Addr {
	var out []memp.Addr
	for i, la := range c.tags {
		if la != noTag && c.dirty[i] {
			out = append(out, la)
		}
	}
	return out
}

// Pin marks the line holding a (if present) as unevictable, modelling
// PLcache-style locking for the Sec. 6.1 comparison. Reports success.
func (c *Cache) Pin(a memp.Addr) bool {
	s, w := c.find(a)
	if w < 0 {
		return false
	}
	if i := c.way(s, w); !c.pinned[i] {
		c.pinned[i] = true
		c.pinnedAll++
	}
	return true
}

// Unpin releases a pinned line. Reports whether the line was present.
func (c *Cache) Unpin(a memp.Addr) bool {
	s, w := c.find(a)
	if w < 0 {
		return false
	}
	c.unpin(c.way(s, w))
	return true
}

// unpin releases line i's pin, if it has one.
func (c *Cache) unpin(i int) {
	if c.pinned[i] {
		c.pinned[i] = false
		c.pinnedAll--
	}
}

// vacate empties way w of set s: a departing line leaves neither its
// dirty bit nor its pin behind.
func (c *Cache) vacate(s, w int) {
	i := c.way(s, w)
	c.dirty[i] = false
	c.unpin(i)
	c.setTag(s, w, noTag)
}

// PinnedLines returns the number of currently pinned lines.
func (c *Cache) PinnedLines() uint64 { return c.pinnedAll }

// ResetStats zeroes the counters without touching cache contents, so a
// warmup phase can be excluded from measurement.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Reset restores the cache to its just-constructed cold state without
// reallocating: all lines invalid, replacement clock at zero, the
// Random-policy RNG back at its seeded state, stats cleared. Only sets
// that currently hold a valid line are scrubbed — an invalid line can
// carry a stale stamp from a previous life, but stamps are only ever
// consulted for valid lines (the policy only compares stamps of lines
// filled since), so skipping them keeps Reset proportional to the
// touched footprint, not the 16 MiB LLC geometry. The scrub bypasses
// setTag, so Reset bumps the departure generation itself, which
// forgets the residency memo.
func (c *Cache) Reset() {
	c.gen++
	for s := 0; s < c.sets; s++ {
		if c.validCnt[s] == 0 {
			continue
		}
		base := c.way(s, 0)
		for i := base; i < base+c.cfg.Ways; i++ {
			c.tags[i] = noTag
			c.stamps[i] = 0
			c.dirty[i] = false
			c.pinned[i] = false
		}
		c.validCnt[s] = 0
	}
	c.clock = 0
	if c.rngUsed {
		c.rng.Seed(c.cfg.Seed + 1)
		c.rngUsed = false
	}
	c.pinnedAll = 0
	for i := range c.SliceTraffic {
		c.SliceTraffic[i] = 0
	}
	c.Stats = Stats{}
}
