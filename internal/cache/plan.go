package cache

import "ctbia/internal/memp"

// The batch pass charges a line-stride FlagNoLRU batch from one read of
// each L1 set it visits, with no L1 probe and no victim scan of its
// own. With FlagNoLRU no hit moves a stamp, and on a non-inclusive
// hierarchy nothing below the L1 reaches back into it, so during the
// batch only the batch's own fills change the L1. A set the batch
// visits once is read by one scan that finds the line and, on a miss,
// the way victim would fill. A set an LRU or FIFO L1's batch returns to
// is read at its first line into the order victim would take its ways
// in, each refilled way moving to the back as the newest; from then on
// every line's fate is known: it hits if its set held it at the start
// and its way has not been refilled since, and otherwise takes the
// set's next victim. A Random L1 draws its victims from its RNG, so
// its every line is read by its own scan, which draws at a full set's
// miss as victim would, in line order. The pass runs only on a
// hierarchy quiet below the L1 (outerQuiet), so under FlagNoLRU an L2
// hit is due no stamp, no event and no per-slice count: a miss the
// L2's residency memo covers is charged as an L2 hit without probing
// the L2, and any other goes below the L1 through the outer step; the
// pass fills the L1 after it, as demandAccess would. The L1's events reach its
// BatchListeners in chunks, in the order the accesses one by one would
// emit them, and the counts are added once.
//
// The outer step (outerStep) charges a miss below the L1 with one scan
// per outer level, which finds the line or the way victim would fill,
// and fills the levels that missed on those ways, outermost first.
// Without a subscriber below the L1 the trip emits nothing; without
// inclusion a fill's eviction only writes back further outward, so a
// way found stays the one victim would pick until its fill.

// fillPlan is the pass's scratch for the sets a batch returns to, kept
// on the L1 across calls so the pass allocates nothing after its first.
type fillPlan struct {
	// order holds each set's ways in victim order, ways entries a set
	// in set-major order; next is each set's position in it of its
	// next victim.
	order []uint16
	next  []uint16
	// held has bit k set when line k of the batch was in its set at
	// the batch's start, in way way[k]. The pass takes at most
	// planLines lines at a time.
	held []uint64
	way  []uint16
}

// planLines is the most lines the pass charges from one plan: a longer
// batch is charged as consecutive batches of at most planLines lines,
// which changes nothing, as each line's fate depends only on the state
// the lines before it leave.
const planLines = memoSlots * linesPerPage

// maxSnoops bounds the pass's queue of L1 events: a batch with more
// sends them to the batch port in chunks of maxSnoops, in order.
const maxSnoops = 256

// maxStepLevels is the most levels below the L1 the outer step takes;
// a deeper hierarchy's batches go access by access.
const maxStepLevels = 3

// outerQuiet reports whether the pass's misses may take the outer
// step: no subscriber watches a level below the L1, the hierarchy is
// non-inclusive, and every outer level is an unsliced, unpinned LRU or
// FIFO cache. Then a trip below the L1 is due no event and no per-slice
// count, scan finds the way victim would fill, and a fill's eviction
// writes back only further outward.
func (h *Hierarchy) outerQuiet() bool {
	if h.Inclusive || len(h.levels)-1 > maxStepLevels {
		return false
	}
	for i, c := range h.levels[1:] {
		if h.snoopsAt(i+2) || c.SliceTraffic != nil || c.pinnedAll != 0 || c.cfg.Policy == Random {
			return false
		}
	}
	return true
}

// outerStep charges an L1 miss on la below the L1, as demandAccess(1,
// la, flags) would up to its L1 fill when outerQuiet holds, and returns
// its cycles below the L1 and the level that supplied the line (0 for
// DRAM). Each outer level is read by one scan; the levels that missed
// are filled on the ways their scans found, outermost first.
func (h *Hierarchy) outerStep(la memp.Addr, flags Flags) (cycles, level int) {
	var at [maxStepLevels]struct{ s, w int } // the ways the missed levels fill
	write := flags&FlagWrite != 0
	end := len(h.levels)
	for i := 2; i <= len(h.levels); i++ {
		c := h.levels[i-1]
		cycles += c.cfg.Latency
		c.Stats.Accesses++
		s := c.SetOf(la)
		w, hit := c.scan(s, la)
		if !hit {
			c.Stats.Misses++
			at[i-2].s, at[i-2].w = s, w
			continue
		}
		li := c.way(s, w)
		c.Stats.Hits++
		if flags&FlagNoLRU == 0 {
			c.touch(s, w)
		}
		if write {
			c.dirty[li] = true
		}
		if i == 2 {
			c.noteLine(la, c.dirty[li])
		}
		level, end = i, i-1
		break
	}
	if level == 0 {
		cycles += h.dramLatency
		h.Stats.DRAMReads++
	}
	for i := end; i >= 2; i-- {
		c := h.levels[i-1]
		s, w := at[i-2].s, at[i-2].w
		li := c.way(s, w)
		if old := c.tags[li]; old != noTag {
			c.Stats.Evictions++
			if c.dirty[li] {
				c.Stats.Writebacks++
				h.writeback(i+1, old)
			}
		}
		c.setTag(s, w, la)
		c.dirty[li] = false
		c.clock++
		c.stamps[li] = c.clock
		c.Stats.Fills++
		if flags&FlagPrefetch != 0 {
			c.Stats.Prefetches++
		}
	}
	return cycles, level
}

// passable reports whether a line-stride batch under flags may take the
// pass: a quiet L1 (quietL1) with no pinned line, and a hierarchy
// quiet below it (outerQuiet), so that every miss takes the L2's memo
// or the outer step and no trip below the L1 reaches back into it.
func (h *Hierarchy) passable(flags Flags) bool {
	return h.quietL1(flags) && h.levels[0].pinnedAll == 0 && h.outerQuiet()
}

// planBatch is the pass over the n lines from the line-aligned first:
// loads, stores when flags has FlagWrite, or load+store pairs when rmw.
// Each line's state changes exactly as its accesses one by one would
// change it: a hit notes the L1 memo and a store or pair hit sets the dirty
// bit; a miss commits the pending memo page, is served below the L1,
// evicts the set's victim (a dirty one through writeback) and fills the
// line with the next stamp. The counts are added once.
func (h *Hierarchy) planBatch(first memp.Addr, n int, flags Flags, rmw bool) (l1Hits, missCycles int) {
	for n > planLines {
		hits, cycles := h.planBatch(first, planLines, flags, rmw)
		l1Hits, missCycles = l1Hits+hits, missCycles+cycles
		first += planLines * memp.LineSize
		n -= planLines
	}
	c := h.levels[0]
	ways := c.cfg.Ways
	write := flags&FlagWrite != 0
	dirty := rmw || write // every line's dirty bit after its access
	snoop := h.snoopsAt(1)
	if snoop && h.snoops == nil {
		h.snoops = make([]Snoop, 0, maxSnoops)
	}
	// A miss the L2's memo covers is its, and any other takes the outer
	// step. When the memo covers the whole batch, every miss is its: only
	// a trip below the L1 could take a line out of the L2, and then none
	// is due.
	memo := len(h.levels) > 1
	allMemo := memo && h.levels[1].covered(first, n, write)
	// Lines once..again-1 visit sets the batch visits only there and are
	// read by one scan each; the others take their set's plan. A Random
	// L1 plans nothing: its every line is scanned.
	sets := c.sets
	once, again := n-sets, sets
	if c.cfg.Policy == Random {
		once, again = 0, n
	}
	var p *fillPlan
	if once > 0 {
		p = c.fillPlan(n)
	}
	li0 := first.LineIndex()
	var seen pendingPage
	var misses, outer, evictions, writebacks, outerCycles int
	s, la := c.SetOf(first), first
	for k := 0; k < n; k++ {
		base := s * ways
		var w int
		var hit bool
		if k < once || k >= again {
			// A set the batch returns to: its plan.
			if k < sets {
				c.readSet(p, s, li0, n)
			}
			if w = int(p.way[k]); p.held[k>>6]&(1<<(k&63)) == 0 || c.tags[base+w] != la {
				w = int(p.order[base+int(p.next[s])])
				if p.next[s]++; int(p.next[s]) == ways {
					p.next[s] = 0
				}
			} else {
				hit = true
			}
		} else {
			w, hit = c.scan(s, la)
		}
		i := base + w
		if hit {
			d := c.dirty[i]
			if snoop {
				h.snoop(la, EvHit, d)
				if rmw {
					h.snoop(la, EvHit, d)
				}
				if dirty && !d {
					h.snoop(la, EvDirty, false)
				}
			}
			c.dirty[i] = d || dirty
			c.note(&seen, la, d || dirty)
		} else {
			c.commit(&seen)
			misses++
			if !allMemo && !(memo && h.levels[1].holds(la, write)) {
				outer++
				cycles, _ := h.outerStep(la, flags)
				outerCycles += cycles
			}
			if old := c.tags[i]; old != noTag {
				evictions++
				if snoop {
					h.snoop(old, EvEvict, c.dirty[i])
				}
				if c.dirty[i] {
					writebacks++
					h.writeback(2, old)
				}
			}
			c.setTag(s, w, la)
			c.dirty[i] = dirty
			c.clock++
			c.stamps[i] = c.clock
			if snoop {
				h.snoop(la, EvFill, false)
				if rmw {
					h.snoop(la, EvHit, false)
				}
				if dirty {
					h.snoop(la, EvDirty, false)
				}
			}
			if rmw {
				c.note(&seen, la, true)
			}
		}
		if s++; s == sets {
			s = 0
		}
		la += memp.LineSize
	}
	c.commit(&seen)
	if snoop && len(h.snoops) > 0 {
		h.emitBatch()
	}
	acc := n
	if rmw {
		acc = 2 * n
	}
	c.Stats.Accesses += uint64(acc)
	c.Stats.Hits += uint64(acc - misses)
	c.Stats.Misses += uint64(misses)
	c.Stats.Fills += uint64(misses)
	if flags&FlagPrefetch != 0 {
		c.Stats.Prefetches += uint64(misses)
	}
	c.Stats.Evictions += uint64(evictions)
	c.Stats.Writebacks += uint64(writebacks)
	if memoHits := misses - outer; memoHits > 0 {
		c2 := h.levels[1]
		c2.Stats.Accesses += uint64(memoHits)
		c2.Stats.Hits += uint64(memoHits)
		missCycles += memoHits * c2.cfg.Latency
	}
	h.Path.PassLines += uint64(n)
	if snoop {
		h.Path.PassSnoopedLines += uint64(n)
	}
	h.Path.MemoMisses += uint64(misses - outer)
	h.Path.OuterMisses += uint64(outer)
	return l1Hits + acc - misses, missCycles + misses*c.cfg.Latency + outerCycles
}

// snoop queues one L1 event of the pass for the batch port, sending
// the queue on when it is full.
func (h *Hierarchy) snoop(la memp.Addr, kind EventKind, dirty bool) {
	if len(h.snoops) == maxSnoops {
		h.emitBatch()
	}
	h.snoops = append(h.snoops, Snoop{Line: la, Kind: kind, Dirty: dirty})
}

// scan reads set s once for la: the way that holds la and true, or
// false and the way victim would fill: the first invalid way, else the
// oldest stamp, a tie going to the higher way, or a Random cache's
// draw, taken as victim takes it. Only an unpinned cache may ask.
func (c *Cache) scan(s int, la memp.Addr) (w int, hit bool) {
	ways := c.cfg.Ways
	base := s * ways
	tags := c.tags[base : base+ways]
	if int(c.validCnt[s]) < ways {
		inv := -1
		for w, t := range tags {
			if t == la {
				return w, true
			}
			if t == noTag && inv < 0 {
				inv = w
			}
		}
		return inv, false
	}
	if c.cfg.Policy == Random {
		for w, t := range tags {
			if t == la {
				return w, true
			}
		}
		c.rngUsed = true
		return c.rng.Intn(ways), false
	}
	stamps := c.stamps[base : base+ways]
	best, bestStamp := 0, ^uint64(0)
	for w, t := range tags {
		if t == la {
			return w, true
		}
		if stamps[w] <= bestStamp {
			best, bestStamp = w, stamps[w]
		}
	}
	return best, false
}

// fillPlan returns the cache's pass scratch with the held bits of n
// lines cleared, building it on first use.
func (c *Cache) fillPlan(n int) *fillPlan {
	p := c.plan
	if p == nil {
		p = &fillPlan{
			order: make([]uint16, len(c.tags)),
			next:  make([]uint16, c.sets),
			held:  make([]uint64, planLines/64),
			way:   make([]uint16, planLines),
		}
		c.plan = p
	}
	clear(p.held[:(n+63)/64])
	return p
}

// readSet reads set s at the batch's first line in it. Its ways go into
// p.order in victim order: invalid ways by index, then valid ways oldest
// stamp first, a tie going to the higher way as in victim. Each of the
// batch's n lines from line index li0 that the set holds gets its held
// bit and its way.
func (c *Cache) readSet(p *fillPlan, s int, li0 uint64, n int) {
	ways := c.cfg.Ways
	base := s * ways
	order := p.order[base : base+ways]
	stamps := c.stamps[base : base+ways]
	inv := ways - int(c.validCnt[s])
	ni, nv := 0, inv
	for w, la := range c.tags[base : base+ways] {
		if la == noTag {
			order[ni] = uint16(w)
			ni++
			continue
		}
		if k := la.LineIndex() - li0; k < uint64(n) {
			p.held[k>>6] |= 1 << (k & 63)
			p.way[k] = uint16(w)
		}
		j := nv
		for j > inv && stamps[order[j-1]] >= stamps[w] {
			order[j] = order[j-1]
			j--
		}
		order[j] = uint16(w)
		nv++
	}
	p.next[s] = 0
}
