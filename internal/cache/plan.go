package cache

import "ctbia/internal/memp"

// The batch pass charges a line-stride FlagNoLRU batch from one read of
// each L1 set it visits, with no L1 probe and no victim scan of its
// own. With FlagNoLRU no hit moves a stamp, and on a non-inclusive
// hierarchy nothing below the L1 reaches back into it, so during the
// batch only the batch's own fills change the L1. A set the batch
// visits once is read by one scan that finds the line and, on a miss,
// the way victim would fill. A set the batch returns to is read at its
// first line into the order victim would take its ways in, each
// refilled way moving to the back as the newest; from then on every
// line's fate is known: it hits if its set held it at the start and
// its way has not been refilled since, and otherwise takes the set's
// next victim. A miss the L2's residency memo covers is charged as an
// L2 hit without probing the L2 (quietL2); any other goes down the
// hierarchy through outerAccess, demandAccess's own probe-and-fill,
// and the pass fills the L1 after it, as demandAccess would. The L1's
// events reach its BatchListeners in chunks, in the order the per-line
// loop would emit them, and the counts are added once.

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

// quietL2 reports whether an L2 hit under flags changes nothing at the
// L2 but its access and hit counts: with FlagNoLRU no stamp moves, with
// no subscriber there no event is due, and with the L2 unsliced no
// per-slice count is due. A store hit leaves the dirty bit alone only
// on a line already dirty, which the memo check asks for.
func (h *Hierarchy) quietL2(flags Flags) bool {
	return flags&FlagNoLRU != 0 && len(h.levels) > 1 && !h.snoopsAt(2) && h.levels[1].SliceTraffic == nil
}

// batchMiss charges one access of the per-line loop that missed the L1
// on la and returns its latency. A miss the L2's residency memo covers
// (dirty for a store) is charged as an L2 hit without probing the L2,
// when quietL2 holds, and counted in *memo; any other goes down the
// hierarchy through demandAccess.
func (h *Hierarchy) batchMiss(la memp.Addr, flags Flags, memo *int) int {
	c := h.levels[0]
	write := flags&FlagWrite != 0
	if h.quietL2(flags) {
		if c2 := h.levels[1]; c2.holds(la, write) {
			c2.Stats.Accesses++
			c2.Stats.Hits++
			*memo++
			h.fillLevel(1, la, write, flags, false)
			return c.cfg.Latency + c2.cfg.Latency
		}
	}
	return h.demandAccess(1, 2, la, flags, c.cfg.Latency).Cycles
}

// passable reports whether a line-stride batch under flags may take the
// pass: FlagNoLRU; an unsliced, unpinned LRU or FIFO L1 whose every
// subscriber is a BatchListener that wants the L1 alone; and a
// non-inclusive hierarchy without the next-line prefetcher, so that no
// miss's trip below the L1 reaches back into it.
func (h *Hierarchy) passable(flags Flags) bool {
	c := h.levels[0]
	return flags&FlagNoLRU != 0 && c.pinnedAll == 0 && (c.cfg.Policy == LRU || c.cfg.Policy == FIFO) &&
		c.SliceTraffic == nil && !h.unbatchedL1 && !h.Inclusive && !h.PrefetchNextLine
}

// planBatch is the pass over the n lines from the line-aligned first:
// loads, stores when flags has FlagWrite, or load+store pairs when rmw.
// Each line's state changes exactly as the per-line loop would change
// it: a hit notes the L1 memo and a store or pair hit sets the dirty
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
	// When the L2's memo covers the whole batch, every miss is its: only
	// a trip below the L1 could take a line out of the L2, and then none
	// is due.
	memo := h.quietL2(flags)
	allMemo := memo && h.levels[1].covered(first, n, write)
	var p *fillPlan
	if n > c.sets {
		p = c.fillPlan(n)
	}
	li0 := first.LineIndex()
	var seen pendingPage
	var misses, outer, evictions, writebacks, outerCycles int
	// Lines once..sets-1 visit sets the batch visits only there.
	sets := c.sets
	once := n - sets
	s, la := c.SetOf(first), first
	for k := 0; k < n; k++ {
		base := s * ways
		var w int
		var hit bool
		if k < once || k >= sets {
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
				outerCycles += h.outerAccess(1, 2, la, flags, 0).Cycles
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

// scan reads set s once for la, for a batch that visits the set only
// there: the way that holds la and true, or false and the way victim
// would fill: the first invalid way, else the oldest stamp, a tie going
// to the higher way. Only an unpinned LRU or FIFO cache may ask.
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
