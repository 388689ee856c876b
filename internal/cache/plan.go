package cache

import "ctbia/internal/memp"

// A sweep over a data structure larger than the L1 evicts its own lines:
// every line misses the L1 and, while the structure fits the L2, hits
// there. The probe-free pass charges such a batch with no L1 tag scan
// and no victim scan. With FlagNoLRU no hit moves a stamp, so each
// set's victims come in a fixed rotation: the order victim would take
// its ways in at the batch's start, each refilled way moving to the
// back as the newest. The pass reads each set once, at the batch's
// first line in it, and from then on knows every line's fate: a line
// hits if its set held it at the start and its way has not been
// refilled since; otherwise it takes the set's next victim. The L2's
// residency memo vouches that every miss hits the L2, which, with no
// LRU update, no listener and no slices there, changes nothing at the
// L2 but its counts.

// fillPlan is the probe-free pass's scratch, kept on the L1 across
// calls so the pass allocates nothing after its first.
type fillPlan struct {
	// order holds each set's ways in victim order, ways entries a set
	// in set-major order; next is each set's position in it of its
	// next victim.
	order []uint16
	next  []uint16
	// held has bit k set when line k of the batch was in its set at
	// the batch's start, in way way[k]. A pass's batch has at most
	// planLines lines: the L2 memo covers no more.
	held []uint64
	way  []uint16
}

// planLines bounds a probe-free batch: the L2 memo must cover each of
// its lines, and it holds one slot per page, so the batch spans at most
// memoSlots consecutive pages.
const planLines = memoSlots * linesPerPage

// quietL2 reports whether an L2 hit under flags changes nothing at the
// L2 but its access and hit counts: with FlagNoLRU no stamp moves, with
// no subscriber there no event is due, and with the L2 unsliced no
// per-slice count is due. A store hit leaves the dirty bit alone only
// on a line already dirty, which the memo check asks for.
func (h *Hierarchy) quietL2(flags Flags) bool {
	return flags&FlagNoLRU != 0 && len(h.levels) > 1 && !h.snoopsAt(2) && h.levels[1].SliceTraffic == nil
}

// batchMiss charges one access of a batch that missed the L1 on la and
// returns its latency. A miss the L2's residency memo covers (dirty for
// a store) is charged as an L2 hit without probing the L2, when quietL2
// holds; any other goes down the hierarchy through demandAccess.
func (h *Hierarchy) batchMiss(la memp.Addr, flags Flags) int {
	c := h.levels[0]
	write := flags&FlagWrite != 0
	if h.quietL2(flags) {
		if c2 := h.levels[1]; c2.covered(la, 1, write) {
			c2.Stats.Accesses++
			c2.Stats.Hits++
			h.fillLevel(1, la, write, flags, false)
			return c.cfg.Latency + c2.cfg.Latency
		}
	}
	return h.demandAccess(1, 2, la, flags, c.cfg.Latency).Cycles
}

// probeFree reports whether a line-stride batch of n accesses from the
// line-aligned first may take the probe-free pass: at least one access
// per L1 set (a shorter batch pays more to read its sets than it saves
// in probes), an unsliced, unpinned LRU or FIFO L1 that nobody snoops,
// quietL2, and every line seen resident by the L2's memo, and dirty if
// the batch stores.
func (h *Hierarchy) probeFree(first memp.Addr, n int, flags Flags) bool {
	c := h.levels[0]
	return n >= c.sets && c.pinnedAll == 0 && (c.cfg.Policy == LRU || c.cfg.Policy == FIFO) &&
		c.SliceTraffic == nil && !h.snoopsAt(1) && h.quietL2(flags) &&
		h.levels[1].covered(first, n, flags&FlagWrite != 0)
}

// planBatch is the probe-free pass over the n lines from the
// line-aligned first: loads, stores when flags has FlagWrite, or
// load+store pairs when rmw. Each line's state changes exactly as the
// per-line loop would change it: a hit notes the L1 memo and a store
// or pair hit sets the dirty bit; a miss commits the pending memo page,
// evicts the set's next victim (a dirty one through writeback) and
// fills the line with the next stamp. The counts are added once.
func (h *Hierarchy) planBatch(first memp.Addr, n int, flags Flags, rmw bool) (l1Hits, missCycles int) {
	c, c2 := h.levels[0], h.levels[1]
	p := c.fillPlan(n)
	ways := c.cfg.Ways
	dirty := rmw || flags&FlagWrite != 0 // every line's dirty bit after its access
	li0 := first.LineIndex()
	var seen pendingPage
	var misses, evictions, writebacks int
	s, la := c.SetOf(first), first
	for k := 0; k < n; k++ {
		if k < c.sets {
			c.readSet(p, s, li0, n)
		}
		base := s * ways
		if i := base + int(p.way[k]); p.held[k>>6]&(1<<(k&63)) != 0 && c.tags[i] == la {
			if dirty {
				c.dirty[i] = true
			}
			c.note(&seen, la, c.dirty[i])
		} else {
			c.commit(&seen)
			misses++
			w := int(p.order[base+int(p.next[s])])
			if p.next[s]++; int(p.next[s]) == ways {
				p.next[s] = 0
			}
			i = base + w
			if old := c.tags[i]; old != noTag {
				evictions++
				if c.dirty[i] {
					writebacks++
					h.writeback(2, old)
				}
			}
			c.setTag(s, w, la)
			c.dirty[i] = dirty
			c.clock++
			c.stamps[i] = c.clock
			if rmw {
				c.note(&seen, la, true)
			}
		}
		if s++; s == c.sets {
			s = 0
		}
		la += memp.LineSize
	}
	c.commit(&seen)
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
	c2.Stats.Accesses += uint64(misses)
	c2.Stats.Hits += uint64(misses)
	return acc - misses, misses * (c.cfg.Latency + c2.cfg.Latency)
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
