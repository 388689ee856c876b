package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctbia/internal/memp"
)

// TestVictimRingMatchesStamps holds the kept victim order (Cache.ring)
// and the residency memos below the L1 to references that use neither.
// Random scripts drive LRU and FIFO hierarchies, and a Random L1 over
// LRU levels, through the batch pass and its outer step, scalar fills,
// LRU-updating hits, flushes, lines that leave the L1 alone, pins and
// unpins, and Reset, on a DS that the LLC holds and on one past it.
// After every step each set that keeps a ring must list its ways in
// the order an independent sort of its tags and stamps gives, and so
// name the way victim picks, and sortRing, which the pass calls on a
// set it returns to, must build that order for every set. A twin runs
// the same script access by access, its memos forgotten before each
// access (a bump of every level's generation) and its rings never read,
// and must end every step in the same state, stamps and dirty bits
// included, with the same counts and cycles: a memo that vouches for
// more than its line's state shows there.
func TestVictimRingMatchesStamps(t *testing.T) {
	base := memp.Addr(0x40000)
	cfgs := []Config{ // 32, 64 and 256 lines
		{Name: "L1d", Size: 2048, Ways: 4, Latency: 2},
		{Name: "L2", Size: 4096, Ways: 4, Latency: 15},
		{Name: "LLC", Size: 16384, Ways: 8, Latency: 30},
	}
	for _, ds := range []int{160, 320} {
		for _, pol := range []Policy{LRU, FIFO, Random} {
			name := fmt.Sprintf("ds%d/%v", ds, pol)
			mk := func() *Hierarchy {
				cfgs := slices.Clone(cfgs)
				for i := range cfgs {
					cfgs[i].Policy = pol
					if pol == Random && i > 0 { // a Random L1 over LRU levels
						cfgs[i].Policy = LRU
					}
				}
				return NewHierarchy(100, cfgs...)
			}
			a, b := mk(), mk() // a batches, b runs the memo-free scalar loop
			forget := func() {
				for _, c := range b.levels {
					c.gen++
				}
			}
			rng := rand.New(rand.NewSource(int64(ds) + int64(pol)))
			var pinned []struct {
				level int
				la    memp.Addr
			}
			kept := make([]int, a.Levels())
			var pass, outer, memoHits uint64 // a's path counts, which Reset clears
			tally := func() {
				pass, outer, memoHits = pass+a.Path.PassLines, outer+a.Path.OuterMisses, memoHits+a.Path.OuterMemoHits
			}
			for step := 0; step < 500; step++ {
				label := fmt.Sprintf("%s step %d", name, step)
				la := base + memp.Addr(rng.Intn(ds)*memp.LineSize)
				switch op := rng.Intn(20); {
				case op < 11: // a batch over a window of the DS
					n := 1 + rng.Intn(ds)
					first := base + memp.Addr(rng.Intn(ds-n+1)*memp.LineSize)
					flags, rmw := FlagNoLRU, false
					switch rng.Intn(4) {
					case 1:
						flags |= FlagWrite
					case 2:
						rmw = true
					case 3: // LRU-updating, loads or pairs: access by access
						flags, rmw = 0, rng.Intn(2) == 0
					}
					hits, miss := a.AccessBatch(1, first, memp.LineSize, n, flags, rmw)
					want := 0
					for j := 0; j < n; j++ {
						addr := first + memp.Addr(j*memp.LineSize)
						forget()
						want += b.AccessFrom(1, addr, flags).Cycles
						if rmw {
							forget()
							want += b.AccessFrom(1, addr, flags|FlagWrite).Cycles
						}
					}
					if got := hits*a.Level(1).Latency() + miss; got != want {
						t.Fatalf("%s: batch of %d charged %d cycles, scalar %d", label, n, got, want)
					}
				case op < 14: // a single access, which may move an LRU stamp
					flags := Flags(0)
					if op == 13 {
						flags = FlagWrite
					}
					forget()
					a.Access(la, flags)
					b.Access(la, flags)
				case op < 16:
					forget()
					a.Flush(la)
					b.Flush(la)
				case op == 16: // the line leaves the L1 only
					for _, h := range []*Hierarchy{a, b} {
						if s, w := h.Level(1).find(la); w >= 0 {
							h.Level(1).vacate(s, w)
						}
					}
				case op < 19: // pin a line, or release the oldest pin
					if len(pinned) > 0 && rng.Intn(2) == 0 {
						p := pinned[0]
						pinned = pinned[1:]
						a.Level(p.level).Unpin(p.la)
						b.Level(p.level).Unpin(p.la)
						break
					}
					level := 1 + rng.Intn(a.Levels())
					if a.Level(level).Pin(la) != b.Level(level).Pin(la) {
						t.Fatalf("%s: the twins disagree on whether L%d holds %#x", label, level, la)
					}
					pinned = append(pinned, struct {
						level int
						la    memp.Addr
					}{level, la})
				default:
					if rng.Intn(4) == 0 {
						tally()
						a.Reset()
						b.Reset()
						pinned = nil
					}
				}
				if a.Stats != b.Stats {
					t.Fatalf("%s: hierarchy stats %+v, twin %+v", label, a.Stats, b.Stats)
				}
				for i := 1; i <= a.Levels(); i++ {
					if sa, sb := a.Level(i).Stats, b.Level(i).Stats; sa != sb {
						t.Fatalf("%s: L%d stats %+v, twin %+v", label, i, sa, sb)
					}
					if !a.SnapshotLevel(i).Equal(b.SnapshotLevel(i)) {
						t.Fatalf("%s: L%d contents differ from the twin's", label, i)
					}
					kept[i-1] += checkRing(t, fmt.Sprintf("%s: L%d", label, i), a.Level(i))
				}
			}
			if tally(); pass == 0 || outer == 0 || ds < 256 && memoHits == 0 {
				t.Fatalf("%s: %d pass lines, %d outer misses, %d outer memo hits; want the pass, its outer step and, on the DS the LLC holds, its memo hits",
					name, pass, outer, memoHits)
			}
			for i, k := range kept { // a level whose sets the DS fills
				if c := a.Level(i + 1); c.ring != nil && c.Sets()*c.Ways() < ds && k < 500 {
					t.Fatalf("%s: L%d kept a ring in %d checked sets, want at least 500", name, i+1, k)
				}
			}
		}
	}
}

// checkRing fails unless every set of c that keeps a ring lists its
// ways from ringAt in victimOrder's order, naming the way victim picks
// when no line of c is pinned, and sortRing builds that order for every
// set; it returns how many sets keep a ring. A cache without a ring
// passes.
func checkRing(t *testing.T, label string, c *Cache) (kept int) {
	t.Helper()
	if c.ring == nil {
		return 0
	}
	ways := c.Ways()
	for s := 0; s < c.Sets(); s++ {
		want := victimOrder(c, s)
		ring := c.ring[s*ways : (s+1)*ways]
		if r := int(c.ringAt[s]); r != 0 {
			kept++
			got := append(slices.Clone(ring[r-1:]), ring[:r-1]...)
			if !slices.Equal(got, want) {
				t.Fatalf("%s set %d: kept ring %v, victim order %v", label, s, got, want)
			}
			if v := c.victim(s); c.pinnedAll == 0 && v != int(want[0]) {
				t.Fatalf("%s set %d: ring names way %d, victim picks %d", label, s, want[0], v)
			}
		}
		saved, at := slices.Clone(ring), c.ringAt[s]
		c.sortRing(s)
		if !slices.Equal(ring, want) || c.ringAt[s] != 1 {
			t.Fatalf("%s set %d: sortRing built %v from %d, victim order %v", label, s, ring, c.ringAt[s], want)
		}
		copy(ring, saved)
		c.ringAt[s] = at
	}
	return kept
}

// victimOrder sorts set s's ways into the order victim takes them:
// invalid ways by index, then valid ways oldest stamp first, a tie
// going to the higher way.
func victimOrder(c *Cache, s int) []uint8 {
	base := s * c.Ways()
	order := make([]uint8, c.Ways())
	for w := range order {
		order[w] = uint8(w)
	}
	slices.SortFunc(order, func(x, y uint8) int {
		vx, vy := c.tags[base+int(x)] != noTag, c.tags[base+int(y)] != noTag
		switch {
		case vx != vy:
			if vx {
				return 1
			}
			return -1
		case !vx:
			return cmp.Compare(x, y)
		case c.stamps[base+int(x)] != c.stamps[base+int(y)]:
			return cmp.Compare(c.stamps[base+int(x)], c.stamps[base+int(y)])
		}
		return cmp.Compare(y, x)
	})
	return order
}
