package memp

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Memory is a sparse simulated physical memory, stored page-by-page so
// that gigabyte-scale address spaces cost only what is actually touched.
// All multi-byte accesses are little-endian, matching x86-64.
//
// Memory is purely functional state: it carries no timing. Timing lives
// in the cache hierarchy and machine model.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// tlb is a direct-mapped translation cache in front of pages, one
	// entry per page index modulo tlbSlots: simulator traffic is
	// strongly page-local, but a sweep that reads its DS page by page
	// while the workload touches its own arrays alternates among a few
	// pages, which a single memoized page would miss on every switch.
	// Pages are never unmapped, so no entry can go stale. A Memory
	// belongs to one Machine and is not safe for concurrent use — the
	// harness gives every goroutine its own machine.
	tlb [tlbSlots]tlbEntry

	// PageHits and PageMisses count translation-cache outcomes on the
	// translation fast path (hit = the page's entry matched; miss = fell
	// through to the map). Plain increments — a Memory is single-owner,
	// and the observability layer harvests these after a run, so nothing
	// here allocates or synchronizes.
	PageHits   uint64
	PageMisses uint64
}

// tlbSlots is the number of entries in a Memory's translation cache.
const tlbSlots = 64

// tlbEntry is one translation-cache entry: the page at index idx, or
// nothing while page is nil.
type tlbEntry struct {
	idx  uint64
	page *[PageSize]byte
}

// NewMemory returns an empty memory; every byte reads as zero until
// written, like freshly-mapped pages.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

func (m *Memory) page(idx uint64, create bool) *[PageSize]byte {
	e := &m.tlb[idx%tlbSlots]
	if e.page != nil && e.idx == idx {
		m.PageHits++
		return e.page
	}
	m.PageMisses++
	p := m.pages[idx]
	if p == nil && create {
		p = new([PageSize]byte)
		m.pages[idx] = p
	}
	if p != nil {
		e.idx, e.page = idx, p
	}
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr Addr) byte {
	p := m.page(addr.PageIndex(), false)
	if p == nil {
		return 0
	}
	return p[addr.PageOffset()]
}

// Write8 stores b at addr.
func (m *Memory) Write8(addr Addr, b byte) {
	m.page(addr.PageIndex(), true)[addr.PageOffset()] = b
}

// Read fills dst with the bytes starting at addr. Reads may span pages.
func (m *Memory) Read(addr Addr, dst []byte) {
	for len(dst) > 0 {
		off := addr.PageOffset()
		n := PageSize - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if p := m.page(addr.PageIndex(), false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += Addr(n)
	}
}

// Write stores src starting at addr. Writes may span pages.
func (m *Memory) Write(addr Addr, src []byte) {
	for len(src) > 0 {
		off := addr.PageOffset()
		n := PageSize - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		copy(m.page(addr.PageIndex(), true)[off:off+n], src[:n])
		src = src[n:]
		addr += Addr(n)
	}
}

// Read16/Read32/Read64 and the matching writes are the word-granular
// accessors the machine model uses; they tolerate unaligned addresses.
// Words that fit inside one page — all but one in four thousand at
// worst — skip the span loop and decode straight out of the page.

// Read16 returns the little-endian 16-bit word at addr.
func (m *Memory) Read16(addr Addr) uint16 {
	if off := addr.PageOffset(); off <= PageSize-2 {
		if p := m.page(addr.PageIndex(), false); p != nil {
			return binary.LittleEndian.Uint16(p[off:])
		}
		return 0
	}
	var b [2]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// Read32 returns the little-endian 32-bit word at addr.
func (m *Memory) Read32(addr Addr) uint32 {
	if off := addr.PageOffset(); off <= PageSize-4 {
		if p := m.page(addr.PageIndex(), false); p != nil {
			return binary.LittleEndian.Uint32(p[off:])
		}
		return 0
	}
	var b [4]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Read64 returns the little-endian 64-bit word at addr.
func (m *Memory) Read64(addr Addr) uint64 {
	if off := addr.PageOffset(); off <= PageSize-8 {
		if p := m.page(addr.PageIndex(), false); p != nil {
			return binary.LittleEndian.Uint64(p[off:])
		}
		return 0
	}
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write16 stores a little-endian 16-bit word at addr.
func (m *Memory) Write16(addr Addr, v uint16) {
	if off := addr.PageOffset(); off <= PageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr.PageIndex(), true)[off:], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	m.Write(addr, b[:])
}

// Write32 stores a little-endian 32-bit word at addr.
func (m *Memory) Write32(addr Addr, v uint32) {
	if off := addr.PageOffset(); off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr.PageIndex(), true)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(addr, b[:])
}

// Write64 stores a little-endian 64-bit word at addr.
func (m *Memory) Write64(addr Addr, v uint64) {
	if off := addr.PageOffset(); off <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.page(addr.PageIndex(), true)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(addr, b[:])
}

// Reset restores the memory to its freshly-mapped state — every byte
// reads as zero again — without releasing the page buffers: the pages
// stay mapped, zeroed in place, so a pooled machine re-running a
// deterministic workload (same allocator, same addresses) touches no
// new memory at all. The only observable difference from a fresh
// Memory is TouchedPages, which keeps reporting the union of pages
// ever written; reads and writes behave identically either way.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = [PageSize]byte{}
	}
	m.ResetStats()
}

// ResetStats zeroes the translation-cache counters without touching contents,
// so pooled machines never leak observation between sweep points.
func (m *Memory) ResetStats() {
	m.PageHits = 0
	m.PageMisses = 0
}

// TouchedPages returns the sorted indices of pages that have been
// written, mainly for tests and debugging dumps.
func (m *Memory) TouchedPages() []uint64 {
	out := make([]uint64, 0, len(m.pages))
	for idx := range m.pages {
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Region is a named, page-aligned chunk of the simulated address space
// handed out by the Allocator. Workloads address their arrays through
// regions, which keeps experiment address maps reproducible.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr Addr) bool { return addr >= r.Base && addr < r.End() }

// Allocator hands out page-aligned regions from a monotonically growing
// simulated address space. There is no free: experiments build a fresh
// machine per run, which keeps address assignment deterministic.
type Allocator struct {
	next    Addr
	regions []Region
}

// AllocBase is where allocation starts; the low pages are left unused so
// that address 0 never aliases real data (and so a zero Addr is visibly
// "unallocated" in traces).
const AllocBase Addr = 0x10000

// NewAllocator returns an allocator starting at AllocBase.
func NewAllocator() *Allocator { return &Allocator{next: AllocBase} }

// Reset rewinds the allocator to its initial state, forgetting every
// region while keeping the backing array. A pooled machine's next run
// re-allocates the same regions at the same addresses, which is what
// keeps pooled runs bit-identical to fresh-machine runs.
func (a *Allocator) Reset() {
	a.next = AllocBase
	a.regions = a.regions[:0]
}

// Alloc reserves size bytes, page-aligned, and remembers the region
// under name. Size zero is allowed and yields an empty region.
func (a *Allocator) Alloc(name string, size uint64) Region {
	base := a.next
	pages := (size + PageSize - 1) / PageSize
	a.next += Addr(pages * PageSize)
	r := Region{Name: name, Base: base, Size: size}
	a.regions = append(a.regions, r)
	return r
}

// AllocLines reserves n cache lines (page-aligned like Alloc).
func (a *Allocator) AllocLines(name string, n uint64) Region {
	return a.Alloc(name, n*LineSize)
}

// Lookup finds the region containing addr, for trace annotation.
func (a *Allocator) Lookup(addr Addr) (Region, bool) {
	for _, r := range a.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// MustRegion returns the named region or panics; experiment code uses it
// for regions it allocated itself, where absence is a programming error.
func (a *Allocator) MustRegion(name string) Region {
	for _, r := range a.regions {
		if r.Name == name {
			return r
		}
	}
	panic(fmt.Sprintf("memp: no region named %q", name))
}
