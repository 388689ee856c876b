package cache

import "ctbia/internal/memp"

// EventKind enumerates the cache signals the hierarchy publishes. These
// are exactly the signals the paper's BIA snoops (Fig. 5: "all cache
// hit/invalid signal from cache tag will also go to BIA"), plus EvAccess
// for the per-set telemetry behind the paper's security test (Fig. 10).
type EventKind uint8

// Event kinds.
const (
	// EvAccess fires for every demand probe of a level, hit or miss.
	EvAccess EventKind = iota
	// EvHit fires when a probe finds the line; Dirty carries the
	// line's current dirty bit (the BIA mirrors it).
	EvHit
	// EvFill fires when a line is installed at a level.
	EvFill
	// EvEvict fires when a line leaves a level (replacement victim or
	// explicit flush); Dirty reports whether a writeback happened.
	EvEvict
	// EvDirty fires when a line's dirty bit goes 0 -> 1.
	EvDirty
)

// String names the kind for traces.
func (k EventKind) String() string {
	switch k {
	case EvAccess:
		return "access"
	case EvHit:
		return "hit"
	case EvFill:
		return "fill"
	case EvEvict:
		return "evict"
	case EvDirty:
		return "dirty"
	default:
		return "event?"
	}
}

// Event is one cache signal.
type Event struct {
	// Level is the 1-based cache level (1 = L1d).
	Level int
	// Kind says what happened.
	Kind EventKind
	// Line is the line-aligned address involved.
	Line memp.Addr
	// Set is the set index at that level.
	Set int
	// Write marks store accesses (EvAccess only).
	Write bool
	// Dirty carries the dirty bit where relevant (EvHit, EvEvict).
	Dirty bool
	// Probe marks events generated by CTLoad/CTStore tag probes.
	// Probes change no cache state (no fill, no LRU update, no dirty
	// transition), so they are invisible to cache-observing attackers;
	// telemetry that models the attacker's view skips them, while the
	// BIA snoop uses them (the hit wire of Fig. 5 is internal to the
	// cache, not an architectural observable).
	Probe bool
}

// Listener receives cache events. The BIA, the security telemetry and
// test harnesses all implement this.
type Listener interface {
	CacheEvent(ev Event)
}

// KindFilter is an optional Listener refinement: a listener that only
// consumes some event kinds can declare so, and the hierarchy sends it
// no other kind and does not even construct events no subscriber
// wants. EvAccess fires on every probe of every level, so a BIA-only
// hierarchy (the common case in the experiments) saves an
// allocation-free but branchy emit per probe.
type KindFilter interface {
	// WantsEvent reports whether the listener consumes events of kind k.
	// It must be constant over the listener's lifetime (the hierarchy
	// caches the answer at Subscribe time).
	WantsEvent(k EventKind) bool
}

// LevelFilter is the per-level analogue of KindFilter: a listener wired
// to one cache level (the BIA monitors exactly one) can declare so, and
// the hierarchy sends it no other level's events and skips event
// construction for levels nobody wants — e.g. the L2/LLC hit and fill
// events behind every L1 miss of a sweep on a BIA-in-L1 machine. Must
// likewise be constant after Subscribe.
type LevelFilter interface {
	// WantsLevel reports whether the listener consumes events from the
	// given 1-based cache level.
	WantsLevel(level int) bool
}

// BatchListener is an optional Listener refinement that takes the L1's
// events in bulk (see AccessBatch). The L1 takes bulk delivery only
// while every subscriber that wants the L1 is a BatchListener that
// wants the L1 alone and no EvAccess; a listener that wants another
// level, or EvAccess, keeps the L1 on the per-event path.
//
// CacheBatch must have exactly the effect of CacheEvent on each of
// snoops' events at the given level, in order. The batch pass sends
// each the batch's L1 hits, fills, evictions and dirty edges, in the
// order the batch's accesses would emit them one by one, in chunks of
// at most 256: one call per chunk, the batch's last chunk sent before
// the batch returns. A chunk holds these four kinds whatever the
// listener's KindFilter says; it must ignore the kinds it does not
// want. The slice is the hierarchy's and is reused: the listener must
// not keep it.
//
// CacheRun is the closed-form charge of an all-hit line run: it must
// have exactly the effect of mult EvHit events, each with Dirty set, on
// each of the n consecutive lines from the line-aligned first at the
// given level. It is sent only to a listener that wants EvHit events.
type BatchListener interface {
	CacheBatch(level int, snoops []Snoop)
	CacheRun(level int, first memp.Addr, n, mult int)
}

// Snoop is one event of a batch as the batch port sends it: an EvHit,
// EvFill, EvEvict or EvDirty of a line, with the line's dirty bit for
// EvHit and EvEvict as Event.Dirty has it.
type Snoop struct {
	Line  memp.Addr
	Kind  EventKind
	Dirty bool
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(ev Event)

// CacheEvent implements Listener.
func (f ListenerFunc) CacheEvent(ev Event) { f(ev) }
