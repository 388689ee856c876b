package cpu

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// The sweep primitives and ExecTrace charge through the same batch
// code, so comparing a direct run with its replay no longer tests that
// code against anything. These tests keep the per-line loop the
// primitives replaced as the reference: twin machines run the same
// script, one through SweepLoad/SweepRMW, the other through OpStream
// plus LoadModeW/StoreModeW per iteration, and every observable must
// match.

// sweepCall is one sweep of the script. With lanes set it is a vector
// sweep (SweepVec): pre ops once per lanes lines, before each line whose
// index counted from first is a multiple of lanes. With store set it is
// a sweep of stores, which no primitive makes but replay charges for a
// recorded run of them.
type sweepCall struct {
	base         memp.Addr
	stride       int64
	n, pre       int
	mode         AccessMode
	rmw, store   bool
	first, lanes int
}

// primitiveSweep runs c through the primitives.
func primitiveSweep(m *Machine, c sweepCall) {
	switch {
	case c.store:
		// What SweepLoad does, with the write flag: replay's charge for
		// a KRun record of stores.
		f := m.modeFlags(c.mode) | cache.FlagWrite
		m.recordSweep(c.base, c.stride, 0, c.n, 1, c.pre, f, false)
		m.streamOps(c.pre * c.n)
		m.execRun(c.base, c.stride, c.n, f, m.Hier.BatchSafe())
	case c.lanes > 0:
		m.SweepVec(c.base, c.first, c.n, c.lanes, c.pre, c.mode, c.rmw)
	case c.rmw:
		m.SweepRMW(c.base, c.stride, c.n, c.pre, c.mode)
	default:
		m.SweepLoad(c.base, c.stride, c.n, c.pre, c.mode)
	}
}

// scalarSweep is the reference: the per-line loop the primitives
// replaced.
func scalarSweep(m *Machine, c sweepCall) {
	addr := c.base
	for k := 0; k < c.n; k++ {
		if c.lanes == 0 || (c.first+k)%c.lanes == 0 {
			m.OpStream(c.pre)
		}
		if c.store {
			m.StoreModeW(addr, uint64(k), W64, c.mode)
			addr += memp.Addr(c.stride)
			continue
		}
		v := m.LoadModeW(addr, W64, c.mode)
		if c.rmw {
			m.StoreModeW(addr, v, W64, c.mode)
		}
		addr += memp.Addr(c.stride)
	}
}

// tinyConfig is a three-level machine small enough that a 64-line sweep
// hits, misses and evicts at every level.
func tinyConfig(p cache.Policy) Config {
	return Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 512, Ways: 2, Latency: 2, Policy: p, Seed: 1},
			{Name: "L2", Size: 2048, Ways: 4, Latency: 9, Policy: p, Seed: 2},
			{Name: "LLC", Size: 4096, Ways: 4, Latency: 20, Policy: p, Seed: 3},
		},
		DRAMLatency: 60,
		BIA:         bia.Config{Entries: 8, Ways: 2, Latency: 3},
	}
}

// eventLog records every event it is sent; wantAccess picks whether it
// asks for EvAccess (which sends sweeps down the scalar branch), and
// level, unless 0, the one cache level it asks for. It keeps whatever
// the bus sends it, so the twins hold the bus to the filters.
type eventLog struct {
	wantAccess bool
	level      int
	events     []cache.Event
}

func (l *eventLog) CacheEvent(ev cache.Event) { l.events = append(l.events, ev) }

func (l *eventLog) WantsEvent(k cache.EventKind) bool { return k != cache.EvAccess || l.wantAccess }

func (l *eventLog) WantsLevel(level int) bool { return l.level == 0 || l.level == level }

// batchLog is an eventLog that also takes the pass's batches and the
// closed form's runs, as the BIA does, logging them as the events they
// stand for. Its events carry no set index, which a batch does not
// send, so the scalar twin's match the primitive twin's.
type batchLog struct{ eventLog }

func (l *batchLog) CacheEvent(ev cache.Event) {
	ev.Set = 0
	l.events = append(l.events, ev)
}

func (l *batchLog) CacheBatch(level int, snoops []cache.Snoop) {
	for _, sn := range snoops {
		l.events = append(l.events, cache.Event{Level: level, Kind: sn.Kind, Line: sn.Line, Dirty: sn.Dirty})
	}
}

func (l *batchLog) CacheRun(level int, first memp.Addr, n, mult int) {
	for k := 0; k < n; k++ {
		for range mult {
			l.events = append(l.events, cache.Event{Level: level, Kind: cache.EvHit, Line: first + memp.Addr(k*memp.LineSize), Dirty: true})
		}
	}
}

// sweepRegion is where the script's sweeps start: page-aligned, so the
// BIA sees whole pages.
const sweepRegion = memp.Addr(0x40000)

// scriptLine is line i of sweepRegion. Line i sits in set i%4 of the
// tiny L1 and, as sweepRegion is 8-line aligned, in set i%8 of its L2.
func scriptLine(i int) memp.Addr { return sweepRegion + memp.Addr(i*memp.LineSize) }

// scriptStep is one step of a twin script: a sweep, or, when act is
// set, an action both twins take alike at addr.
type scriptStep struct {
	call  sweepCall
	act   action
	addr  memp.Addr
	want  bool // actSubscribe: the listener asks for EvAccess
	level int  // actSubscribe: the one level it asks for, 0 for all
	batch bool // actSubscribe: the listener takes batches (batchLog)
}

// action is what a script step does instead of a sweep.
type action uint8

const (
	actSweep       action = iota
	actLoad               // Load64(addr)
	actStore              // Store64(addr, ...)
	actStreamLoad         // one streaming load at addr
	actFlush              // Hier.Flush(addr)
	actPrefetch           // Hier.PrefetchLine(addr)
	actL2Access           // Hier.AccessFrom(2, addr, 0): behind the L1's back
	actCTLoad             // CTLoad64(addr) on a BIA machine, nothing without
	actCTStore            // CTStore64(addr, ...) likewise
	actSubscribe          // subscribe a fresh eventLog
	actUnsubscribe        // drop the last listener the script subscribed
	actResetStats         // Machine.ResetStats
	actReset              // Machine.Reset, then the scenario's setup again
	actPin                // pin addr's line in the L1, if it is there
	numActions
)

// twin is one machine's side of a twin script.
type twin struct {
	m     *Machine
	sweep func(*Machine, sweepCall)
	// setup is the scenario's, run again after each actReset; may be nil.
	setup func(*Machine)
	// logs holds every listener the script subscribed, in order; subs
	// counts those still attached.
	logs []*eventLog
	subs int
}

// step takes one script step.
func (tw *twin) step(st scriptStep) {
	m := tw.m
	switch st.act {
	case actSweep:
		tw.sweep(m, st.call)
	case actLoad:
		m.Load64(st.addr)
	case actStore:
		m.Store64(st.addr, uint64(st.addr))
	case actStreamLoad:
		m.LoadModeW(st.addr, W64, ModeStreaming)
	case actFlush:
		m.Hier.Flush(st.addr)
	case actPrefetch:
		m.Hier.PrefetchLine(st.addr)
	case actL2Access:
		m.Hier.AccessFrom(2, st.addr, 0)
	case actCTLoad:
		if m.BIA != nil {
			m.CTLoad64(st.addr)
		}
	case actCTStore:
		if m.BIA != nil {
			m.CTStore64(st.addr, uint64(st.addr))
		}
	case actPin:
		m.Hier.Level(1).Pin(st.addr)
	case actSubscribe:
		l := &eventLog{wantAccess: st.want, level: st.level}
		var sub cache.Listener = l
		if st.batch {
			b := &batchLog{eventLog: *l}
			l, sub = &b.eventLog, b
		}
		tw.logs = append(tw.logs, l)
		tw.subs++
		m.Hier.Subscribe(sub)
	case actUnsubscribe:
		if tw.subs > 0 {
			tw.subs--
			m.Hier.TruncateListeners(m.Hier.ListenerCount() - 1)
		}
	case actResetStats:
		m.ResetStats()
	case actReset:
		m.Reset()
		tw.subs = 0
		if tw.setup != nil {
			tw.setup(m)
		}
	default:
		panic(fmt.Sprintf("script action %d", st.act))
	}
}

// sweepScript is the script both twins run: sweeps of every length and
// mode the strategies issue, a per-iteration op count past PreN's
// uint16, and plain accesses between them that dirty and evict lines;
// then repeatScript's runs. It starts and ends with the same resident
// run, so lines the L1's residency memo holds at the end of one pass
// meet the start of the next. Read-modify-write sweeps run without LRU
// updates, like every store sweep in the strategies (see SweepRMW).
func sweepScript(modes []AccessMode) []scriptStep {
	whole := scriptStep{call: sweepCall{base: sweepRegion, stride: memp.LineSize, n: 8, pre: 6, mode: modes[0]}}
	steps := []scriptStep{whole}
	pres := []int{0, 6, 7, 12, 1 << 17}
	for i, mode := range modes {
		for j, n := range []int{1, 3, 17, 64, 5, 17} {
			off := memp.Addr(8 * ((i + j) % 8))
			c := sweepCall{
				base:   sweepRegion + memp.Addr((i*5+j)*3*memp.LineSize) + off,
				stride: memp.LineSize,
				n:      n,
				pre:    pres[(i+j)%len(pres)],
				mode:   mode,
				rmw:    j%2 == 1 && mode&ModeNoLRU != 0,
			}
			if j == 5 {
				c.first, c.lanes, c.rmw = i+j, 4, mode&ModeNoLRU != 0
			}
			ci := len(steps) / 4
			steps = append(steps,
				// Install the page's entry so the sweep's snoops land.
				scriptStep{act: actCTLoad, addr: c.base},
				scriptStep{call: c},
				scriptStep{act: actStore, addr: scriptLine(7 * ci % 97)},
				scriptStep{act: actLoad, addr: scriptLine(11 * ci % 89)})
		}
	}
	steps = append(steps, repeatScript(modes)...)
	// A NoLRU sweep can evict its own earlier lines, so the run settles
	// in the L1 only by its third pass.
	return append(steps, whole, whole, whole)
}

// repeatScript repeats runs the tiny L1 holds, so the L1's residency
// memo serves them: back to back, and across each event that may end a
// line's residency or the closed form's other conditions. The scenario
// decides which events do: a fill into the pinned-full set is dropped,
// and an L2 eviction reaches the L1 only when the hierarchy is
// inclusive. A listener is subscribed for one sweep.
func repeatScript(modes []AccessMode) []scriptStep {
	// Overfill line 0's L2 set behind the L1's back.
	var overfill []scriptStep
	for k := 1; k <= 8; k++ {
		overfill = append(overfill, scriptStep{act: actL2Access, addr: scriptLine(8 * k)})
	}
	seps := [][]scriptStep{
		nil, // back to back
		{{act: actLoad, addr: scriptLine(9)}},
		{{act: actLoad, addr: scriptLine(8)}}, // L1 set 0
		{{act: actFlush, addr: scriptLine(2)}},
		{{act: actPrefetch, addr: scriptLine(10)}},
		overfill,
		{{act: actResetStats}},
	}
	var steps []scriptStep
	for _, mode := range modes {
		runs := []sweepCall{
			{base: scriptLine(0), n: 8, pre: 6},                          // the whole L1
			{base: scriptLine(4) + 24, n: 3, pre: 7, rmw: true},          // part of it
			{base: scriptLine(1) + 8, n: 5, pre: 14, first: 3, lanes: 4}, // a vector sweep
			{base: scriptLine(1) + 8, n: 5, pre: 16, first: 3, lanes: 4, rmw: true},
		}
		for _, r := range runs {
			r.stride, r.mode = memp.LineSize, mode
			if r.rmw && mode&ModeNoLRU == 0 {
				continue
			}
			run := scriptStep{call: r}
			for _, sep := range seps {
				steps = append(steps, run, run)
				steps = append(steps, sep...)
				steps = append(steps, run, run)
			}
			steps = append(steps, run, run, scriptStep{act: actSubscribe}, run,
				scriptStep{act: actUnsubscribe}, run, run)
		}
		if mode&ModeNoLRU == 0 {
			continue
		}
		// A load sweep leaves a clean resident run, which a snooped load
		// sweep must take hit by hit and the store sweep over it must
		// dirty line by line.
		for _, lanes := range []int{0, 4} {
			clean := sweepCall{base: scriptLine(12), stride: memp.LineSize, n: 4, pre: 6, mode: mode, lanes: lanes}
			dirty := clean
			dirty.rmw = true
			for i := 12; i < 16; i++ {
				steps = append(steps, scriptStep{act: actFlush, addr: scriptLine(i)})
			}
			steps = append(steps, scriptStep{call: clean}, scriptStep{call: clean}, scriptStep{call: clean},
				scriptStep{call: dirty}, scriptStep{call: dirty}, scriptStep{call: clean})
		}
	}
	return steps
}

// thrashScript sweeps a DS larger than the tiny L1 and smaller than its
// L2 over and over, so that its lines miss the L1 and hit the L2, which
// is what the probe-free pass and the L2's residency memo charge: whole
// sweeps of loads, stores and load+store pairs (the pairs leave dirty
// victims), windows of it, one of which hits a line that its own last
// miss then evicts, and sub-runs shorter than the L1's set count. Between them come the events that end an L2 line's residency
// or the pass's conditions: an L2 eviction behind the L1's back, a
// Flush, a prefetch, a pinned line, and a plain listener at the L2 and
// at the LLC.
func thrashScript(modes []AccessMode) []scriptStep {
	const first, lines = 120, 20 // across a page boundary, 5 lines to an L1 set
	var steps []scriptStep
	for _, mode := range modes {
		noLRU := mode&ModeNoLRU != 0
		sweep := func(k, n int, rmw, store bool) scriptStep {
			if rmw && !noLRU {
				rmw, store = false, true
			}
			return scriptStep{call: sweepCall{base: scriptLine(first + k), stride: memp.LineSize, n: n, pre: 6, mode: mode, rmw: rmw, store: store}}
		}
		load, store, pairs := sweep(0, lines, false, false), sweep(0, lines, false, true), sweep(0, lines, true, false)
		// Loads miss to DRAM once, then hit the L2 and are noted there;
		// the first stores find the L2 copies clean and dirty them.
		steps = append(steps, load, load, load, load, store, store, store, pairs, pairs, pairs, load)
		for _, k := range []int{4, 9} {
			steps = append(steps, sweep(k, lines-k, false, false), sweep(k, lines-k, true, false),
				sweep(k, 1, false, false), sweep(k, 2, true, false), sweep(k+1, 3, false, true))
		}
		// Lines 8-15 fill the L1; the next window hits them and its last
		// line's miss evicts line 8, hit on the same page in the same
		// call, which the one-line sub-run must then miss.
		for _, rmw := range []bool{false, true} {
			steps = append(steps, sweep(8, 8, rmw, false), sweep(8, 9, rmw, false), sweep(8, 1, rmw, false))
		}
		steps = append(steps, sweep(0, 3, false, false), sweep(1, 2, true, false), pairs)
		// Overfill the L2 set of the DS's first line behind the L1's back.
		for j := 3; j <= 7; j++ {
			steps = append(steps, scriptStep{act: actL2Access, addr: scriptLine(first + 8*j)})
		}
		steps = append(steps, load, load, pairs,
			scriptStep{act: actFlush, addr: scriptLine(first + 5)}, pairs, store,
			scriptStep{act: actPrefetch, addr: scriptLine(first + lines)}, load, load,
			scriptStep{act: actPin, addr: scriptLine(first + lines - 1)}, pairs, load,
			scriptStep{act: actFlush, addr: scriptLine(first + lines - 1)}, pairs, pairs)
		for _, level := range []int{2, 3} {
			steps = append(steps, scriptStep{act: actSubscribe, level: level}, load, store, pairs,
				scriptStep{act: actUnsubscribe}, load, pairs)
		}
	}
	return steps
}

// dramScript sweeps a DS larger than every level of the tiny machine,
// so that its lines miss the L1, the L2 and the LLC and each miss fills
// every level from DRAM: whole sweeps of loads, stores and load+store
// pairs, and windows and sub-runs of it shorter than the L1's set
// count, as Alg. 2/3's fetch runs are. The DS's pages get BIA entries
// first, so that a BIA at the L1 snoops every fill and eviction.
// Listeners come and go between the sweeps: a plain one at the L2 and
// at the LLC, one at the L1 that takes batches (over lines it holds
// clean, then dirty), and one that takes batches but watches every
// level.
func dramScript(modes []AccessMode) []scriptStep {
	const first, lines = 150, 80 // across a page boundary; the LLC holds 64
	var steps []scriptStep
	for _, mode := range modes {
		noLRU := mode&ModeNoLRU != 0
		sweep := func(k, n int, rmw, store bool) scriptStep {
			if rmw && !noLRU {
				rmw, store = false, true
			}
			return scriptStep{call: sweepCall{base: scriptLine(first + k), stride: memp.LineSize, n: n, pre: 6, mode: mode, rmw: rmw, store: store}}
		}
		load, store, pairs := sweep(0, lines, false, false), sweep(0, lines, false, true), sweep(0, lines, true, false)
		steps = append(steps,
			scriptStep{act: actCTLoad, addr: scriptLine(first)},
			scriptStep{act: actCTLoad, addr: scriptLine(first + lines - 1)},
			load, load, store, pairs, load)
		for _, k := range []int{0, 37, 42, 70} {
			steps = append(steps, sweep(k, 3, false, false), sweep(k, 1, true, false), sweep(k+1, 2, false, true), sweep(k, 10, true, false))
		}
		for _, sub := range []scriptStep{
			{act: actSubscribe, level: 2},
			{act: actSubscribe, level: 3},
			{act: actSubscribe, level: 1, batch: true},
			{act: actSubscribe, batch: true},
		} {
			steps = append(steps, sub, load, store, pairs, sweep(5, 3, false, true), scriptStep{act: actUnsubscribe})
		}
		steps = append(steps, scriptStep{act: actSubscribe, level: 1, batch: true},
			sweep(0, 6, false, false), sweep(0, 6, false, false), sweep(0, 6, false, true), sweep(0, 6, false, true),
			sweep(0, 6, true, false), sweep(2, 6, true, false), scriptStep{act: actUnsubscribe})
		// Lines 0, 16, 32, 48 and 64 share an L1, an L2 and an LLC set;
		// lines 4 and 12 share line 0's L1 set only. Line 0, reloaded
		// into the L1 after 12, is the newer of its L1 set's two lines
		// but the oldest of its full LLC set. On an inclusive hierarchy
		// line 64's fill from DRAM evicts it from the LLC and so from
		// the L1, whose fill must then take line 0's way, not 12's.
		for _, l := range []int{0, 4, 12, 16, 32, 48, 64} {
			steps = append(steps, scriptStep{act: actFlush, addr: scriptLine(l)})
		}
		for _, l := range []int{0, 4, 12, 0} {
			steps = append(steps, scriptStep{act: actLoad, addr: scriptLine(l)})
		}
		for _, l := range []int{16, 32, 48} {
			steps = append(steps, scriptStep{act: actL2Access, addr: scriptLine(l)})
		}
		steps = append(steps, scriptStep{call: sweepCall{base: scriptLine(64), stride: memp.LineSize, n: 1, pre: 6, mode: mode}})
	}
	return steps
}

// runTwins drives both twins through the script in step, holding them
// to requireSameMachine after every step, and returns what their
// attached recorders took (nil without one).
func runTwins(t *testing.T, label string, a, b *twin, steps []scriptStep, oddParity, record bool) (opsA, opsB []trace.Op) {
	t.Helper()
	var recs [2]*trace.Recorder
	if record {
		for i, tw := range []*twin{a, b} {
			recs[i] = trace.NewRecorder(0)
			tw.m.SetRecorder(recs[i])
		}
	}
	if oddParity {
		// One streaming L1 hit leaves the dual-port parity odd.
		steps = append([]scriptStep{{act: actLoad, addr: sweepRegion}, {act: actStreamLoad, addr: sweepRegion}}, steps...)
	}
	for i, st := range steps {
		a.step(st)
		b.step(st)
		requireSameMachine(t, fmt.Sprintf("%s step %d", label, i), a.m, b.m)
	}
	if !record {
		return nil, nil
	}
	var ops [2][]trace.Op
	for i, tw := range []*twin{a, b} {
		tw.m.SetRecorder(nil)
		tr, ok := recs[i].Take()
		if !ok {
			panic("sweep script recording aborted")
		}
		ops[i] = tr.Ops
	}
	return ops[0], ops[1]
}

// requireSameLogs fails unless both twins' script listeners saw the
// same events.
func requireSameLogs(t *testing.T, label string, a, b *twin) {
	t.Helper()
	if len(a.logs) != len(b.logs) {
		t.Fatalf("%s: %d script listeners, want %d", label, len(a.logs), len(b.logs))
	}
	for i := range a.logs {
		if !slices.Equal(a.logs[i].events, b.logs[i].events) {
			t.Fatalf("%s: script listener %d saw %d events, want the scalar loop's %d", label, i, len(a.logs[i].events), len(b.logs[i].events))
		}
	}
}

// requireSameMachine fails unless a and b agree on every counter,
// every level's stats and contents (stamps included), the BIA's stats
// and bitmaps, and the core's carry state.
func requireSameMachine(t *testing.T, label string, a, b *Machine) {
	t.Helper()
	if a.C != b.C {
		t.Fatalf("%s: counters\nprimitive %+v\nscalar    %+v", label, a.C, b.C)
	}
	if a.opSlop != b.opSlop || a.streamParity != b.streamParity {
		t.Fatalf("%s: carry state %d/%d, want %d/%d", label, a.opSlop, a.streamParity, b.opSlop, b.streamParity)
	}
	if a.Hier.Stats != b.Hier.Stats {
		t.Fatalf("%s: hierarchy stats %+v, want %+v", label, a.Hier.Stats, b.Hier.Stats)
	}
	for i := 1; i <= a.Hier.Levels(); i++ {
		if sa, sb := a.Hier.Level(i).Stats, b.Hier.Level(i).Stats; sa != sb {
			t.Fatalf("%s: L%d stats %+v, want %+v", label, i, sa, sb)
		}
		if sa, sb := a.Hier.Level(i).SliceTraffic, b.Hier.Level(i).SliceTraffic; !slices.Equal(sa, sb) {
			t.Fatalf("%s: L%d slice traffic %v, want %v", label, i, sa, sb)
		}
		if !a.Hier.SnapshotLevel(i).Equal(b.Hier.SnapshotLevel(i)) {
			t.Fatalf("%s: L%d contents differ", label, i)
		}
	}
	if a.BIA == nil {
		return
	}
	if a.BIA.Stats != b.BIA.Stats {
		t.Fatalf("%s: BIA stats %+v, want %+v", label, a.BIA.Stats, b.BIA.Stats)
	}
	pages := a.BIA.Pages()
	if !slices.Equal(pages, b.BIA.Pages()) {
		t.Fatalf("%s: BIA pages %v, want %v", label, pages, b.BIA.Pages())
	}
	for _, p := range pages {
		addr := memp.Addr(p << uint(a.BIA.ChunkShift()))
		ea, da, _ := a.BIA.Peek(addr)
		eb, db, _ := b.BIA.Peek(addr)
		if ea != eb || da != db {
			t.Fatalf("%s: BIA bitmaps of %v %#x/%#x, want %#x/%#x", label, addr, ea, da, eb, db)
		}
	}
}

// The access modes the strategies' sweeps run under: the cached ones,
// and the Sec. 6.5 uncached ones.
var (
	streamingModes = []AccessMode{
		ModeNoLRU | ModeStreaming,
		ModeNoLRU | ModeBypassToBIA | ModeStreaming,
		ModeStreaming,
		ModeNoLRU,
	}
	uncachedModes = []AccessMode{
		ModeNoLRU | ModeBypassToBIA | ModeStreaming | ModeUncached,
		ModeStreaming | ModeUncached,
	}
)

// pinStartSet pins both ways of the L1 set the sweeps start in, so its
// fills are dropped and store re-probes miss.
func pinStartSet(m *Machine) {
	l1 := m.Hier.Level(1)
	stride := memp.Addr(l1.Sets() * memp.LineSize)
	for w := 0; w < l1.Ways(); w++ {
		a := sweepRegion + memp.Addr(w)*stride
		m.Hier.Access(a, 0)
		l1.Pin(a)
	}
}

func TestSweepMatchesScalarLoop(t *testing.T) {
	streaming, uncached := streamingModes, uncachedModes
	type scenario struct {
		name  string
		cfg   func() Config
		modes []AccessMode
		// setup runs on both twins after construction and after each
		// Reset.
		setup func(m *Machine)
		// log, when non-nil, makes a fresh listener per twin.
		log func() *eventLog
	}
	withBIA := func(level int) func() Config {
		return func() Config { c := tinyConfig(cache.LRU); c.BIALevel = level; return c }
	}
	scenarios := []scenario{
		{name: "lru", cfg: func() Config { return tinyConfig(cache.LRU) }, modes: streaming},
		{name: "fifo", cfg: func() Config { return tinyConfig(cache.FIFO) }, modes: streaming},
		{name: "random", cfg: func() Config { return tinyConfig(cache.Random) }, modes: streaming},
		{name: "inclusive", cfg: func() Config { c := tinyConfig(cache.LRU); c.Inclusive = true; return c }, modes: streaming},
		{name: "sliced", cfg: func() Config { c := tinyConfig(cache.LRU); c.Levels[0].Slices = 2; return c }, modes: streaming},
		{name: "pinned-full", cfg: func() Config { return tinyConfig(cache.LRU) }, modes: streaming,
			setup: pinStartSet},
		{name: "prefetch", cfg: func() Config { return tinyConfig(cache.LRU) }, modes: streaming,
			setup: func(m *Machine) { m.Hier.PrefetchNextLine = true }},
		{name: "bia-l1", cfg: withBIA(1), modes: streaming},
		{name: "bia-l1-fifo", cfg: func() Config { c := tinyConfig(cache.FIFO); c.BIALevel = 1; return c }, modes: streaming},
		{name: "bia-l1-random", cfg: func() Config { c := tinyConfig(cache.Random); c.BIALevel = 1; return c }, modes: streaming},
		{name: "bia-l2", cfg: withBIA(2), modes: streaming},
		{name: "bia-llc", cfg: withBIA(3), modes: streaming},
		{name: "uncached", cfg: withBIA(1), modes: uncached},
		{name: "listener", cfg: withBIA(1), modes: streaming,
			log: func() *eventLog { return &eventLog{} }},
		{name: "l2-listener", cfg: withBIA(1), modes: streaming,
			log: func() *eventLog { return &eventLog{level: 2} }},
		{name: "access-listener", cfg: withBIA(2), modes: append(streaming, uncached...),
			log: func() *eventLog { return &eventLog{wantAccess: true} }},
	}
	for _, sc := range scenarios {
		steps := slices.Concat(sweepScript(sc.modes), thrashScript(sc.modes), dramScript(sc.modes))
		for _, odd := range []bool{false, true} {
			for _, record := range []bool{false, true} {
				a := &twin{m: New(sc.cfg()), sweep: primitiveSweep}
				b := &twin{m: New(sc.cfg()), sweep: scalarSweep}
				var la, lb *eventLog
				if sc.log != nil {
					la, lb = sc.log(), sc.log()
				}
				prepare := func(tw *twin, l *eventLog) {
					tw.logs, tw.subs = nil, 0
					if l != nil {
						tw.m.Hier.Subscribe(l)
					}
					if sc.setup != nil {
						sc.setup(tw.m)
					}
				}
				// The script runs twice, the twins Reset in between:
				// what the L1's memo holds at the end of the first pass
				// must not outlive the Reset.
				for pass := 1; pass <= 2; pass++ {
					label := fmt.Sprintf("%s/odd=%v/record=%v/pass %d", sc.name, odd, record, pass)
					if pass > 1 {
						a.m.Reset()
						b.m.Reset()
					}
					prepare(a, la)
					prepare(b, lb)
					if a.m.Hier.BatchSafe() == (la != nil && la.wantAccess) {
						t.Fatalf("%s: BatchSafe = %v", label, a.m.Hier.BatchSafe())
					}
					opsA, opsB := runTwins(t, label, a, b, steps, odd, record)
					if !slices.Equal(opsA, opsB) {
						t.Fatalf("%s: recorded %d ops, want the scalar loop's %d", label, len(opsA), len(opsB))
					}
					if la != nil && !slices.Equal(la.events, lb.events) {
						t.Fatalf("%s: %d events, want the scalar loop's %d", label, len(la.events), len(lb.events))
					}
					requireSameLogs(t, label, a, b)
				}
			}
		}
	}
}

// TestLevelListenerSeesItsLevel holds the bus to a listener's level
// filter whatever path charges a sweep: a plain listener at the L2
// beside a BIA at the L1 must see the same stream, of L2 events only,
// from the closed form, the pass and the per-line loop as from the
// scalar loop, each of which charges the script's sweeps somewhere.
func TestLevelListenerSeesItsLevel(t *testing.T) {
	cfg := tinyConfig(cache.LRU)
	cfg.BIALevel = 1
	a := &twin{m: New(cfg), sweep: primitiveSweep}
	b := &twin{m: New(cfg), sweep: scalarSweep}
	la, lb := &eventLog{level: 2}, &eventLog{level: 2}
	a.m.Hier.Subscribe(la)
	b.m.Hier.Subscribe(lb)
	var closed, pass, loop bool
	for i, st := range slices.Concat(repeatScript(streamingModes), thrashScript(streamingModes)) {
		before := a.m.Hier.Path
		a.step(st)
		b.step(st)
		requireSameMachine(t, fmt.Sprintf("step %d", i), a.m, b.m)
		after := a.m.Hier.Path
		closed = closed || after.ClosedLines > before.ClosedLines
		pass = pass || after.PassSnoopedLines > before.PassSnoopedLines
		loop = loop || after.LoopLines > before.LoopLines
	}
	if !closed || !pass || !loop {
		t.Fatalf("paths taken: closed form %v, snooped pass %v, per-line loop %v; want all", closed, pass, loop)
	}
	if len(la.events) == 0 || !slices.Equal(la.events, lb.events) {
		t.Fatalf("the L2 listener saw %d events, want the scalar loop's %d", len(la.events), len(lb.events))
	}
	for _, ev := range la.events {
		if ev.Level != 2 {
			t.Fatalf("the L2 listener was sent %+v", ev)
		}
	}
}

// TestSweepBatchesWhereReplayDoes pins which branch a sweep takes: the
// batch when the hierarchy is batch-safe and the flags carry neither a
// bypass nor an uncached bit, the per-access loop otherwise.
func TestSweepBatchesWhereReplayDoes(t *testing.T) {
	for _, tc := range []struct {
		biaLevel int
		mode     AccessMode
		batch    bool
	}{
		{0, ModeNoLRU | ModeStreaming, true},
		{1, ModeNoLRU | ModeBypassToBIA | ModeStreaming, true}, // bypass is a no-op at L1
		{2, ModeNoLRU | ModeBypassToBIA | ModeStreaming, false},
		{1, ModeStreaming | ModeUncached, false},
	} {
		m := New(func() Config { c := tinyConfig(cache.LRU); c.BIALevel = tc.biaLevel; return c }())
		if got := batchable(m.Hier.BatchSafe(), m.modeFlags(tc.mode)); got != tc.batch {
			t.Errorf("BIA at L%d, mode %#x: batchable = %v, want %v", tc.biaLevel, tc.mode, got, tc.batch)
		}
	}
}

func TestSweepNegativeOpsPanics(t *testing.T) {
	m := New(tinyConfig(cache.LRU))
	defer func() {
		if recover() == nil {
			t.Fatal("a negative per-iteration op count must panic")
		}
		if m.C != (Counters{}) {
			t.Fatalf("the panicking sweep charged %+v", m.C)
		}
	}()
	m.SweepLoad(sweepRegion, memp.LineSize, 4, -1, ModeStreaming)
}

func TestSlotRun(t *testing.T) {
	for _, tc := range []struct {
		mask uint64
		runs [][2]int // slot, length
	}{
		{^uint64(0), [][2]int{{0, 64}}},
		{0x5555555555555555, func() (r [][2]int) {
			for s := 0; s < 64; s += 2 {
				r = append(r, [2]int{s, 1})
			}
			return r
		}()},
		{1 << 37, [][2]int{{37, 1}}},
		{1 << 63, [][2]int{{63, 1}}},
		{0xf0f | 0xff<<56, [][2]int{{0, 4}, {8, 4}, {56, 8}}},
	} {
		var got [][2]int
		for tf := tc.mask; tf != 0; {
			slot, n, run := SlotRun(tf)
			if run&^tf != 0 || run>>slot != 1<<uint(n)-1 {
				t.Fatalf("mask %#x: run %#x is not %d bits from slot %d", tc.mask, run, n, slot)
			}
			tf &^= run
			got = append(got, [2]int{int(slot), n})
		}
		if !slices.Equal(got, tc.runs) {
			t.Errorf("mask %#x: runs %v, want %v", tc.mask, got, tc.runs)
		}
	}
}

// refMacroCTLoad and refMacroCTStore are the macro-ops with the
// per-line micro-coded loops they ran before their fetch sweeps went
// through SweepLoad/SweepRMW: the reference TestMacroOpsMatchPerLineLoops
// holds them to.
func refMacroCTLoad(m *Machine, pageBase, addr memp.Addr, bitmask uint64, w Width) (data uint64, inPage bool) {
	addrToRead := pageBase.Page() | memp.Addr(addr.PageOffset())
	if m.rec != nil {
		m.rec.CTLoad(uint64(addrToRead))
	}
	existence, hit := m.ctLoadHdr(addrToRead)
	if hit {
		data = m.ReadW(addrToRead, w)
	}
	tofetch := bitmask &^ existence
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	for tf := tofetch; tf != 0; tf &= tf - 1 {
		a := memp.GenAddr(pageBase, uint(bits.TrailingZeros64(tf)), addr)
		if tmp := m.LoadModeW(a, w, macroFetchMode); a == addrToRead {
			data = tmp
		}
	}
	return data, memp.SamePage(addr, pageBase)
}

func refMacroCTStore(m *Machine, pageBase, addr memp.Addr, bitmask uint64, v uint64, w Width) {
	addrToWrite := pageBase.Page() | memp.Addr(addr.PageOffset())
	if m.rec != nil {
		m.rec.MacroStoreHdr(uint64(addrToWrite))
	}
	hitLd, dirtiness, wrote := m.macroStoreHdr(addrToWrite)
	var stTmp uint64
	if hitLd {
		stTmp = m.ReadW(addrToWrite, w)
	}
	if memp.SamePage(addr, pageBase) {
		stTmp = v
	}
	if wrote {
		m.WriteW(addrToWrite, stTmp, w)
	}
	tofetch := bitmask &^ dirtiness
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	for tf := tofetch; tf != 0; tf &= tf - 1 {
		a := memp.GenAddr(pageBase, uint(bits.TrailingZeros64(tf)), addr)
		tmp := m.LoadModeW(a, w, macroFetchMode)
		if a == addr {
			tmp = v
		}
		m.StoreModeW(a, tmp, w, macroFetchMode)
	}
}

func TestMacroOpsMatchPerLineLoops(t *testing.T) {
	masks := []uint64{^uint64(0), 0x5555555555555555, 1 << 40, 0xf0f0ff00000000ff, 0x8000000000000001}
	widths := []Width{W8, W16, W32, W64}
	for _, level := range []int{1, 2, 3} {
		for _, record := range []bool{false, true} {
			label := fmt.Sprintf("BIA at L%d/record=%v", level, record)
			mk := func() (*Machine, *trace.Recorder) {
				c := tinyConfig(cache.LRU)
				c.BIALevel = level
				m := New(c)
				for i := 0; i < 3*memp.PageSize/8; i++ {
					m.Mem.Write64(sweepRegion+memp.Addr(8*i), uint64(i)*0x9e3779b97f4a7c15)
				}
				var rec *trace.Recorder
				if record {
					rec = trace.NewRecorder(0)
					m.SetRecorder(rec)
				}
				return m, rec
			}
			a, ra := mk()
			b, rb := mk()
			for step := 0; step < 60; step++ {
				page := sweepRegion + memp.Addr(step%3*memp.PageSize)
				target := sweepRegion + memp.Addr((step*7%3)*memp.PageSize+(step*37%64)*memp.LineSize+step%8*4)
				mask := masks[step%len(masks)]
				w := widths[step%len(widths)]
				if step%2 == 0 {
					da, ia := a.MacroCTLoad(page, target, mask, w)
					db, ib := refMacroCTLoad(b, page, target, mask, w)
					if da != db || ia != ib {
						t.Fatalf("%s step %d: MacroCTLoad = %#x/%v, reference %#x/%v", label, step, da, ia, db, ib)
					}
				} else {
					a.MacroCTStore(page, target, mask, uint64(step), w)
					refMacroCTStore(b, page, target, mask, uint64(step), w)
				}
				if step%5 == 0 {
					// Dirty and evict lines between the macro-ops.
					a.Store64(page+memp.Addr(step*3%64*memp.LineSize), a.Load64(target.Line()))
					b.Store64(page+memp.Addr(step*3%64*memp.LineSize), b.Load64(target.Line()))
				}
				requireSameMachine(t, fmt.Sprintf("%s step %d", label, step), a, b)
			}
			ma, mb := make([]byte, 3*memp.PageSize), make([]byte, 3*memp.PageSize)
			a.Mem.Read(sweepRegion, ma)
			b.Mem.Read(sweepRegion, mb)
			if !slices.Equal(ma, mb) {
				t.Fatalf("%s: memory differs from the reference", label)
			}
			if record {
				ta, _ := ra.Take()
				tb, _ := rb.Take()
				if !slices.Equal(ta.Ops, tb.Ops) {
					t.Fatalf("%s: recorded %d ops, reference %d", label, len(ta.Ops), len(tb.Ops))
				}
			}
		}
	}
}
