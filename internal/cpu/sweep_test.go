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
// index counted from first is a multiple of lanes.
type sweepCall struct {
	base         memp.Addr
	stride       int64
	n, pre       int
	mode         AccessMode
	rmw          bool
	first, lanes int
}

// primitiveSweep runs c through the primitives.
func primitiveSweep(m *Machine, c sweepCall) {
	switch {
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
// asks for EvAccess (which sends sweeps down the scalar branch).
type eventLog struct {
	wantAccess bool
	events     []cache.Event
}

func (l *eventLog) CacheEvent(ev cache.Event) { l.events = append(l.events, ev) }

func (l *eventLog) WantsEvent(k cache.EventKind) bool { return k != cache.EvAccess || l.wantAccess }

// sweepRegion is where the script's sweeps start: page-aligned, so the
// BIA sees whole pages.
const sweepRegion = memp.Addr(0x40000)

// scriptLine is line i of sweepRegion. Line i sits in set i%4 of the
// tiny L1 and, as sweepRegion is 8-line aligned, in set i%8 of its L2.
func scriptLine(i int) memp.Addr { return sweepRegion + memp.Addr(i*memp.LineSize) }

// scriptStep is one step of a twin script: a sweep, or, when do is set,
// an action both twins take alike.
type scriptStep struct {
	call sweepCall
	do   func(m *Machine)
}

// sweepScript is the script both twins run: sweeps of every length and
// mode the strategies issue, a per-iteration op count past PreN's
// uint16, and plain accesses between them that dirty and evict lines;
// then repeatScript's runs. It starts and ends with the same resident
// run, so a run the L1 remembers at the end of one pass meets the start
// of the next. Read-modify-write sweeps run without LRU updates, like
// every store sweep in the strategies (see SweepRMW).
func sweepScript(modes []AccessMode, logs map[*Machine]*eventLog) []scriptStep {
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
			ci := len(steps) / 3
			steps = append(steps,
				scriptStep{do: func(m *Machine) {
					if m.BIA != nil {
						// Install the page's entry so the sweep's snoops land.
						m.CTLoad64(c.base)
					}
				}},
				scriptStep{call: c},
				scriptStep{do: func(m *Machine) {
					m.Store64(sweepRegion+memp.Addr((7*ci%97)*memp.LineSize), uint64(ci))
					m.Load64(sweepRegion + memp.Addr((11*ci%89)*memp.LineSize))
				}})
		}
	}
	steps = append(steps, repeatScript(modes, logs)...)
	// A NoLRU sweep can evict its own earlier lines, so the run settles
	// in the L1 only by its third pass.
	return append(steps, whole, whole, whole)
}

// repeatScript repeats runs the tiny L1 holds, so the L1's remembered
// run serves them: back to back, and across each event that may end a
// line's residency or the closed form's other conditions. The scenario
// decides which events do: a fill into the pinned-full set is dropped,
// and an L2 eviction reaches the L1 only when the hierarchy is
// inclusive. A listener subscribed for one sweep logs to logs[m].
func repeatScript(modes []AccessMode, logs map[*Machine]*eventLog) []scriptStep {
	subscribe := func(m *Machine) {
		if logs[m] == nil {
			logs[m] = &eventLog{}
		}
		m.Hier.Subscribe(logs[m])
	}
	unsubscribe := func(m *Machine) { m.Hier.TruncateListeners(m.Hier.ListenerCount() - 1) }
	seps := []func(m *Machine){
		func(*Machine) {}, // back to back
		func(m *Machine) { m.Load64(scriptLine(9)) },
		func(m *Machine) { m.Load64(scriptLine(8)) }, // L1 set 0
		func(m *Machine) { m.Hier.Flush(scriptLine(2)) },
		func(m *Machine) { m.Hier.PrefetchLine(scriptLine(10)) },
		func(m *Machine) {
			// Overfill line 0's L2 set behind the L1's back.
			for k := 1; k <= 8; k++ {
				m.Hier.AccessFrom(2, scriptLine(8*k), 0)
			}
		},
		func(m *Machine) { m.ResetStats() },
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
				steps = append(steps, run, run, scriptStep{do: sep}, run, run)
			}
			steps = append(steps, run, run, scriptStep{do: subscribe}, run,
				scriptStep{do: unsubscribe}, run, run)
		}
		if mode&ModeNoLRU == 0 {
			continue
		}
		// A load sweep leaves a clean resident run, which the store
		// sweep over it must dirty line by line.
		for _, lanes := range []int{0, 4} {
			clean := sweepCall{base: scriptLine(12), stride: memp.LineSize, n: 4, pre: 6, mode: mode, lanes: lanes}
			dirty := clean
			dirty.rmw = true
			steps = append(steps,
				scriptStep{do: func(m *Machine) {
					for i := 12; i < 16; i++ {
						m.Hier.Flush(scriptLine(i))
					}
				}},
				scriptStep{call: clean}, scriptStep{call: clean}, scriptStep{call: dirty},
				scriptStep{call: dirty}, scriptStep{call: clean})
		}
	}
	return steps
}

// runScript drives m through the script with sweep, returning what the
// attached recorder took (nil without one).
func runScript(m *Machine, sweep func(*Machine, sweepCall), steps []scriptStep, oddParity, record bool) []trace.Op {
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(0)
		m.SetRecorder(rec)
	}
	if oddParity {
		// One streaming L1 hit leaves the dual-port parity odd.
		m.Load64(sweepRegion)
		m.LoadModeW(sweepRegion, W64, ModeStreaming)
	}
	for _, st := range steps {
		if st.do != nil {
			st.do(m)
		} else {
			sweep(m, st.call)
		}
	}
	if rec == nil {
		return nil
	}
	m.SetRecorder(nil)
	t, ok := rec.Take()
	if !ok {
		panic("sweep script recording aborted")
	}
	return t.Ops
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

func TestSweepMatchesScalarLoop(t *testing.T) {
	streaming := []AccessMode{
		ModeNoLRU | ModeStreaming,
		ModeNoLRU | ModeBypassToBIA | ModeStreaming,
		ModeStreaming,
		ModeNoLRU,
	}
	uncached := []AccessMode{
		ModeNoLRU | ModeBypassToBIA | ModeStreaming | ModeUncached,
		ModeStreaming | ModeUncached,
	}
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
			setup: func(m *Machine) {
				// Pin both ways of the L1 set the sweeps start in, so
				// its fills are dropped and store re-probes miss.
				l1 := m.Hier.Level(1)
				stride := memp.Addr(l1.Sets() * memp.LineSize)
				for w := 0; w < l1.Ways(); w++ {
					a := sweepRegion + memp.Addr(w)*stride
					m.Hier.Access(a, 0)
					l1.Pin(a)
				}
			}},
		{name: "prefetch", cfg: func() Config { return tinyConfig(cache.LRU) }, modes: streaming,
			setup: func(m *Machine) { m.Hier.PrefetchNextLine = true }},
		{name: "bia-l1", cfg: withBIA(1), modes: streaming},
		{name: "bia-l2", cfg: withBIA(2), modes: streaming},
		{name: "bia-llc", cfg: withBIA(3), modes: streaming},
		{name: "uncached", cfg: withBIA(1), modes: uncached},
		{name: "listener", cfg: withBIA(1), modes: streaming,
			log: func() *eventLog { return &eventLog{} }},
		{name: "access-listener", cfg: withBIA(2), modes: append(streaming, uncached...),
			log: func() *eventLog { return &eventLog{wantAccess: true} }},
	}
	for _, sc := range scenarios {
		logs := map[*Machine]*eventLog{}
		steps := sweepScript(sc.modes, logs)
		for _, odd := range []bool{false, true} {
			for _, record := range []bool{false, true} {
				a, b := New(sc.cfg()), New(sc.cfg())
				var la, lb *eventLog
				if sc.log != nil {
					la, lb = sc.log(), sc.log()
				}
				prepare := func(m *Machine, l *eventLog) {
					if l != nil {
						m.Hier.Subscribe(l)
					}
					if sc.setup != nil {
						sc.setup(m)
					}
				}
				// The script runs twice, the twins Reset in between:
				// the run the L1 remembers at the end of the first pass
				// must not outlive the Reset.
				for pass := 1; pass <= 2; pass++ {
					label := fmt.Sprintf("%s/odd=%v/record=%v/pass %d", sc.name, odd, record, pass)
					if pass > 1 {
						a.Reset()
						b.Reset()
					}
					prepare(a, la)
					prepare(b, lb)
					if a.Hier.BatchSafe() == (la != nil && la.wantAccess) {
						t.Fatalf("%s: BatchSafe = %v", label, a.Hier.BatchSafe())
					}
					opsA := runScript(a, primitiveSweep, steps, odd, record)
					opsB := runScript(b, scalarSweep, steps, odd, record)
					requireSameMachine(t, label, a, b)
					if !slices.Equal(opsA, opsB) {
						t.Fatalf("%s: recorded %d ops, want the scalar loop's %d", label, len(opsA), len(opsB))
					}
					if la != nil && !slices.Equal(la.events, lb.events) {
						t.Fatalf("%s: %d events, want the scalar loop's %d", label, len(la.events), len(lb.events))
					}
					if ta, tb := logs[a], logs[b]; !slices.Equal(ta.events, tb.events) {
						t.Fatalf("%s: subscribed listener saw %d events, want the scalar loop's %d", label, len(ta.events), len(tb.events))
					}
				}
			}
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
