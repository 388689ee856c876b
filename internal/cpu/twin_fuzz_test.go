package cpu

import (
	"fmt"
	"slices"
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// FuzzSweepTwin holds the batched and closed-form charging paths to the
// per-line loop they replace, over scripts the fuzzer writes: the
// primitive twin sweeps through SweepLoad/SweepRMW/SweepVec, the scalar
// twin through OpStream plus one LoadModeW/StoreModeW per line. After
// every step the machines must agree and hold the BIA's subset-of-truth
// invariant, and at the end the listeners' event logs must agree. Run
// it with
//
//	go test -run '^$' -fuzz '^FuzzSweepTwin$' -fuzztime 30s ./internal/cpu/
//
// The first input byte picks the machine (fuzzScenario), the rest
// decode into script steps (decodeScript). Each step is one opcode byte
// and its operands: a sweep takes six (line, aux, mode, length, ops,
// shape), every other step two. An address is a line of the four pages
// from sweepRegion, or of the four pages 64 pages above them (aux bit
// 0), whose memo slots collide with the first four's, plus an 8-byte
// word offset (aux bits 1-3). A subscribe's first operand asks for
// EvAccess (bit 0) and for one cache level (bits 1-2, 0 for all), and
// bit 3 makes the listener take batches (batchLog).
func FuzzSweepTwin(f *testing.F) {
	for _, seed := range []struct {
		scenario byte
		steps    []scriptStep
	}{
		{0, sweepScript(streamingModes)},
		{1, sweepScript(streamingModes)},         // BIA at L1
		{2, sweepScript(streamingModes)},         // BIA at L2
		{3, sweepScript(streamingModes)},         // BIA at the LLC
		{1 | 1<<2, sweepScript(streamingModes)},  // FIFO
		{1 | 2<<2, sweepScript(streamingModes)},  // Random
		{1 | 1<<4, sweepScript(streamingModes)},  // inclusive
		{1 | 1<<5, sweepScript(streamingModes)},  // sliced L1
		{1 | 1<<6, sweepScript(streamingModes)},  // pinned-full
		{1 | 1<<7, sweepScript(streamingModes)},  // next-line prefetch
		{1, sweepScript(uncachedModes)},          // Sec. 6.5 uncached
		{2 | 1<<4, repeatScript(streamingModes)}, // inclusive, BIA at L2
		{0, collideScript()},                     // evicting misses, memo slots, page crossings
		{1, collideScript()},
		{1 | 1<<4 | 1<<6, collideScript()}, // ... inclusive and pinned
		{0, append(repeatScript(streamingModes[:1]), collideScript()...)},
		{0, thrashScript(streamingModes)}, // L1-thrashing sweeps the L2 serves
		{1, thrashScript(streamingModes)},
		{1 << 2, thrashScript(streamingModes)}, // ... FIFO
		{1 << 4, thrashScript(streamingModes)}, // ... inclusive
		{1 << 6, thrashScript(streamingModes)}, // ... pinned-full
		{1 << 7, thrashScript(streamingModes)}, // ... next-line prefetch
		{1, dramScript(streamingModes)},        // a DS past the LLC, BIA at L1
		{1 | 1<<2, dramScript(streamingModes)}, // ... FIFO
		{1 | 2<<2, dramScript(streamingModes)}, // ... Random
		{1 | 1<<4, dramScript(streamingModes)}, // ... inclusive
		{1 | 1<<7, dramScript(streamingModes)}, // ... next-line prefetch
	} {
		// Short seeds keep each run, and so the minimizing of every new
		// input the fuzzer finds, cheap.
		for steps := seed.steps; len(steps) > 0; {
			n := min(len(steps), fuzzSeedSteps)
			f.Add(append([]byte{seed.scenario}, encodeScript(steps[:n])...))
			steps = steps[n:]
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > fuzzMaxInput {
			data = data[:fuzzMaxInput]
		}
		cfg, setup := fuzzScenario(data[0])
		steps := decodeScript(data[1:])
		a := &twin{m: New(cfg), sweep: primitiveSweep, setup: setup}
		b := &twin{m: New(cfg), sweep: scalarSweep, setup: setup}
		if setup != nil {
			setup(a.m)
			setup(b.m)
		}
		i := 0
		defer func() {
			if t.Failed() && i < len(steps) {
				t.Logf("scenario %#x, step %d: %+v", data[0], i, steps[i])
			}
		}()
		check := func() {
			label := fmt.Sprintf("step %d", i)
			requireSameMachine(t, label, a.m, b.m)
			if a.m.BIA != nil {
				if err := a.m.BIA.CheckSubset(a.m.Hier); err != nil {
					t.Fatalf("%s: primitive twin: %v", label, err)
				}
				if err := b.m.BIA.CheckSubset(b.m.Hier); err != nil {
					t.Fatalf("%s: scalar twin: %v", label, err)
				}
			}
		}
		for ; i < len(steps); i++ {
			a.step(steps[i])
			b.step(steps[i])
			check()
		}
		requireSameLogs(t, "end of script", a, b)
	})
}

// TestTwinScriptEncoding checks that the fuzz seeds decode back into
// the scripts they were encoded from, so FuzzSweepTwin starts from
// exactly what TestSweepMatchesScalarLoop runs.
func TestTwinScriptEncoding(t *testing.T) {
	for _, steps := range [][]scriptStep{
		sweepScript(streamingModes), sweepScript(uncachedModes), collideScript(), thrashScript(streamingModes),
		dramScript(streamingModes),
	} {
		if got := decodeScript(encodeScript(steps)); !slices.Equal(got, steps) {
			t.Fatalf("decoded %d steps, want %d", len(got), len(steps))
		}
	}
}

// collideScript is a seed for what the fixed scripts do not cover: a
// miss that evicts a line hit earlier in the same sweep, runs on two
// pages whose memo slots collide, sub-runs of a swept run, runs across
// a page boundary, CTStores, and a Reset in mid-script.
func collideScript() []scriptStep {
	far := memp.Addr(fuzzFarPages * memp.PageSize)
	mode := streamingModes[0]
	run := func(base memp.Addr, n int, rmw bool) scriptStep {
		return scriptStep{call: sweepCall{base: base, stride: memp.LineSize, n: n, pre: 6, mode: mode, rmw: rmw}}
	}
	// Lines f and f+8 fill L1 set 0, f first; the second sweep hits
	// f..f+3, then line f+4's fill evicts f.
	var steps []scriptStep
	for _, f := range []int{16, 32} {
		rmw := f == 32
		steps = append(steps,
			scriptStep{act: actCTLoad, addr: scriptLine(f)},
			scriptStep{act: actLoad, addr: scriptLine(f)},
			scriptStep{act: actLoad, addr: scriptLine(f + 8)},
			run(scriptLine(f), 4, rmw),
			run(scriptLine(f), 5, rmw),
			run(scriptLine(f), 4, rmw))
	}
	near := run(scriptLine(2), 4, true)
	return append(steps, []scriptStep{
		{act: actCTLoad, addr: scriptLine(2)},
		{act: actCTLoad, addr: far + scriptLine(2)},
		near, near,
		run(far+scriptLine(2), 2, true), // same memo slot, another page
		near, near,
		run(scriptLine(3), 2, false), // a sub-run
		{act: actCTStore, addr: scriptLine(3)},
		run(scriptLine(3), 2, true),
		{act: actCTLoad, addr: scriptLine(64)},
		run(scriptLine(62), 4, false), // across a page boundary
		run(scriptLine(62), 4, true),
		run(scriptLine(62), 4, true),
		{act: actSubscribe},
		near,
		{act: actUnsubscribe},
		near,
		{act: actSubscribe, want: true},
		near,
		{act: actReset},
		near, near,
	}...)
}

// fuzzSeedSteps is the most steps a seed holds, and fuzzMaxInput the
// most input bytes a run decodes.
const (
	fuzzSeedSteps = 48
	fuzzMaxInput  = 1 << 10
)

// fuzzFarPages is how far above sweepRegion an address with aux bit 0
// set lies: far enough that its page's memo slot is the near page's.
const fuzzFarPages = 64

// The operand tables: a sweep's mode and per-iteration op count are
// indexes into these, and its stride one of fuzzStrides.
var (
	fuzzModes   = append(slices.Clone(streamingModes), uncachedModes...)
	fuzzPres    = []int{0, 1, 6, 7, 12, 14, 16, 1 << 17}
	fuzzStrides = []int64{memp.LineSize, 2 * memp.LineSize, -memp.LineSize, 8}
)

// fuzzScenario decodes a scenario byte into the tiny machine: bits 0-1
// place the BIA (0 for none, else its level), bits 2-3 pick the policy
// (LRU, FIFO, Random, LRU), bit 4 makes the hierarchy inclusive, bit 5
// splits the L1 into 2 slices, bit 6 pins the sweeps' first L1 set full
// and bit 7 turns the next-line prefetcher on. The setup, if any, runs
// after New and after each Reset.
func fuzzScenario(b byte) (Config, func(*Machine)) {
	cfg := tinyConfig([]cache.Policy{cache.LRU, cache.FIFO, cache.Random, cache.LRU}[b>>2&3])
	cfg.BIALevel = int(b & 3)
	cfg.Inclusive = b&(1<<4) != 0
	if b&(1<<5) != 0 {
		cfg.Levels[0].Slices = 2
	}
	pin, prefetch := b&(1<<6) != 0, b&(1<<7) != 0
	if !pin && !prefetch {
		return cfg, nil
	}
	return cfg, func(m *Machine) {
		if pin {
			pinStartSet(m)
		}
		m.Hier.PrefetchNextLine = prefetch
	}
}

// opSubRun is the opcode after the actions: a sweep over part of the
// last sweep's lines.
const opSubRun = byte(numActions)

// decodeScript turns fuzz bytes into script steps; a truncated last
// step is dropped. A sweep's shape byte holds the read-modify-write bit
// (bit 0), the vector bit (bit 1), the stride (bits 2-3), and a vector
// sweep's first index or another sweep's store bit (bits 4-7, bit 4).
// Sweeps are made valid for a twin comparison: a read-modify-write sweep
// or a sub-line stride needs a mode without LRU updates (under one, a
// coalesced group is one touch where the per-line loop makes several),
// and a vector sweep walks lines.
func decodeScript(data []byte) []scriptStep {
	var steps []scriptStep
	var last sweepCall
	for len(data) >= 3 {
		op := data[0] % (opSubRun + 1)
		switch {
		case op == byte(actSweep):
			if len(data) < 7 {
				return steps
			}
			c := sweepCall{
				base: fuzzAddr(data[1], data[2]),
				mode: fuzzModes[int(data[3])%len(fuzzModes)],
				n:    1 + int(data[4]),
				pre:  fuzzPres[data[5]&7],
			}
			shape := data[6]
			c.stride = fuzzStrides[shape>>2&3]
			noLRU := c.mode&ModeNoLRU != 0
			c.rmw = shape&1 != 0 && noLRU
			if shape&2 != 0 {
				c.first, c.lanes, c.stride = int(shape>>4), 4, memp.LineSize
			} else {
				c.store = shape&(1<<4) != 0 && !c.rmw
			}
			if !noLRU && c.stride > -memp.LineSize && c.stride < memp.LineSize {
				c.stride = memp.LineSize
			}
			last = c
			steps = append(steps, scriptStep{call: c})
			data = data[7:]
			continue
		case op == opSubRun:
			if last.n == 0 {
				break
			}
			off := int(data[1]) % last.n
			c := last
			c.base += memp.Addr(int64(off) * c.stride)
			c.n = 1 + int(data[2])%(last.n-off)
			if c.lanes > 0 {
				c.first += off
			}
			steps = append(steps, scriptStep{call: c})
		default:
			st := scriptStep{act: action(op)}
			switch {
			case st.act == actSubscribe:
				st.want, st.level, st.batch = data[1]&1 != 0, int(data[1]>>1&3), data[1]&8 != 0
			case slices.Contains(addressed, st.act):
				st.addr = fuzzAddr(data[1], data[2])
			}
			steps = append(steps, st)
		}
		data = data[3:]
	}
	return steps
}

// addressed lists the actions that take an address.
var addressed = []action{actLoad, actStore, actStreamLoad, actFlush, actPrefetch, actL2Access, actCTLoad, actCTStore, actPin}

// fuzzAddr decodes a line byte and an aux byte into an address (see
// FuzzSweepTwin).
func fuzzAddr(line, aux byte) memp.Addr {
	a := sweepRegion + memp.Addr(int(line)*memp.LineSize+int(aux>>1&7)*8)
	if aux&1 != 0 {
		a += fuzzFarPages * memp.PageSize
	}
	return a
}

// encodeScript is decodeScript's inverse on scripts it can express; it
// panics on a step it cannot.
func encodeScript(steps []scriptStep) []byte {
	var out []byte
	addr := func(a memp.Addr) (byte, byte) {
		var aux byte
		off := a - sweepRegion
		if off >= fuzzFarPages*memp.PageSize {
			aux, off = 1, off-fuzzFarPages*memp.PageSize
		}
		line, word := int(off/memp.LineSize), int(off%memp.LineSize)
		if a < sweepRegion || line > 255 || word%8 != 0 || fuzzAddr(byte(line), aux|byte(word/8)<<1) != a {
			panic(fmt.Sprintf("encodeScript: address %v", a))
		}
		return byte(line), aux | byte(word/8)<<1
	}
	for _, st := range steps {
		if st.act != actSweep {
			var b1, b2 byte
			switch {
			case st.act == actSubscribe:
				b1 = byte(st.level) << 1
				if st.want {
					b1 |= 1
				}
				if st.batch {
					b1 |= 8
				}
			case slices.Contains(addressed, st.act):
				b1, b2 = addr(st.addr)
			}
			out = append(out, byte(st.act), b1, b2)
			continue
		}
		c := st.call
		line, aux := addr(c.base)
		mode, pre, stride := slices.Index(fuzzModes, c.mode), slices.Index(fuzzPres, c.pre), slices.Index(fuzzStrides, c.stride)
		if mode < 0 || pre < 0 || stride < 0 || c.n < 1 || c.n > 256 || c.first > 15 || (c.lanes != 0 && c.lanes != 4) ||
			(c.store && (c.rmw || c.lanes != 0)) {
			panic(fmt.Sprintf("encodeScript: sweep %+v", c))
		}
		shape := byte(stride) << 2
		if c.rmw {
			shape |= 1
		}
		if c.lanes != 0 {
			shape |= 2 | byte(c.first)<<4
		}
		if c.store {
			shape |= 1 << 4
		}
		out = append(out, byte(actSweep), line, aux, byte(mode), byte(c.n-1), byte(pre), shape)
	}
	return out
}
