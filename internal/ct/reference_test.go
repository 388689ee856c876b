package ct

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// The strategies charge their DS sweeps through cpu.SweepLoad and
// cpu.SweepRMW. The per-line loops they ran before are kept here as the
// reference: twin machines run one script, one through the strategy and
// one through its reference, and must agree on every returned word,
// every byte of memory, every counter, every cache level's contents,
// the BIA, the attacker-visible event stream and the recorded op
// stream — the last is what keeps trace files byte-identical.

// refOps is a strategy's reference: its per-line Load, Store and
// LoadBlock.
type refOps struct {
	load  func(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64
	store func(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width)
	block func(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte
}

// refLinear is Linear's per-line loop, with load, store and block ops
// per line; with vec it is LinearVec's, which issues that many ops once
// per four lines instead.
func refLinear(vec bool, load, store, block int) refOps {
	pre := func(m *cpu.Machine, i, ops int) {
		if !vec || i%4 == 0 {
			m.OpStream(ops)
		}
	}
	return refOps{
		load: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
			off := memp.Addr(addr.Offset())
			var ret uint64
			for i, la := range ds.Lines() {
				a := la + off
				pre(m, i, load)
				v := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
				if a == addr {
					ret = v
				}
			}
			return ret
		},
		store: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
			off := memp.Addr(addr.Offset())
			for i, la := range ds.Lines() {
				a := la + off
				pre(m, i, store)
				nv := m.LoadModeW(a, w, cpu.ModeNoLRU|cpu.ModeStreaming)
				if a == addr {
					nv = v
				}
				m.StoreModeW(a, nv, w, cpu.ModeNoLRU|cpu.ModeStreaming)
			}
		},
		block: func(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
			for i, la := range ds.Lines() {
				pre(m, i, block)
				m.LoadModeW(la, cpu.W64, cpu.ModeNoLRU|cpu.ModeStreaming)
			}
			return readBlock(m, blockAddr, nLines)
		},
	}
}

// refBIA is Alg. 2/3's per-line fetch loops.
func refBIA(s BIA) refOps {
	fetch := func(m *cpu.Machine, span PageSpan, tofetch uint64, target memp.Addr, ops int, each func(a memp.Addr, mode cpu.AccessMode)) {
		mode := cpu.AccessMode(fetchMode)
		if s.Threshold > 0 && bits.OnesCount64(tofetch) > s.Threshold {
			mode |= cpu.ModeUncached
		}
		for tf := tofetch; tf != 0; tf &= tf - 1 {
			a := memp.GenAddrAt(span.Base, uint(bits.TrailingZeros64(tf)), target)
			m.OpStream(ops)
			each(a, mode)
		}
	}
	note := func(m *cpu.Machine, span PageSpan, tofetch uint64) {
		m.NoteDSSpan(bits.OnesCount64(span.Mask)-bits.OnesCount64(tofetch), bits.OnesCount64(span.Mask))
	}
	return refOps{
		load: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
			shift, offMask := geom(m)
			var ret uint64
			for _, span := range ds.SpansAt(shift) {
				addrToRead := span.Base | (addr & offMask)
				m.Op(opsPageSetup)
				data, existence := m.CTLoadW(addrToRead, w)
				s.hook(HookAfterCTLoad, span.Base)
				tofetch := span.Mask &^ existence
				note(m, span, tofetch)
				s.hook(HookBeforeFetch, span.Base)
				fetch(m, span, tofetch, addr, opsFetchIter, func(a memp.Addr, mode cpu.AccessMode) {
					if tmp := m.LoadModeW(a, w, mode); a == addrToRead {
						data = tmp
					}
				})
				m.Op(opsSelect)
				if addr&^offMask == span.Base {
					ret = data
				}
			}
			return ret
		},
		store: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
			shift, offMask := geom(m)
			for _, span := range ds.SpansAt(shift) {
				addrToWrite := span.Base | (addr & offMask)
				m.Op(opsPageSetup)
				ldData, _ := m.CTLoadW(addrToWrite, w)
				s.hook(HookAfterCTLoad, span.Base)
				m.Op(opsSelect)
				stTmp := ldData
				if addr&^offMask == span.Base {
					stTmp = v
				}
				dirtiness := m.CTStoreW(addrToWrite, stTmp, w)
				s.hook(HookAfterCTStore, span.Base)
				tofetch := span.Mask &^ dirtiness
				note(m, span, tofetch)
				s.hook(HookBeforeFetch, span.Base)
				fetch(m, span, tofetch, addr, opsFetchStoreIter, func(a memp.Addr, mode cpu.AccessMode) {
					tmp := m.LoadModeW(a, w, mode)
					if a == addr {
						tmp = v
					}
					m.StoreModeW(a, tmp, w, mode)
				})
			}
		},
		block: func(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
			shift, offMask := geom(m)
			for _, span := range ds.SpansAt(shift) {
				addrToRead := span.Base | (blockAddr & offMask)
				m.Op(opsPageSetup)
				_, existence := m.CTLoadW(addrToRead, cpu.W64)
				s.hook(HookAfterCTLoad, span.Base)
				tofetch := span.Mask &^ existence
				note(m, span, tofetch)
				s.hook(HookBeforeFetch, span.Base)
				fetch(m, span, tofetch, blockAddr, opsFetchIter, func(a memp.Addr, mode cpu.AccessMode) {
					m.LoadModeW(a, cpu.W64, mode)
				})
				m.Op(opsBlockVecIter * nLines / len(ds.SpansAt(shift)))
			}
			return readBlock(m, blockAddr, nLines)
		},
	}
}

// refPreload is Preload with its per-line preload pass.
func refPreload() refOps {
	preload := func(m *cpu.Machine, ds *LinSet) {
		for _, la := range ds.Lines() {
			m.OpStream(2)
			m.LoadModeW(la, cpu.W64, cpu.ModeStreaming)
		}
	}
	return refOps{
		load: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
			preload(m, ds)
			m.Op(opsDirect)
			return m.LoadW(addr, w)
		},
		store: func(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
			preload(m, ds)
			m.Op(opsDirect)
			m.StoreW(addr, v, w)
		},
		block: func(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
			preload(m, ds)
			for i := 0; i < nLines*memp.LineSize/4; i++ {
				m.OpStream(opsDirect)
				m.LoadModeW(blockAddr+memp.Addr(4*i), cpu.W32, cpu.ModeStreaming)
			}
			return readBlock(m, blockAddr, nLines)
		},
	}
}

// requireSameMachines fails unless a and b agree on everything a
// strategy can change: counters, DS stats, every level's stats and
// contents, DRAM traffic, the BIA, and the bytes of reg.
func requireSameMachines(t *testing.T, label string, a, b *cpu.Machine, reg memp.Region) {
	t.Helper()
	if a.C != b.C || a.DS != b.DS || a.Hier.Stats != b.Hier.Stats {
		t.Fatalf("%s: counters %+v %+v %+v, want %+v %+v %+v", label, a.C, a.DS, a.Hier.Stats, b.C, b.DS, b.Hier.Stats)
	}
	for i := 1; i <= a.Hier.Levels(); i++ {
		if a.Hier.Level(i).Stats != b.Hier.Level(i).Stats || !a.Hier.SnapshotLevel(i).Equal(b.Hier.SnapshotLevel(i)) {
			t.Fatalf("%s: L%d differs: %+v, want %+v", label, i, a.Hier.Level(i).Stats, b.Hier.Level(i).Stats)
		}
	}
	if a.BIA != nil {
		if a.BIA.Stats != b.BIA.Stats || !slices.Equal(a.BIA.Pages(), b.BIA.Pages()) {
			t.Fatalf("%s: BIA %+v, want %+v", label, a.BIA.Stats, b.BIA.Stats)
		}
		for _, p := range a.BIA.Pages() {
			addr := memp.Addr(p << uint(a.BIA.ChunkShift()))
			ea, da, _ := a.BIA.Peek(addr)
			eb, db, _ := b.BIA.Peek(addr)
			if ea != eb || da != db {
				t.Fatalf("%s: BIA bitmaps of %v differ", label, addr)
			}
		}
	}
	ma, mb := make([]byte, reg.Size), make([]byte, reg.Size)
	a.Mem.Read(reg.Base, ma)
	b.Mem.Read(reg.Base, mb)
	if !bytes.Equal(ma, mb) {
		t.Fatalf("%s: memory differs", label)
	}
}

func TestStrategiesMatchPerLineReference(t *testing.T) {
	cases := []struct {
		s        Strategy
		ref      refOps
		biaLevel int
	}{
		{Linear{}, refLinear(false, opsLinearIter, opsLinearStoreIter, opsBlockIter), 0},
		{LinearVec{}, refLinear(true, 4*opsVecIterPerLine, 4*opsVecIterPerLine+2, 4*opsBlockVecIter), 0},
		{BIA{}, refBIA(BIA{}), 1},
		{BIA{}, refBIA(BIA{}), 2},
		{BIA{Threshold: 4}, refBIA(BIA{Threshold: 4}), 1},
		{Preload{}, refPreload(), 0},
	}
	widths := []cpu.Width{cpu.W8, cpu.W16, cpu.W32, cpu.W64}
	for _, c := range cases {
		for _, gapped := range []bool{false, true} {
			for _, observe := range []string{"none", "recorder", "listener"} {
				label := fmt.Sprintf("%s@L%d/gapped=%v/%s", c.s.Name(), c.biaLevel, gapped, observe)
				type twin struct {
					m   *cpu.Machine
					reg memp.Region
					ds  *LinSet
					rec *trace.Recorder
					log *traceRecorder
				}
				mk := func() *twin {
					tw := &twin{m: cpu.New(testConfig(c.biaLevel))}
					if gapped {
						tw.reg = tw.m.Alloc.Alloc("t", 5*memp.PageSize/2)
						tw.ds = gappedSet(tw.reg)
					} else {
						tw.reg = tw.m.Alloc.Alloc("t", 3*memp.PageSize/2)
						tw.ds = FromRegion(tw.reg)
					}
					fillWords(tw.m, tw.reg)
					switch observe {
					case "recorder":
						tw.rec = trace.NewRecorder(0)
						tw.m.SetRecorder(tw.rec)
					case "listener":
						tw.log = &traceRecorder{}
						tw.m.Hier.Subscribe(tw.log)
					}
					return tw
				}
				a, b := mk(), mk()
				rng := rand.New(rand.NewSource(3))
				for step := 0; step < 24; step++ {
					addr := setWord(a.ds, rng.Intn(1<<20))
					w := widths[step%len(widths)]
					switch step % 3 {
					case 0:
						if got, want := c.s.Load(a.m, a.ds, addr, w), c.ref.load(b.m, b.ds, addr, w); got != want {
							t.Fatalf("%s step %d: Load = %#x, reference %#x", label, step, got, want)
						}
					case 1:
						v := rng.Uint64()
						c.s.Store(a.m, a.ds, addr, v, w)
						c.ref.store(b.m, b.ds, addr, v, w)
					default:
						r := a.ds.runs[rng.Intn(len(a.ds.runs))]
						n := 1 + rng.Intn(min(r.n, 4))
						if got, want := c.s.LoadBlock(a.m, a.ds, r.base, n), c.ref.block(b.m, b.ds, r.base, n); !bytes.Equal(got, want) {
							t.Fatalf("%s step %d: LoadBlock bytes differ", label, step)
						}
					}
					requireSameMachines(t, fmt.Sprintf("%s step %d", label, step), a.m, b.m, a.reg)
				}
				if a.rec != nil {
					ta, _ := a.rec.Take()
					tb, _ := b.rec.Take()
					if !slices.Equal(ta.Ops, tb.Ops) {
						t.Fatalf("%s: recorded %d ops, reference %d", label, len(ta.Ops), len(tb.Ops))
					}
				}
				if a.log != nil && a.log.key() != b.log.key() {
					t.Fatalf("%s: event streams differ", label)
				}
			}
		}
	}
}
