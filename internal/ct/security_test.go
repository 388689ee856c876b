package ct

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// traceRecorder collects the attacker-visible event stream: everything
// except CT probe events, which change no architectural cache state.
type traceRecorder struct {
	events []cache.Event
}

func (r *traceRecorder) CacheEvent(ev cache.Event) {
	if ev.Probe {
		return
	}
	r.events = append(r.events, ev)
}

func (r *traceRecorder) key() string {
	var b strings.Builder
	for _, ev := range r.events {
		fmt.Fprintf(&b, "%d:%v:%v:%v:%v;", ev.Level, ev.Kind, ev.Line, ev.Write, ev.Dirty)
	}
	return b.String()
}

// protectedTrace runs a scripted sequence of protected accesses whose
// target words come from secrets, and returns the attacker-visible
// trace. Each run builds an identical fresh machine. The DS is two
// whole pages, or with gapped a gapped set over two and a half.
func protectedTrace(t *testing.T, strat Strategy, biaLevel int, secrets []int, stores, gapped bool) string {
	t.Helper()
	cfg := testConfig(biaLevel)
	m := cpu.New(cfg)
	rec := &traceRecorder{}
	m.Hier.Subscribe(rec)
	var ds *LinSet
	if gapped {
		ds = gappedSet(m.Alloc.Alloc("tab", 5*memp.PageSize/2))
	} else {
		ds = FromRegion(m.Alloc.Alloc("tab", 2*memp.PageSize))
	}
	for step, sec := range secrets {
		addr := setWord(ds, sec)
		if stores && step%2 == 1 {
			strat.Store(m, ds, addr, uint64(step), cpu.W32)
		} else {
			strat.Load(m, ds, addr, cpu.W32)
		}
	}
	return rec.key()
}

// TestProtectedTraceIndependence is the repository's embodiment of the
// paper's Sec. 5.3 security proof: for any two secret sequences, the
// attacker-visible cache trace of a protected run is identical. It holds
// for the software-CT baseline and for the BIA algorithms at both
// placements.
func TestProtectedTraceIndependence(t *testing.T) {
	type scase struct {
		name     string
		strat    Strategy
		biaLevel int
	}
	cases := []scase{
		{"linear", Linear{}, 0},
		{"linear-vec", LinearVec{}, 0},
		{"bia-L1", BIA{}, 1},
		{"bia-L2", BIA{}, 2},
		{"bia-thresh", BIA{Threshold: 4}, 1},
	}
	for _, c := range cases {
		for _, gapped := range []bool{false, true} {
			name := c.name
			if gapped {
				name += "/gapped"
			}
			t.Run(name, func(t *testing.T) {
				f := func(seedA, seedB int64) bool {
					mk := func(seed int64) []int {
						rng := rand.New(rand.NewSource(seed))
						out := make([]int, 24)
						for i := range out {
							out[i] = rng.Intn(1 << 20)
						}
						return out
					}
					ta := protectedTrace(t, c.strat, c.biaLevel, mk(seedA), true, gapped)
					tb := protectedTrace(t, c.strat, c.biaLevel, mk(seedB), true, gapped)
					return ta == tb
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestInsecureTraceLeaks sanity-checks the methodology: the Direct
// strategy's trace DOES depend on the secret, so a passing
// trace-independence test is meaningful.
func TestInsecureTraceLeaks(t *testing.T) {
	ta := protectedTrace(t, Direct{}, 0, []int{1, 100, 7}, false, false)
	tb := protectedTrace(t, Direct{}, 0, []int{900, 3, 512}, false, false)
	if ta == tb {
		t.Fatal("insecure traces should differ for different secrets")
	}
}

// TestCTLoadLeavesCacheUntouched verifies the no-fill/no-LRU claim at
// the machine level: a full protected load on a fully-warm DS changes
// nothing an attacker could observe, including replacement metadata.
func TestCTLoadLeavesCacheUntouched(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("tab", memp.PageSize)
	ds := FromRegion(reg)
	BIA{}.Load(m, ds, reg.Base, cpu.W32) // warm everything
	before1 := m.Hier.SnapshotLevel(1)
	before2 := m.Hier.SnapshotLevel(2)
	for i := 0; i < 8; i++ {
		BIA{}.Load(m, ds, reg.Base+memp.Addr(64*i+4), cpu.W32)
	}
	if !m.Hier.SnapshotLevel(1).Equal(before1) || !m.Hier.SnapshotLevel(2).Equal(before2) {
		t.Fatal("warm protected loads must not change any cache state (incl. LRU stamps)")
	}
}

// TestProtectedStoreFootprintIdentical: after a protected store, the
// set of dirty lines is the whole DS regardless of the target — the
// dirty-bit channel the paper closes via dirtiness bitmaps.
func TestProtectedStoreFootprintIdentical(t *testing.T) {
	dirtySetFor := func(strat Strategy, biaLevel, idx int) string {
		m := cpu.New(testConfig(biaLevel))
		reg := m.Alloc.Alloc("tab", memp.PageSize/2)
		ds := FromRegion(reg)
		strat.Store(m, ds, reg.Base+memp.Addr(4*idx), 1, cpu.W32)
		level := biaLevel
		if level == 0 {
			level = 1
		}
		out := ""
		for _, la := range m.Hier.Level(level).DirtyLines() {
			out += la.String() + ";"
		}
		return out
	}
	for _, c := range []struct {
		name     string
		strat    Strategy
		biaLevel int
	}{
		{"linear", Linear{}, 0},
		{"bia", BIA{}, 1},
	} {
		a := dirtySetFor(c.strat, c.biaLevel, 0)
		b := dirtySetFor(c.strat, c.biaLevel, 200)
		if a != b {
			t.Errorf("%s: dirty footprint differs by secret:\n%s\nvs\n%s", c.name, a, b)
		}
		if a == "" {
			t.Errorf("%s: store left nothing dirty", c.name)
		}
	}
}
