package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ctbia/internal/resultcache"
)

// cacheExp picks a small experiment for the integration tests: fig2
// in quick mode simulates two Histogram sizes on pooled machines, so
// both the machine-use accounting and real table content get exercised.
func cacheExp(t *testing.T) Experiment {
	t.Helper()
	e, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunAllCacheRoundTrip runs one experiment cold (miss + store) and
// warm (hit), and requires the served table to render byte-identically
// to the simulated one — the property the CI cache smoke test asserts
// over the full `-exp all` run.
func TestRunAllCacheRoundTrip(t *testing.T) {
	store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{cacheExp(t)}
	o := Options{Quick: true, Cache: store}

	cold := RunAll(exps, o)
	if cold[0].Cached {
		t.Fatal("cold run reported a cache hit")
	}
	if cold[0].Machines == 0 {
		t.Fatal("cold run used no machines; test is vacuous")
	}
	warm := RunAll(exps, o)
	if !warm[0].Cached {
		t.Fatal("warm run missed the cache")
	}
	if warm[0].Machines != 0 {
		t.Errorf("cached result claims %d machine uses, want 0", warm[0].Machines)
	}
	if got, want := warm[0].Table.Render(), cold[0].Table.Render(); got != want {
		t.Errorf("cached table is not byte-identical\ncold:\n%s\nwarm:\n%s", want, got)
	}
}

// TestRunAllCacheKeySeparatesOptions pins that Quick and non-Quick runs
// never share an entry, and that a salt bump changes every key.
func TestRunAllCacheKeySeparatesOptions(t *testing.T) {
	e := cacheExp(t)
	if CacheKey(e, Options{Quick: true}) == CacheKey(e, Options{Quick: false}) {
		t.Error("quick and full runs share a cache key")
	}
	if CacheKey(e, Options{Parallel: 1}) != CacheKey(e, Options{Parallel: 8}) {
		t.Error("parallelism changed the cache key; serial and parallel runs should share entries")
	}
	if cacheKeySalted("ctbia-sim-prN-v9", e, Options{}) == CacheKey(e, Options{}) {
		t.Error("salt bump did not change the cache key")
	}
}

// TestRunAllCorruptedEntryRecomputes corrupts the stored entry and
// checks the next run falls back to simulation (and repairs the entry)
// instead of serving garbage or failing.
func TestRunAllCorruptedEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{cacheExp(t)}
	o := Options{Quick: true, Cache: store}
	cold := RunAll(exps, o)

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected 1 cache entry, got %d (err %v)", len(entries), err)
	}
	path := dir + "/" + entries[0].Name()
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	again := RunAll(exps, o)
	if again[0].Cached {
		t.Fatal("corrupted entry served as a hit")
	}
	if got, want := again[0].Table.Render(), cold[0].Table.Render(); got != want {
		t.Error("recomputed table differs from the original")
	}
	warm := RunAll(exps, o)
	if !warm[0].Cached {
		t.Error("recompute did not repair the corrupted entry")
	}
}

// TestRunAllReadOnlyCache checks ro end to end: RunAll against an
// empty read-only store simulates everything and leaves the directory
// untouched; against a seeded store it serves hits.
func TestRunAllReadOnlyCache(t *testing.T) {
	dir := t.TempDir()
	ro, err := resultcache.Open(dir, resultcache.ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	exps := []Experiment{cacheExp(t)}

	res := RunAll(exps, Options{Quick: true, Cache: ro})
	if res[0].Cached {
		t.Fatal("empty ro cache served a hit")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("read-only run wrote %d files to the cache dir", len(entries))
	}

	rw, err := resultcache.Open(dir, resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	RunAll(exps, Options{Quick: true, Cache: rw})
	res = RunAll(exps, Options{Quick: true, Cache: ro})
	if !res[0].Cached {
		t.Error("ro store missed an entry seeded by a rw store")
	}
}

// FuzzCachedTable feeds arbitrary bytes to Lookup as the cached table
// of one experiment. A hit is only ever a table usable as that
// experiment's result, and it renders. A miss leaves nothing at the
// key's path: an undecodable body, or one that decodes into an
// unusable table, is quarantined rather than left to fail again on the
// next run.
func FuzzCachedTable(f *testing.F) {
	e, err := ByID("config")
	if err != nil {
		f.Fatal(err)
	}
	other, err := ByID("table2")
	if err != nil {
		f.Fatal(err)
	}
	// saved returns the body a read-write store writes for t.
	saved := func(t *Table) []byte {
		dir := f.TempDir()
		store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
		if err != nil {
			f.Fatal(err)
		}
		if err := store.Save("5eed", t); err != nil {
			f.Fatal(err)
		}
		buf, err := os.ReadFile(filepath.Join(dir, "5eed.json"))
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add(saved(e.Run(Options{Quick: true})))
	f.Add(saved(other.Run(Options{Quick: true})))
	f.Add([]byte("null\n")) // TestChaosGarbageJSONCacheEntry's body
	f.Add([]byte("null"))
	f.Add([]byte("{}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		store, err := resultcache.Open(dir, resultcache.ReadWrite, SimVersionSalt)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Quick: true, Cache: store}
		path := filepath.Join(dir, CacheKey(e, o)+".json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		res, hit := Lookup(e, o)
		if hit {
			if !res.Table.UsableFor(e.ID) {
				t.Fatalf("served a table unusable as %s: %+v", e.ID, res.Table)
			}
			res.Table.Render()
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("a miss left its entry at the key's path (stat err %v)", err)
		}
	})
}

// checkSinksUnderContention saves items results to the cache from
// workers concurrent goroutines — the shared-sink traffic of a parallel
// sweep — and checks that nothing is lost or folded away: one cache
// write per item, each readable back.
func checkSinksUnderContention(t *testing.T, workers int) {
	t.Helper()
	const items = 192
	store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return resultcache.Key("contention", fmt.Sprint(i)) }
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < items; i = int(next.Add(1)) - 1 {
				if err := store.Save(key(i), []int{i, 2 * i}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	if _, _, writes := store.Stats(); writes != items {
		t.Errorf("cache writes = %d, want %d", writes, items)
	}
	for i := 0; i < items; i++ {
		var got []int
		if !store.Load(key(i), &got) || len(got) != 2 || got[0] != i || got[1] != 2*i {
			t.Fatalf("item %d reloaded as %v", i, got)
		}
	}
}

func TestSinksUnderContention(t *testing.T) {
	checkSinksUnderContention(t, runtime.GOMAXPROCS(0))
}

// At 4x oversubscription workers contend hardest for the store.
func TestSinksUnderContentionHighWorkers(t *testing.T) {
	checkSinksUnderContention(t, 4*runtime.GOMAXPROCS(0))
}
