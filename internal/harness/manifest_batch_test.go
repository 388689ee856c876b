package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctbia/internal/resultcache"
)

// The batched journal's durability contract, exercised by simulated
// crashes: a run that dies without Flush/Close loses at most one
// batch of uncommitted entries, never a committed one, and a resume
// never sees a committed row twice.

// crashableManifest returns a journal with a small batch and an
// effectively-disabled deadline timer, so commit points are fully
// deterministic in tests.
func crashableManifest(t *testing.T, dir string, batch int) *Manifest {
	t.Helper()
	m := NewManifest(filepath.Join(dir, ManifestName), true)
	m.SetBatch(batch, 1<<30, time.Hour)
	return m
}

func okEntry(i int) (string, ManifestEntry) {
	id := fmt.Sprintf("exp-%d", i)
	return id, ManifestEntry{Status: "ok", Key: "key-" + id, WallMS: 1}
}

// A crash between commits loses at most batch-1 buffered entries; the
// WAL-committed prefix survives in full and reloads without
// duplicates.
func TestManifestCrashLosesAtMostOneBatch(t *testing.T) {
	dir := t.TempDir()
	const batch, total = 4, 10
	m := crashableManifest(t, dir, batch)
	for i := 0; i < total; i++ {
		m.Record(okEntry(i))
	}
	// 10 records, batch 4: commits at 4 and 8, two entries buffered.
	// Crash here — no Flush, no Close.
	got, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	okN, failedN := got.Summary()
	if failedN != 0 {
		t.Fatalf("reload found %d failed entries", failedN)
	}
	if okN != 8 {
		t.Fatalf("reload found %d entries, want the 8 committed (lost %d > batch-1 uncommitted)", okN, total-okN)
	}
	if lost := total - okN; lost >= batch {
		t.Fatalf("crash lost %d entries, contract allows at most %d", lost, batch-1)
	}
	for i := 0; i < 8; i++ {
		id, e := okEntry(i)
		if !got.Done(id, e.Key) {
			t.Errorf("committed entry %s missing after crash", id)
		}
	}
}

// A torn final WAL line (the crash landed mid-append) is dropped on
// load; every complete line before it survives.
func TestManifestTornWALTailDropped(t *testing.T) {
	dir := t.TempDir()
	m := crashableManifest(t, dir, 2)
	for i := 0; i < 6; i++ {
		m.Record(okEntry(i))
	}
	wal := filepath.Join(dir, ManifestName+ManifestWALName)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("WAL missing after committed batches: %v", err)
	}
	if _, err := f.WriteString(`{"id":"exp-torn","e":{"status":"ok`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	if okN, _ := got.Summary(); okN != 6 {
		t.Fatalf("reload found %d entries, want 6 (torn tail must go, complete lines must stay)", okN)
	}
	if _, ok := got.Entry("exp-torn"); ok {
		t.Fatal("torn WAL line surfaced as an entry")
	}
}

// A terminal (failed) outcome forces an immediate snapshot: everything
// recorded up to and including the failure survives a crash right
// after it, even though the ok entries were only buffered.
func TestManifestTerminalOutcomeCommitsImmediately(t *testing.T) {
	dir := t.TempDir()
	m := crashableManifest(t, dir, 100) // batch never fills on its own
	for i := 0; i < 5; i++ {
		m.Record(okEntry(i))
	}
	m.Record("exp-bad", ManifestEntry{Status: "failed", Key: "kb", Error: "boom"})
	// Crash immediately after the failure.
	got, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	okN, failedN := got.Summary()
	if okN != 5 || failedN != 1 {
		t.Fatalf("reload found %d/%d entries, want 5 ok + 1 failed (terminal snapshot)", okN, failedN)
	}
	// The WAL is truncated by the snapshot: nothing to replay twice.
	if _, err := os.Stat(filepath.Join(dir, ManifestName+ManifestWALName)); !os.IsNotExist(err) {
		t.Errorf("WAL survived a snapshot commit (stat err %v)", err)
	}
}

// The deadline timer commits a lone buffered entry even when the
// batch never fills — an idle sweep's tail is not hostage to the
// batch size.
func TestManifestDeadlineFlush(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(filepath.Join(dir, ManifestName), true)
	m.SetBatch(100, 1<<30, 20*time.Millisecond)
	m.Record(okEntry(0))
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _, err := LoadManifest(filepath.Join(dir, ManifestName), true)
		if err == nil {
			if okN, _ := got.Summary(); okN == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("deadline timer never committed the buffered entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The byte threshold commits before the count threshold when entries
// are large.
func TestManifestByteThreshold(t *testing.T) {
	dir := t.TempDir()
	m := NewManifest(filepath.Join(dir, ManifestName), true)
	m.SetBatch(1000, 256, time.Hour) // tiny byte budget, huge count
	big := strings.Repeat("x", 300)
	m.Record("exp-big", ManifestEntry{Status: "ok", Key: big, WallMS: 1})
	got, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	if okN, _ := got.Summary(); okN != 1 {
		t.Fatalf("byte threshold did not commit: %d entries on disk", okN)
	}
}

// Re-recording an id across a crash/resume boundary must not
// duplicate it: the WAL replay is last-wins by id, and Close folds
// everything into one snapshot row.
func TestManifestResumeNeverDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := crashableManifest(t, dir, 1) // commit every record
	id, e := okEntry(0)
	m.Record(id, e)
	m.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 2}) // same id again

	got, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 1 || failedN != 0 {
		t.Fatalf("duplicate rows after WAL replay: %d ok / %d failed, want 1/0", okN, failedN)
	}
	ent, ok := got.Entry(id)
	if !ok || ent.WallMS != 2 {
		t.Fatalf("WAL replay not last-wins: %+v", ent)
	}

	// The resumed journal records the id once more and closes; a fresh
	// load still sees exactly one row.
	got.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 3})
	got.Close()
	final, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("final reload: stale=%v err=%v", stale, err)
	}
	if okN, _ := final.Summary(); okN != 1 {
		t.Fatalf("%d rows after resume+Close, want 1", okN)
	}
	if ent, _ := final.Entry(id); ent.WallMS != 3 {
		t.Fatalf("final row not the latest record: %+v", ent)
	}
	// Close leaves no WAL behind: the snapshot alone is the journal.
	if _, err := os.Stat(path + ManifestWALName); !os.IsNotExist(err) {
		t.Errorf("WAL survived Close (stat err %v)", err)
	}
}

// A stale snapshot (salt or quick mismatch) discards the WAL too: a
// fresh lineage must not resurrect old-lineage entries.
func TestManifestStaleSnapshotIgnoresWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := crashableManifest(t, dir, 1)
	m.Record(okEntry(0))
	// Load under the other quick setting: stale, empty.
	got, stale, err := LoadManifest(path, false)
	if err != nil || !stale {
		t.Fatalf("want stale reload, got stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 0 || failedN != 0 {
		t.Fatalf("stale reload carried %d/%d entries from the WAL", okN, failedN)
	}
}

// checkBatchedSinksUnderContention journals and caches items outcomes
// from workers concurrent goroutines — the shared-sink traffic of a
// parallel sweep — and checks that batching holds under contention: the
// manifest commits a bounded number of times instead of once per
// record, the write-behind cache groups its writes, and the journal
// reloads complete.
func checkBatchedSinksUnderContention(t *testing.T, workers int) {
	t.Helper()
	const items = 192
	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	store.EnableWriteBehind()
	man := NewManifest(filepath.Join(dir, ManifestName), true)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < items; i = int(next.Add(1)) - 1 {
				key := resultcache.Key("contention", fmt.Sprint(i))
				if err := store.Save(key, []int{i, 2 * i}); err != nil {
					t.Error(err)
				}
				man.Record(fmt.Sprintf("item-%d", i), ManifestEntry{Status: "ok", Key: key, WallMS: 0.1})
			}
		}()
	}
	wg.Wait()
	man.Flush()
	store.Flush()

	// One WAL append per full batch, plus the first-commit snapshot, the
	// deadline tick and the final Flush.
	_, walCommits, snapCommits, _, _ := man.Stats()
	if commits, bound := walCommits+snapCommits, uint64(items/DefaultManifestBatch+4); commits > bound {
		t.Errorf("manifest commits = %d, want <= %d", commits, bound)
	}
	if _, _, writes := store.Stats(); writes != items {
		t.Errorf("cache writes = %d, want %d", writes, items)
	}
	var groups uint64
	store.EmitMetrics(func(name string, v uint64) {
		if name == "resultcache.wb_commits" {
			groups = v
		}
	})
	if groups == 0 || groups > items {
		t.Errorf("cache commit groups = %d, want in [1,%d]", groups, items)
	}
	man.Close()
	store.Close()

	// Batching trades commit granularity, never completed-sweep
	// durability.
	m, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("manifest reload: stale=%v err=%v", stale, err)
	}
	if okN, failedN := m.Summary(); okN != items || failedN != 0 {
		t.Errorf("manifest reloaded %d/%d entries, want %d/0", okN, failedN, items)
	}
}

func TestManifestBatchUnderContention(t *testing.T) {
	checkBatchedSinksUnderContention(t, runtime.GOMAXPROCS(0))
}

// At 4x oversubscription workers contend hardest for the sinks' locks.
func TestManifestBatchUnderContentionHighWorkers(t *testing.T) {
	checkBatchedSinksUnderContention(t, 4*runtime.GOMAXPROCS(0))
}
