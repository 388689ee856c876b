package trace

import (
	"bytes"
	"io"
	"runtime"
	"strings"
	"testing"
)

// The streaming reader's chunk buffers (one wire-sized byte buffer and
// one decoded-op buffer, ~200 KiB together at the default chunk size)
// are pooled across readers: a warm record→replay→replay sweep opens a
// reader per replay, and without pooling every one of those paid both
// allocations. These tests pin the pooled contract — warm cycles touch
// the heap only for the header's small decoded fields — and the
// use-after-Release discipline that makes the pooling safe.

func encodedStream(nOps int) []byte {
	ops := make([]Op, nOps)
	for i := range ops {
		ops[i] = Op{Kind: KRun, Addr: uint64(i * 64), Arg: 2, Stride: 64}
	}
	return Encode("key", "src", []uint64{1}, nil, ops)
}

// TestReaderCycleAllocBudget bounds a warm NewReader→drain→Release
// cycle in allocation count and bytes. The header decode costs a
// handful of small allocations (reader struct, key/src strings, meta);
// the budget fails loudly if either chunk buffer stops coming from the
// pool, since each alone is tens of kilobytes.
func TestReaderCycleAllocBudget(t *testing.T) {
	buf := encodedStream(DefaultChunkOps * 4)
	cycle := func() {
		d, err := NewReader(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := d.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		d.Release()
	}
	cycle() // warm the pool
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 12 {
		t.Errorf("warm reader cycle: %.1f allocs, budget is 12 — chunk buffers no longer pooled?", allocs)
	}
	if raceEnabled {
		t.Skip("byte budget not checked under -race: sync.Pool drops a random quarter of Puts by design, so chunk buffers are reallocated")
	}
	const cycles = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle > 8<<10 {
		t.Errorf("warm reader cycle allocates %d bytes, budget is %d — chunk buffers no longer pooled?",
			perCycle, 8<<10)
	}
}

// TestReaderReleaseDiscipline pins Release's contract: idempotent, and
// any use after it fails with a sticky non-EOF error rather than
// touching buffers another reader may now own.
func TestReaderReleaseDiscipline(t *testing.T) {
	buf := encodedStream(DefaultChunkOps * 2)
	d, err := NewReader(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	d.Release() // mid-stream release is legal
	d.Release() // and idempotent
	if _, err := d.Next(); err == nil || err == io.EOF || !strings.Contains(err.Error(), "Release") {
		t.Errorf("Next after Release: got %v, want a sticky use-after-Release error", err)
	}
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Errorf("second Next after Release: got %v, want the same sticky error", err)
	}
}
