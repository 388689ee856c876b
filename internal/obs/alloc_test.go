package obs

import "testing"

// The disarmed probes are compiled into the simulator's hot paths, so
// they must allocate nothing and do almost no work. These tests pin
// that contract directly; the repository-level alloc budgets
// (cpu.TestAccessPathZeroAllocs etc.) pin it end to end.

func TestDisarmedAddZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	if n := testing.AllocsPerRun(1000, func() { Add("hot.counter", 1) }); n != 0 {
		t.Fatalf("disarmed Add allocates %v/op", n)
	}
	id := Intern("hot.counter")
	if n := testing.AllocsPerRun(1000, func() { AddID(id, 1) }); n != 0 {
		t.Fatalf("disarmed AddID allocates %v/op", n)
	}
}

func TestDisarmedHistogramZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	h := NewHistogram("hot.hist")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3) }); n != 0 {
		t.Fatalf("disarmed Observe allocates %v/op", n)
	}
}

func TestDisabledSpanZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	if n := testing.AllocsPerRun(1000, func() { StartSpan("cat", "name").End() }); n != 0 {
		t.Fatalf("disabled StartSpan/End allocates %v/op", n)
	}
}

func TestDisarmedNotePointZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	if n := testing.AllocsPerRun(1000, func() { NotePoint() }); n != 0 {
		t.Fatalf("disarmed NotePoint allocates %v/op", n)
	}
}

func TestArmedAddSteadyStateZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("warm.counter", 1) // create the counter outside the measured loop
	if n := testing.AllocsPerRun(1000, func() { Add("warm.counter", 1) }); n != 0 {
		t.Fatalf("armed steady-state Add allocates %v/op", n)
	}
	id := Intern("warm.counter")
	if n := testing.AllocsPerRun(1000, func() { AddID(id, 1) }); n != 0 {
		t.Fatalf("armed steady-state AddID allocates %v/op", n)
	}
}

func TestArmedObserveZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("warm.hist")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(7) }); n != 0 {
		t.Fatalf("armed Observe allocates %v/op", n)
	}
}

// A polling exporter must not pay per poll: filling a warm caller-owned
// map allocates nothing once every key exists.
func TestSnapshotIntoSteadyStateZeroAllocs(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("snap.counter", 3)
	NewHistogram("snap.hist").Observe(9)
	dst := make(map[string]uint64)
	SnapshotInto(dst) // first call inserts the keys
	if n := testing.AllocsPerRun(100, func() { SnapshotInto(dst) }); n != 0 {
		t.Fatalf("warm SnapshotInto allocates %v/op", n)
	}
}
