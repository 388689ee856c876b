// Package faultinject is a deterministic, seed-driven fault injector
// for the experiment engine's chaos tests. It is armed only
// explicitly — Parse a specification, then Arm it, as ctbench's -faults
// flag does — and costs a single atomic load per probe when disarmed,
// so production runs pay nothing for the hooks compiled into the
// harness and result cache.
//
// A fault specification is a semicolon- (or comma-) separated list of
// clauses:
//
//	seed=N             seed for deterministic corruption byte flips
//	point              fire on every hit of the named point
//	point@N            fire only on the N-th matching hit (1-based)
//	point:substr       fire only when the probe key contains substr
//	point@N:substr     both
//
// Recognized points (anything else is a parse error, so typos surface
// as friendly CLI errors instead of silently-inert fault plans):
//
//	worker.panic   panic an experiment worker (keyed by experiment id)
//	trace.replay   panic inside a trace replay (keyed by point label)
//	trace.read     fail reading a persisted trace file
//	trace.write    fail persisting a recorded trace
//	trace.corrupt  corrupt a persisted trace file's bytes on read
//	cache.read     fail reading a result-cache entry
//	cache.write    fail writing a result-cache entry
//	cache.corrupt  corrupt a result-cache entry's bytes on read
//
// Network-shaped points for the distributed sweep fleet (keyed by the
// fleet worker's id or the experiment id it is executing):
//
//	fleet.heartbeat.drop  drop a worker heartbeat on the floor
//	fleet.result.torn     tear a result upload mid-body
//	fleet.worker.stall    stall a worker past its lease deadline
//	fleet.worker.kill     kill a worker mid-unit (no submission, ever)
//
// Example: ctbench -faults 'seed=7;trace.corrupt@2;worker.panic@1:fig7a'
// corrupts the second trace file read and panics the fig7a worker, both
// reproducibly.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Fault is the typed panic/error value an injected fault surfaces as.
// Transient faults model recoverable conditions (I/O hiccups, corrupt
// replay state) that the harness absorbs and retries;
// permanent ones (injected worker panics) fail their point outright.
type Fault struct {
	Point     string
	Key       string
	Transient bool
}

// Error renders the fault for logs and PointError chains.
func (f *Fault) Error() string {
	kind := "permanent"
	if f.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faultinject: injected %s fault at %s (key %q)", kind, f.Point, f.Key)
}

// Points every rule must name one of; keep in sync with the package doc.
var knownPoints = map[string]bool{
	"worker.panic":  true,
	"trace.replay":  true,
	"trace.read":    true,
	"trace.write":   true,
	"trace.corrupt": true,
	"cache.read":    true,
	"cache.write":   true,
	"cache.corrupt": true,

	"fleet.heartbeat.drop": true,
	"fleet.result.torn":    true,
	"fleet.worker.stall":   true,
	"fleet.worker.kill":    true,
}

// rule is one armed clause. hits counts matching probes so @N clauses
// fire exactly once, deterministically, regardless of what else runs.
type rule struct {
	point string
	match string
	nth   uint64
	hits  atomic.Uint64
}

// Injector is a parsed fault plan. Arm it to make the package-level
// probes live; a nil injector (the default) disables everything.
type Injector struct {
	seed  uint64
	rules []*rule
}

// Parse builds an injector from a fault specification (see the package
// doc for the grammar).
func Parse(spec string) (*Injector, error) {
	inj := &Injector{seed: 1}
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", v)
			}
			inj.seed = n
			continue
		}
		r := &rule{}
		head := clause
		if head2, match, ok := strings.Cut(head, ":"); ok {
			head, r.match = head2, match
		}
		if head2, nth, ok := strings.Cut(head, "@"); ok {
			n, err := strconv.ParseUint(nth, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faultinject: bad hit count in %q (want point@N with N >= 1)", clause)
			}
			head, r.nth = head2, n
		}
		if !knownPoints[head] {
			return nil, fmt.Errorf("faultinject: unknown fault point %q (known: %s)", head, strings.Join(pointNames(), ", "))
		}
		r.point = head
		inj.rules = append(inj.rules, r)
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault spec %q", spec)
	}
	return inj, nil
}

func pointNames() []string {
	out := make([]string, 0, len(knownPoints))
	for p := range knownPoints {
		out = append(out, p)
	}
	// Deterministic order for error messages.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// armed holds the active injector; nil means every probe is a no-op.
var armed atomic.Pointer[Injector]

// Arm makes inj the active fault plan (nil disarms).
func Arm(inj *Injector) { armed.Store(inj) }

// Disarm deactivates fault injection.
func Disarm() { armed.Store(nil) }

// Armed reports whether any fault plan is active.
func Armed() bool { return armed.Load() != nil }

// Should reports whether an armed rule fires for this probe of point
// with the given key. Disarmed, it is a single atomic load.
func Should(point, key string) bool {
	inj := armed.Load()
	if inj == nil {
		return false
	}
	return inj.should(point, key)
}

func (inj *Injector) should(point, key string) bool {
	fire := false
	for _, r := range inj.rules {
		if r.point != point {
			continue
		}
		if r.match != "" && !strings.Contains(key, r.match) {
			continue
		}
		n := r.hits.Add(1)
		if r.nth == 0 || n == r.nth {
			fire = true
		}
	}
	return fire
}

// Check panics with a *Fault when an armed rule fires for this probe.
// Call sites declare whether the fault they model is transient.
func Check(point, key string, transient bool) {
	if Should(point, key) {
		panic(&Fault{Point: point, Key: key, Transient: transient})
	}
}

// Corrupt deterministically flips bytes of buf in place when an armed
// rule fires for this probe, and returns buf either way. The flipped
// offsets derive from the injector seed and the key, so a corruption
// scenario replays byte-identically.
func Corrupt(point, key string, buf []byte) []byte {
	inj := armed.Load()
	if inj == nil || len(buf) == 0 || !inj.should(point, key) {
		return buf
	}
	h := inj.seed
	for i := 0; i < len(point); i++ {
		h = (h ^ uint64(point[i])) * 0x100000001b3
	}
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	flips := 1 + int(h%3)
	for i := 0; i < flips; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		buf[h%uint64(len(buf))] ^= 0x5a
	}
	return buf
}
