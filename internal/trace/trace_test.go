package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"slices"
	"strings"
	"testing"
)

// The recorder's value rests on compression: a linear sweep must fold
// into a handful of records, not one per access. These tests pin the
// shapes the cpu-side fusion invariants rely on.

func TestFuseEqualStrideRun(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 100; i++ {
		r.Op(3)
		r.Access(uint64(i*64), 0)
	}
	tr, ok := r.Take()
	if !ok {
		t.Fatal("recorder reported abort")
	}
	if len(tr.Ops) != 1 {
		t.Fatalf("strided sweep compressed to %d records, want 1: %+v", len(tr.Ops), tr.Ops)
	}
	op := tr.Ops[0]
	if op.Kind != KRun || op.Arg != 100 || op.Stride != 64 || op.Pre != PreOps || op.PreN != 3 {
		t.Errorf("run record wrong: %+v", op)
	}
}

func TestFuseRMWPairs(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 50; i++ {
		r.Access(uint64(i*64), 0)
		r.Access(uint64(i*64), writeBit)
	}
	tr, _ := r.Take()
	if len(tr.Ops) != 1 {
		t.Fatalf("RMW sweep compressed to %d records, want 1: %+v", len(tr.Ops), tr.Ops)
	}
	op := tr.Ops[0]
	if op.Kind != KRMW || op.Arg != 50 || op.Stride != 64 || op.Flags&writeBit != 0 {
		t.Errorf("RMW record wrong: %+v", op)
	}
}

func TestNoFalseRMW(t *testing.T) {
	// A store at a different address, or with different other flags,
	// must NOT fold into the preceding load.
	r := NewRecorder(0)
	r.Access(0, 0)
	r.Access(64, writeBit)
	tr, _ := r.Take()
	if len(tr.Ops) != 2 {
		t.Fatalf("unrelated load+store fused: %+v", tr.Ops)
	}
	r = NewRecorder(0)
	r.Access(0, 0)
	r.Access(0, writeBit|1<<4)
	tr, _ = r.Take()
	if len(tr.Ops) != 2 {
		t.Fatalf("flag-mismatched load+store fused: %+v", tr.Ops)
	}
	// A store whose own pre-ops intervened keeps them: folding would
	// reorder the ALU charge relative to the load.
	r = NewRecorder(0)
	r.Access(0, 0)
	r.Op(2)
	r.Access(0, writeBit)
	tr, _ = r.Take()
	if len(tr.Ops) != 2 || tr.Ops[1].Kind == KRMW {
		t.Fatalf("store with own pre-ops fused into RMW: %+v", tr.Ops)
	}
}

func TestRandomAccessesStaySingles(t *testing.T) {
	r := NewRecorder(0)
	addrs := []uint64{0, 4096, 64, 9000, 128}
	for _, a := range addrs {
		r.Access(a, 0)
	}
	tr, _ := r.Take()
	// Irregular strides cannot all fuse; at minimum the count of
	// accesses must be preserved.
	total := 0
	for _, op := range tr.Ops {
		switch op.Kind {
		case KAccess:
			total++
		case KRun:
			total += int(op.Arg)
		default:
			t.Fatalf("unexpected record kind %d", op.Kind)
		}
	}
	if total != len(addrs) {
		t.Errorf("recorded %d accesses, want %d", total, len(addrs))
	}
}

func TestLimitAborts(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 100; i++ {
		// Alternate flags so nothing fuses.
		r.Access(uint64(i*4096), uint32(i%2)<<4)
	}
	if !r.Aborted() {
		t.Fatal("recorder did not abort past its limit")
	}
	if _, ok := r.Take(); ok {
		t.Fatal("aborted recorder still handed out a trace")
	}
}

// TestEncodeDecodeRoundTrip round-trips a recorded stream and one
// spanning several chunks, the last of them partial.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.Op(7)
	r.Access(128, 0)
	r.CTLoad(4096)
	r.Warm(0, 1<<14)
	r.ResetStats()
	tr, _ := r.Take()
	long := make([]Op, 3*DefaultChunkOps+123)
	for i := range long {
		long[i] = Op{Kind: KAccess, Addr: uint64(i * 64), Arg: 1, Flags: uint32(i % 7)}
	}

	key := "salt\x1fw:histogram\x1f500/1/0\x1fct\x1fshared"
	src := "L1d:65536:8:2;dram=200"
	meta := []uint64{0xdeadbeef, 1, 2, 3}
	tags := map[string][]uint64{
		"cfgA": {10, 20, 30},
		"cfgB": {40},
	}
	for name, ops := range map[string][]Op{"recorded": tr.Ops, "multi-chunk": long} {
		buf := Encode(key, src, meta, tags, ops)
		want := WireSize(len(key), len(src), len(meta), len(ops)) +
			TagWireSize(len("cfgA"), 3) + TagWireSize(len("cfgB"), 1)
		if len(buf) != want {
			t.Errorf("%s: WireSize mispredicts: encoded %d bytes, WireSize says %d", name, len(buf), want)
		}

		gotKey, gotSrc, gotMeta, gotTags, gotOps, err := Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gotKey != key {
			t.Errorf("%s: key round trip: %q != %q", name, gotKey, key)
		}
		if gotSrc != src {
			t.Errorf("%s: src round trip: %q != %q", name, gotSrc, src)
		}
		if !slices.Equal(gotMeta, meta) {
			t.Errorf("%s: meta round trip: %v != %v", name, gotMeta, meta)
		}
		if !maps.EqualFunc(gotTags, tags, slices.Equal[[]uint64]) {
			t.Errorf("%s: tags round trip: %v != %v", name, gotTags, tags)
		}
		if len(gotOps) != len(ops) {
			t.Fatalf("%s: ops round trip: %d != %d", name, len(gotOps), len(ops))
		}
		for i := range gotOps {
			if gotOps[i] != ops[i] {
				t.Fatalf("%s: op %d round trip: %+v != %+v", name, i, gotOps[i], ops[i])
			}
		}
	}
}

// TestMaxWireSize pins the loader's read bound to the format: a trace
// whose header block sits exactly at Decode's cap encodes to
// MaxWireSize bytes and decodes, and one more header byte is refused.
func TestMaxWireSize(t *testing.T) {
	ops := make([]Op, DefaultChunkOps+1)
	// With an empty src, one meta word and no tags, the header block is
	// the key plus 36 bytes of lengths, the meta word and the op count.
	key := strings.Repeat("k", maxHeaderLen-36)
	buf := Encode(key, "", []uint64{1}, nil, ops)
	if want := MaxWireSize(len(ops)); len(buf) != want {
		t.Errorf("largest header encodes to %d bytes, MaxWireSize says %d", len(buf), want)
	}
	if _, _, _, _, _, err := Decode(buf); err != nil {
		t.Errorf("trace at the header cap does not decode: %v", err)
	}
	if _, _, _, _, _, err := Decode(Encode(key+"k", "", []uint64{1}, nil, ops)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("header one byte over the cap decoded with %v, want ErrCorrupt", err)
	}
}

// corruptEncodings returns damaged variants of a small valid encoding.
func corruptEncodings() map[string][]byte {
	r := NewRecorder(0)
	for i := 0; i < 20; i++ {
		r.Access(uint64(i*64), 0)
	}
	tr, _ := r.Take()
	good := Encode("k", "s", []uint64{1}, nil, tr.Ops)

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:8],
		"magic":     append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-5],
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	cases["bitflip"] = flipped
	cases["trailing"] = append(bytes.Clone(good), 0)
	return cases
}

func TestDecodeRejectsCorruption(t *testing.T) {
	for name, buf := range corruptEncodings() {
		if _, _, _, _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v on corrupted input, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecode holds Decode to its contract on arbitrary bytes: it never
// panics, every error is ErrCorrupt, and whatever it accepts
// re-encodes to a buffer that decodes to the same trace. The seeds are
// small on purpose: one multi-chunk encoding is over 128 KiB, which
// slows the fuzzer by orders of magnitude.
func FuzzDecode(f *testing.F) {
	var kinds []Kind
	for k := Kind(0); k < kindCount; k++ {
		if k.live() {
			kinds = append(kinds, k)
		}
	}
	for _, n := range []int{0, 1, 12, 40} {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Kind: kinds[i%len(kinds)], Addr: uint64(i * 64), Arg: uint64(i), Stride: 64,
				Flags: uint32(i % 3), Pre: uint8(i % 3), PreN: uint16(i)}
		}
		f.Add(Encode("key", "src", []uint64{uint64(n)}, map[string][]uint64{"fp": {1, 2, 3}}, ops))
	}
	for _, buf := range corruptEncodings() {
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		key, src, meta, tags, ops, err := Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		key2, src2, meta2, tags2, ops2, err := Decode(Encode(key, src, meta, tags, ops))
		if err != nil {
			t.Fatalf("accepted trace does not survive a re-encode: %v", err)
		}
		if key2 != key || src2 != src || !slices.Equal(meta2, meta) ||
			!maps.EqualFunc(tags2, tags, slices.Equal[[]uint64]) || !slices.Equal(ops2, ops) {
			t.Fatal("accepted trace decodes differently after a re-encode")
		}
	})
}

// TestDecodeRejectsReservedKinds pins the retired scratchpad kinds'
// wire values: 8-10 stay reserved, so KWarm and KReset keep 11 and 12,
// and a file holding a reserved value (or one past the last kind) is
// ErrCorrupt like any other undecodable file.
func TestDecodeRejectsReservedKinds(t *testing.T) {
	if KWarm != 11 || KReset != 12 {
		t.Fatalf("KWarm, KReset = %d, %d; their wire values are 11 and 12", KWarm, KReset)
	}
	ok := []Op{{Kind: KWarm, Addr: 64, Arg: 4096}, {Kind: KReset}}
	if _, _, _, _, _, err := Decode(Encode("k", "s", nil, nil, ok)); err != nil {
		t.Fatalf("live kinds rejected: %v", err)
	}
	for _, k := range []Kind{8, 9, 10, kindCount, 255} {
		buf := Encode("k", "s", nil, nil, []Op{{Kind: KOps, Arg: 1}, {Kind: k, Arg: 1}})
		if _, _, _, _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("kind %d decoded with %v, want ErrCorrupt", k, err)
		}
	}
}

// TestDecodeRejectsV1 pins that a v1-era file is just an undecodable
// file: ErrCorrupt, with the version named in the message, so the
// harness treats it like any other corrupt trace (a miss that
// re-records over it).
func TestDecodeRejectsV1(t *testing.T) {
	var v1 []byte
	v1 = append(v1, traceMagic...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // version
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // v1 keyLen
	v1 = append(v1, 'k')                         // v1 key
	v1 = binary.LittleEndian.AppendUint32(v1, 0) // v1 metaLen
	v1 = binary.LittleEndian.AppendUint64(v1, 0) // v1 opCount
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))

	_, _, _, _, _, err := Decode(v1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 file decoded with %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("v1 error %q does not name the version", err)
	}
}

// TestBundleCollapseVec pins the periodic-pre fusion: the vectorized
// sweeps attach one OpStream bundle to the first access of every group
// of 4 lines, and whole sweeps must settle into an accumulated ALU
// record plus one run, not ~2 records per group.
func TestBundleCollapseVec(t *testing.T) {
	const lines, bundle = 64, 14 // 14 = 4*3+2: indivisible by the group on purpose
	r := NewRecorder(0)
	for i := 0; i < lines; i++ {
		if i%4 == 0 {
			r.OpStream(bundle)
		}
		r.Access(uint64(i*64), 0)
	}
	tr, ok := r.Take()
	if !ok {
		t.Fatal("recorder reported abort")
	}
	// Steady state: [KOpStream total, KRun big, last-group head, tail run].
	if len(tr.Ops) > 4 {
		t.Fatalf("vector sweep compressed to %d records, want <=4: %+v", len(tr.Ops), tr.Ops)
	}
	var ops, accesses uint64
	for _, op := range tr.Ops {
		switch op.Kind {
		case KOpStream, KOps:
			ops += op.Arg
		case KRun, KAccess:
			ops += uint64(op.PreN) * op.Arg
			accesses += op.Arg
		default:
			t.Fatalf("unexpected record kind %d: %+v", op.Kind, op)
		}
	}
	if want := uint64(lines / 4 * bundle); ops != want {
		t.Errorf("collapse lost ALU ops: have %d, want %d", ops, want)
	}
	if accesses != lines {
		t.Errorf("collapse lost accesses: have %d, want %d", accesses, lines)
	}
}

// TestBundleCollapseRMW is the same for the vectorized store sweeps,
// whose groups are load/store RMW pairs.
func TestBundleCollapseRMW(t *testing.T) {
	const lines, bundle = 64, 14
	r := NewRecorder(0)
	for i := 0; i < lines; i++ {
		if i%4 == 0 {
			r.OpStream(bundle)
		}
		r.Access(uint64(i*64), 0)
		r.Access(uint64(i*64), writeBit)
	}
	tr, ok := r.Take()
	if !ok {
		t.Fatal("recorder reported abort")
	}
	if len(tr.Ops) > 4 {
		t.Fatalf("RMW vector sweep compressed to %d records, want <=4: %+v", len(tr.Ops), tr.Ops)
	}
	var pairs uint64
	for _, op := range tr.Ops {
		if op.Kind == KRMW {
			pairs += op.Arg
		}
	}
	if pairs != lines {
		t.Errorf("collapse lost RMW pairs: have %d, want %d", pairs, lines)
	}
}

// TestBundleCollapseRequiresGeometry pins that the collapse never fires
// across a stride break: a new sweep restarting at the base address
// must not fold into the previous sweep's records.
func TestBundleCollapseRequiresGeometry(t *testing.T) {
	r := NewRecorder(0)
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < 8; i++ {
			if i%4 == 0 {
				r.OpStream(8)
			}
			r.Access(uint64(i*64), 0)
		}
	}
	tr, ok := r.Take()
	if !ok {
		t.Fatal("recorder reported abort")
	}
	var accesses uint64
	for _, op := range tr.Ops {
		if op.Kind == KRun || op.Kind == KAccess {
			accesses += op.Arg
		}
	}
	if accesses != 16 {
		t.Errorf("stride break mangled the stream: %d accesses, want 16: %+v", accesses, tr.Ops)
	}
}
