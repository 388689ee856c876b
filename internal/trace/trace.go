// Package trace records and replays the dynamic operation stream of a
// simulated run. The simulator's observable outputs — cycle counts,
// instruction counts, cache and BIA statistics, attacker telemetry —
// depend only on the sequence of machine primitives a workload executes
// (ALU op batches, addressed memory accesses with their flags, CT
// micro-op probes, warm-ups, stat resets), never on the data values in
// simulated memory. Constant-time programs make that stream
// input-shape-dependent only, and even the insecure baselines derive it
// deterministically from the workload parameters. A stream captured
// once can therefore be replayed against a cold machine to reproduce a
// run bit-identically, skipping the workload front end (Go control
// flow, address generation, strategy dispatch) entirely.
//
// The recorder compresses as it captures: consecutive ALU ops fuse into
// one record, an access absorbs the ALU ops issued just before it (the
// per-iteration overhead of a linearization sweep), equal-stride access
// repetitions extend into runs, and load/store pairs at one address
// collapse into read-modify-write runs. A full DS sweep — the dominant
// instruction stream of every protected configuration — compresses to a
// single record, which is also what makes batched replay possible: the
// interpreter hands whole runs to the cache hierarchy in one call.
//
// Fusion is exact, not approximate. Op(a);Op(b) ≡ Op(a+b) and
// OpStream(a);OpStream(b) ≡ OpStream(a+b) hold by the carry
// decomposition of the wide-issue accounting, and accesses never touch
// the ALU accounting state, so hoisting a run's per-iteration pre-ops
// into one bulk call is order-independent.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Kind discriminates trace operations.
type Kind uint8

// Trace operation kinds.
const (
	// KOps is Arg dependent ALU instructions (Machine.Op).
	KOps Kind = iota
	// KOpStream is Arg streaming ALU instructions (Machine.OpStream).
	KOpStream
	// KAccess is one demand access at Addr with Flags, preceded by the
	// fused pre-ops (Pre/PreN).
	KAccess
	// KRun is Arg demand accesses at Addr, Addr+Stride, ..., each
	// preceded by PreN pre-ops of class Pre.
	KRun
	// KRMW is Arg load+store pairs: per iteration the pre-ops, a load
	// at Addr+i*Stride with Flags, then a store at the same address
	// with Flags|writeBit.
	KRMW
	// KCTLoad is one CTLoad micro-op header at Addr (BIA lookup + CT
	// cache probe; also the MacroCTLoad header, whose accounting is
	// identical).
	KCTLoad
	// KCTStore is one CTStore micro-op header at Addr.
	KCTStore
	// KMacroStoreHdr is the MacroCTStore header at Addr: one retired
	// macro-op performing an internal CTLoad probe then a CTStore
	// probe.
	KMacroStoreHdr
	// kReserved is the first of three reserved wire values (8-10).
	// They once held scratchpad operations, which no recording can
	// contain: a machine refuses scratchpad ops while a recorder is
	// attached. Decode rejects them; they stay reserved so KWarm and
	// KReset keep their wire values.
	kReserved
	_
	_
	// KWarm is Machine.WarmRegion(Addr, Arg).
	KWarm
	// KReset is Machine.ResetStats.
	KReset

	kindCount
)

// live reports whether k is a kind a recording can contain: below
// kindCount and not reserved.
func (k Kind) live() bool { return k < kindCount && (k < kReserved || k >= KWarm) }

// Pre-op classes for Op.Pre.
const (
	// PreNone marks an access with no fused pre-ops.
	PreNone uint8 = iota
	// PreOps marks PreN dependent ALU pre-ops per iteration.
	PreOps
	// PreStream marks PreN streaming ALU pre-ops per iteration.
	PreStream
)

// writeBit is the bit the recorder assumes distinguishes a store's
// flags from the matching load's when collapsing read-modify-write
// pairs. It must equal the cpu/cache packages' write flag; the cpu
// package asserts the correspondence at test time.
const writeBit uint32 = 1

// Op is one record of the compressed stream. The interpretation of the
// fields depends on Kind (see the kind constants); unlisted fields are
// zero.
type Op struct {
	// Addr is the (base) address of the operation.
	Addr uint64
	// Arg is a count: ALU instructions or run length, or a region size
	// for KWarm.
	Arg uint64
	// Stride is the per-iteration address increment of run kinds.
	Stride int64
	// Flags carries the machine-level access flags (including the
	// machine-internal bypass/streaming bits).
	Flags uint32
	// Kind discriminates the record.
	Kind Kind
	// Pre is the pre-op class fused into each iteration.
	Pre uint8
	// PreN is the pre-op count per iteration.
	PreN uint16
}

// Trace is one recorded stream.
type Trace struct {
	Ops []Op
}

// Recorder captures and compresses a stream. The zero value is not
// usable; use NewRecorder. A Recorder is not safe for concurrent use
// (one machine, one recorder).
type Recorder struct {
	ops []Op
	// pend accumulates ALU ops not yet attached to a record.
	pend  uint8
	pendN uint64
	// limit bounds len(ops); exceeding it aborts the recording (the
	// stream is too irregular to be worth holding in memory).
	limit   int
	aborted bool
	// events counts recorded primitives (ALU instructions, accesses,
	// micro-ops) and minRatio, when nonzero, aborts once the stream
	// demonstrably compresses worse than minRatio events per record —
	// cheaply, long before the record cap is reached.
	events   uint64
	minRatio uint64
}

// NewRecorder returns a recorder that aborts beyond limit compressed
// records (0 means a default generous cap).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 22
	}
	return &Recorder{limit: limit}
}

// Aborted reports whether the recording overflowed or was marked
// untraceable.
func (r *Recorder) Aborted() bool { return r.aborted }

// RequireCompression aborts the recording early if, past a small
// warm-up, the stream compresses worse than ratio primitives per
// record. An incompressible stream (data-dependent random accesses)
// costs nearly a record per access; insisting on compression caps the
// memory and copying wasted on a recording that would be abandoned at
// the record cap anyway.
func (r *Recorder) RequireCompression(ratio int) { r.minRatio = uint64(ratio) }

// ratioGraceRecords is how many records a recording may emit before
// RequireCompression starts judging it.
const ratioGraceRecords = 4096

// DebugCounts exposes the record/event counters for diagnostics.
func (r *Recorder) DebugCounts() (records int, events uint64) { return len(r.ops), r.events }

// Abort marks the stream untraceable (e.g. an operation the encoding
// does not cover); Take will return nothing.
func (r *Recorder) Abort() {
	r.aborted = true
	r.ops = nil
}

// Take flushes pending state and returns the finished trace, or false
// if the recording aborted. The recorder must not be reused after.
func (r *Recorder) Take() (*Trace, bool) {
	if r.aborted {
		return nil, false
	}
	r.flushPend()
	if r.aborted {
		return nil, false
	}
	t := &Trace{Ops: r.ops}
	r.ops = nil
	return t, true
}

// push appends a record, enforcing the cap and the compression gate.
func (r *Recorder) push(op Op) {
	if r.aborted {
		return
	}
	if len(r.ops) >= r.limit {
		r.Abort()
		return
	}
	if r.minRatio != 0 && len(r.ops) >= ratioGraceRecords &&
		uint64(len(r.ops))*r.minRatio > r.events {
		r.Abort()
		return
	}
	r.ops = append(r.ops, op)
}

// flushPend materializes accumulated ALU ops as a standalone record.
func (r *Recorder) flushPend() {
	if r.pend == PreNone || r.pendN == 0 {
		r.pend, r.pendN = PreNone, 0
		return
	}
	k := KOps
	if r.pend == PreStream {
		k = KOpStream
	}
	r.push(Op{Kind: k, Arg: r.pendN})
	r.pend, r.pendN = PreNone, 0
}

// Op records n dependent ALU instructions.
func (r *Recorder) Op(n int) {
	if r.aborted {
		return
	}
	r.events += uint64(n)
	if r.pend == PreOps {
		r.pendN += uint64(n)
		return
	}
	r.flushPend()
	r.pend, r.pendN = PreOps, uint64(n)
}

// OpStream records n streaming ALU instructions.
func (r *Recorder) OpStream(n int) {
	if r.aborted {
		return
	}
	r.events += uint64(n)
	if r.pend == PreStream {
		r.pendN += uint64(n)
		return
	}
	r.flushPend()
	r.pend, r.pendN = PreStream, uint64(n)
}

// Access records one demand access, fusing the pending ALU ops into it
// and merging it into runs/RMW runs where the pattern allows.
func (r *Recorder) Access(addr uint64, flags uint32) {
	if r.aborted {
		return
	}
	r.events++
	pre, preN := PreNone, uint16(0)
	if r.pend != PreNone {
		if r.pendN <= 0xffff {
			pre, preN = r.pend, uint16(r.pendN)
			r.pend, r.pendN = PreNone, 0
		} else {
			r.flushPend()
		}
	}

	if pre != PreNone {
		r.collapseBundle(addr, pre)
	}

	if n := len(r.ops); n > 0 {
		t := &r.ops[n-1]
		// A store at the address the previous record just loaded, with
		// the same flags apart from the write bit and no pre-ops of its
		// own: collapse into a read-modify-write record (the body of
		// every linearized store sweep).
		if pre == PreNone && flags&writeBit != 0 {
			lf := flags &^ writeBit
			if t.Kind == KAccess && t.Addr == addr && t.Flags == lf {
				t.Kind = KRMW
				// The freshly closed pair may continue the RMW run
				// before it.
				if n >= 2 {
					u := &r.ops[n-2]
					if u.Kind == KRMW && u.Flags == t.Flags && u.Pre == t.Pre && u.PreN == t.PreN {
						if u.Arg == 1 {
							u.Stride = int64(addr - u.Addr)
							u.Arg = 2
							r.ops = r.ops[:n-1]
						} else if u.Addr+uint64(u.Stride)*u.Arg == addr {
							u.Arg++
							r.ops = r.ops[:n-1]
						}
					}
				}
				return
			}
		}
		// Extend an equal-stride run.
		if t.Kind == KRun && t.Flags == flags && t.Pre == pre && t.PreN == preN &&
			t.Addr+uint64(t.Stride)*t.Arg == addr {
			t.Arg++
			return
		}
		// Open a run from a matching single.
		if t.Kind == KAccess && t.Flags == flags && t.Pre == pre && t.PreN == preN {
			t.Kind = KRun
			t.Stride = int64(addr - t.Addr)
			t.Arg = 2
			return
		}
	}
	r.push(Op{Kind: KAccess, Addr: addr, Arg: 1, Flags: flags, Pre: pre, PreN: preN})
}

// collapseBundle fuses periodic-pre sweeps. The vectorized strategies
// attach one ALU bundle to the first access of every group of g
// equal-stride accesses (one OpStream per vector of lines), which
// defeats plain run fusion: the pre-carrying head never matches the
// pre-less tail, leaving ~2 records per group. When the next group's
// head arrives — proving the previous group complete as
// [head(pre=p), run of g-1 without pre] — the head's p ops are hoisted
// out into a standalone accumulated ALU record and the group becomes
// one pre-less run, both merged into the [ALU total, run] pair before
// them when contiguous, so a whole sweep settles into two records. The
// rewrite is machine-state exact: ALU charging (Op/OpStream) is a pure
// accumulator with no coupling to access charging, and cache events
// carry no timestamps, so moving the same op total across a stream's
// accesses replays identically — and every replay is still verified
// against the recorded report.
func (r *Recorder) collapseBundle(addr uint64, pre uint8) {
	n := len(r.ops)
	if n < 2 {
		return
	}
	u, t := &r.ops[n-2], &r.ops[n-1]
	if u.Pre != pre || u.PreN == 0 || t.Pre != PreNone || u.Flags != t.Flags {
		return
	}
	// The completed group is either a plain-access bundle (single head +
	// run tail) or an RMW bundle (single RMW head + RMW-run tail).
	var kind Kind
	switch {
	case u.Kind == KAccess && t.Kind == KRun:
		kind = KRun
	case u.Kind == KRMW && u.Arg == 1 && t.Kind == KRMW:
		kind = KRMW
	default:
		return
	}
	s := int64(t.Addr - u.Addr)
	if t.Arg > 1 && t.Stride != s {
		return
	}
	if addr != t.Addr+uint64(s)*t.Arg {
		return
	}
	alu := Op{Kind: KOps, Arg: uint64(u.PreN)}
	if pre == PreStream {
		alu.Kind = KOpStream
	}
	run := Op{Kind: kind, Addr: u.Addr, Arg: t.Arg + 1, Stride: s, Flags: u.Flags}
	r.ops = r.ops[:n-2]
	if m := len(r.ops); m >= 2 {
		a, v := &r.ops[m-2], &r.ops[m-1]
		if a.Kind == alu.Kind && v.Kind == run.Kind && v.Flags == run.Flags &&
			v.Pre == PreNone && v.Stride == run.Stride &&
			v.Addr+uint64(v.Stride)*v.Arg == run.Addr {
			a.Arg += alu.Arg
			v.Arg += run.Arg
			return
		}
	}
	r.ops = append(r.ops, alu, run)
}

// single flushes pending ops and appends a non-mergeable record.
func (r *Recorder) single(op Op) {
	if r.aborted {
		return
	}
	r.events++
	r.flushPend()
	r.push(op)
}

// CTLoad records a CTLoad (or MacroCTLoad) header at addr.
func (r *Recorder) CTLoad(addr uint64) { r.single(Op{Kind: KCTLoad, Addr: addr}) }

// CTStore records a CTStore header at addr.
func (r *Recorder) CTStore(addr uint64) { r.single(Op{Kind: KCTStore, Addr: addr}) }

// MacroStoreHdr records a MacroCTStore header at addr.
func (r *Recorder) MacroStoreHdr(addr uint64) { r.single(Op{Kind: KMacroStoreHdr, Addr: addr}) }

// Warm records a WarmRegion call.
func (r *Recorder) Warm(base, size uint64) { r.single(Op{Kind: KWarm, Addr: base, Arg: size}) }

// ResetStats records a ResetStats call.
func (r *Recorder) ResetStats() { r.single(Op{Kind: KReset}) }

// Binary persistence, format v2. Layout (little-endian):
//
//	magic "CTRT" | version u32 = 2 | headerLen u32 |
//	header block (headerLen bytes):
//	    keyLen u32 | key | srcLen u32 | src |
//	    metaLen u32 | meta u64s |
//	    tagCount u32 | tags: nameLen u32 | name | wordLen u32 | words u64s |
//	    opCount u64 | chunkCap u32
//	headerCRC u32 (over everything before it) |
//	chunks: ops (32 B each, min(chunkCap, remaining) per chunk) |
//	        chunkCRC u32 (over that chunk's op bytes)
//
// The key is the caller's full identity string (not a hash), so a
// loader can reject a file that a hash collision or a renamed file maps
// to the wrong identity. src names where the stream came from (the
// harness stores the recording machine's config fingerprint); meta
// carries caller-opaque words (the workload checksum) and tags carry
// named word vectors (one expected report per machine config the stream
// has verified against). The ops are framed in fixed-size chunks, each
// integrity-checked by its own CRC, so a flipped bit is pinned to the
// chunk it hit; no reader streams the chunks — Decode checks every one
// before it returns any op. Any mismatch — magic, version, a length
// past its bounds, truncation, CRC, trailing bytes — is ErrCorrupt and
// the caller treats the file as a miss.

const (
	traceMagic   = "CTRT"
	traceVersion = 2
	opWireSize   = 8 + 8 + 8 + 4 + 1 + 1 + 2

	// DefaultChunkOps is the chunk granularity Encode frames ops at:
	// 128 KiB of op bytes per CRC. The chunk CRCs only localize damage:
	// nothing streams the chunks, and Decode checks them all.
	DefaultChunkOps = 4096

	// maxHeaderLen bounds the header block Decode accepts; real headers
	// are a few hundred bytes (key + a handful of report tags).
	maxHeaderLen = 1 << 20
)

// ErrCorrupt reports an undecodable trace file, including one in a
// format version this package does not speak (the wrapped error names
// the version).
var ErrCorrupt = errors.New("trace: corrupt or truncated trace")

// numChunks returns how many op chunks a trace of nOps encodes to.
func numChunks(nOps int) int {
	return (nOps + DefaultChunkOps - 1) / DefaultChunkOps
}

// WireSize returns the exact encoded size of a tagless trace with a
// keyLen-byte key, a srcLen-byte source string, metaLen metadata words
// and nOps operations — what Encode would produce — including the v2
// header and per-chunk CRC framing. Add TagWireSize per tag for a
// tagged trace. The observability layer uses these to account
// record/replay byte volume without re-encoding.
func WireSize(keyLen, srcLen, metaLen, nOps int) int {
	header := 4 + keyLen + 4 + srcLen + 4 + 8*metaLen + 4 + 8 + 4
	return 4 + 4 + 4 + header + 4 + opWireSize*nOps + 4*numChunks(nOps)
}

// TagWireSize returns the encoded size of one header tag: a
// nameLen-byte name with a words-long u64 vector.
func TagWireSize(nameLen, words int) int {
	return 4 + nameLen + 4 + 8*words
}

// MaxWireSize returns the largest file Encode writes for nOps ops that
// Decode accepts: a header block at Decode's cap plus the ops in
// DefaultChunkOps chunks. A loader can refuse a bigger file unread.
func MaxWireSize(nOps int) int {
	return 4 + 4 + 4 + maxHeaderLen + 4 + opWireSize*nOps + 4*numChunks(nOps)
}

// appendOp serializes one op record.
func appendOp(buf []byte, op *Op) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, op.Addr)
	buf = binary.LittleEndian.AppendUint64(buf, op.Arg)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.Stride))
	buf = binary.LittleEndian.AppendUint32(buf, op.Flags)
	buf = append(buf, byte(op.Kind), op.Pre)
	buf = binary.LittleEndian.AppendUint16(buf, op.PreN)
	return buf
}

// decodeOp deserializes one op record from b (at least opWireSize
// bytes).
func decodeOp(b []byte) Op {
	return Op{
		Addr:   binary.LittleEndian.Uint64(b[0:]),
		Arg:    binary.LittleEndian.Uint64(b[8:]),
		Stride: int64(binary.LittleEndian.Uint64(b[16:])),
		Flags:  binary.LittleEndian.Uint32(b[24:]),
		Kind:   Kind(b[28]),
		Pre:    b[29],
		PreN:   binary.LittleEndian.Uint16(b[30:]),
	}
}

// Encode serializes a trace with its identity key, source string,
// opaque metadata and named tag vectors. Tags are written in sorted
// name order, so equal inputs encode byte-identically.
func Encode(key, src string, meta []uint64, tags map[string][]uint64, ops []Op) []byte {
	n := WireSize(len(key), len(src), len(meta), len(ops))
	names := make([]string, 0, len(tags))
	for name := range tags {
		names = append(names, name)
		n += TagWireSize(len(name), len(tags[name]))
	}
	sort.Strings(names)

	buf := make([]byte, 0, n)
	buf = append(buf, traceMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, traceVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // headerLen, patched below
	headerStart := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(src)))
	buf = append(buf, src...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for _, v := range meta {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		words := tags[name]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(words)))
		for _, v := range words {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ops)))
	buf = binary.LittleEndian.AppendUint32(buf, DefaultChunkOps)
	binary.LittleEndian.PutUint32(buf[headerStart-4:], uint32(len(buf)-headerStart))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	for at := 0; at < len(ops); at += DefaultChunkOps {
		end := at + DefaultChunkOps
		if end > len(ops) {
			end = len(ops)
		}
		chunkStart := len(buf)
		for i := at; i < end; i++ {
			buf = appendOp(buf, &ops[i])
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[chunkStart:]))
	}
	return buf
}

// cursor reads little-endian fields off the front of p. A read past the
// end sets bad and yields zero values, so a parse can run several reads
// and check bad once after them.
type cursor struct {
	p   []byte
	bad bool
}

// take returns the next n bytes.
func (c *cursor) take(n uint64) []byte {
	if c.bad || n > uint64(len(c.p)) {
		c.bad = true
		return nil
	}
	b := c.p[:n:n]
	c.p = c.p[n:]
	return b
}

// u32 reads one u32, widened so callers can bound it without casts.
func (c *cursor) u32() uint64 {
	if b := c.take(4); !c.bad {
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// words reads a u32 count and that many u64s; a count larger than the
// bytes left fails before anything is allocated.
func (c *cursor) words() []uint64 {
	n := c.u32()
	if n > uint64(len(c.p))/8 {
		c.bad = true
		return nil
	}
	w := make([]uint64, n)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(c.take(8))
	}
	return w
}

// Decode parses an Encode'd buffer in place, verifying the header
// bounds and CRC, every chunk's CRC, that every op's kind is live
// (known and not reserved), and that the buffer ends exactly after the
// last chunk. Every count is checked against the bytes present before
// it sizes an allocation, so what Decode allocates stays proportional
// to len(buf); every failure wraps ErrCorrupt.
func Decode(buf []byte) (key, src string, meta []uint64, tags map[string][]uint64, ops []Op, err error) {
	fail := func(err error) (string, string, []uint64, map[string][]uint64, []Op, error) {
		return "", "", nil, nil, nil, err
	}
	if len(buf) < 12 || string(buf[:4]) != traceMagic {
		return fail(ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != traceVersion {
		return fail(fmt.Errorf("%w (unsupported format version %d)", ErrCorrupt, v))
	}
	end := 12 + uint64(binary.LittleEndian.Uint32(buf[8:]))
	if end < 12+4+4+4+4+8+4 || end > 12+maxHeaderLen || end+4 > uint64(len(buf)) ||
		crc32.ChecksumIEEE(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return fail(ErrCorrupt)
	}
	h := cursor{p: buf[12:end]}
	key = string(h.take(h.u32()))
	src = string(h.take(h.u32()))
	meta = h.words()
	n := h.u32()
	if n > uint64(len(h.p))/8 { // a tag is at least its two lengths
		return fail(ErrCorrupt)
	}
	tags = make(map[string][]uint64, n)
	for ; n > 0 && !h.bad; n-- {
		name := string(h.take(h.u32()))
		tags[name] = h.words()
	}
	var nOps uint64
	if b := h.take(8); !h.bad {
		nOps = binary.LittleEndian.Uint64(b)
	}
	chunkOps := h.u32()
	body := cursor{p: buf[end+4:]}
	if h.bad || len(h.p) != 0 || chunkOps == 0 || chunkOps > 1<<20 ||
		nOps > uint64(len(body.p))/opWireSize {
		return fail(ErrCorrupt)
	}
	ops = make([]Op, 0, nOps)
	for uint64(len(ops)) < nOps {
		chunk := body.take(min(nOps-uint64(len(ops)), chunkOps) * opWireSize)
		if sum := body.u32(); body.bad || uint64(crc32.ChecksumIEEE(chunk)) != sum {
			return fail(ErrCorrupt)
		}
		for i := 0; i < len(chunk); i += opWireSize {
			op := decodeOp(chunk[i:])
			if !op.Kind.live() {
				return fail(fmt.Errorf("%w (kind)", ErrCorrupt))
			}
			ops = append(ops, op)
		}
	}
	if len(body.p) != 0 {
		return fail(fmt.Errorf("%w (trailing bytes)", ErrCorrupt))
	}
	return key, src, meta, tags, ops, nil
}
