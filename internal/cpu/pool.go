package cpu

import "sync"

// Pool recycles Machines of one configuration. Building a Table 1
// machine allocates about 5.0 MB of cache metadata and costs more than
// many of the kernels it then simulates; an experiment sweep that
// builds four machines per data point therefore spends a large share of
// its wall time in allocation and GC. A Pool turns those builds into
// Resets, which touch only the footprint the previous run actually
// dirtied.
//
// Get returns a machine in the exact state New(cfg) would produce —
// Reset restores cold state, and the harness's reset-equivalence test
// pins bit-identical reports — so pooling is invisible to results.
// Pool is safe for concurrent use; the machines it hands out are not
// (one machine per goroutine, as ever).
type Pool struct {
	cfg Config

	// spare is the one idle machine the pool keeps, held strongly so a
	// serial sweep never rebuilds, whatever the GC does. A machine put
	// back while spare is taken (the second of two concurrent users of
	// a config) is left to the GC: a sweep whose machines are all pooled
	// allocates little, so GCs are rare, and an overflow machine kept
	// between them would count in the live heap, which the GC's heap
	// target doubles.
	mu    sync.Mutex
	spare *Machine
}

// NewPool returns a pool producing machines of the given configuration.
func NewPool(cfg Config) *Pool { return &Pool{cfg: cfg} }

// Config returns the configuration the pool's machines are built with.
func (p *Pool) Config() Config { return p.cfg }

// Get returns a cold machine: the recycled spare after Reset, or a
// freshly built one when the spare is in use.
func (p *Pool) Get() *Machine {
	p.mu.Lock()
	m := p.spare
	p.spare = nil
	p.mu.Unlock()
	if m == nil {
		return New(p.cfg)
	}
	m.Reset()
	return m
}

// Put returns a machine to the pool, which keeps it as its spare unless
// it already holds one. The machine must have been built with the
// pool's configuration; its state need not be clean (Get resets on the
// way out). Putting a machine while any of its state is still
// referenced elsewhere is a data race, exactly like freeing it.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	if p.spare == nil {
		p.spare = m
	}
	p.mu.Unlock()
}
