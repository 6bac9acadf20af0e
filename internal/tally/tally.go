// Package tally implements the energy-deposition tally of the neutral
// mini-app.
//
// The tally is a reduction into the mesh: every particle deposits energy
// into the cell it traverses, creating a write dependency that must be
// resolved atomically (paper §V-C). The paper finds the atomic
// read-modify-write at every facet encounter accounts for ~50% of Over
// Particles runtime on the Xeon, and studies privatising the tally per
// thread (§VI-F): it removes the atomic but multiplies the memory footprint
// by the thread count, and if tallies must be merged every timestep (the
// realistic coupled-physics case) the merge costs more than the atomics.
//
// Four implementations share the Tally interface:
//
//   - Atomic: lock-free CAS-loop float64 accumulation (thread-safe).
//   - Private: per-worker meshes merged on demand (thread-safe, no atomics).
//   - Serial: plain adds, for single-threaded reference runs.
//   - Null: discards deposits; differential timing against it isolates the
//     cost of tallying (how the harness reproduces the paper's 50%/22%
//     profile figures).
package tally

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Tally accumulates per-cell energy deposition. Add is called from worker
// goroutines identified by worker (0-based); implementations decide whether
// worker matters. Cells returns the merged per-cell totals.
type Tally interface {
	// Add deposits v into the flat cell index.
	Add(worker, cell int, v float64)
	// Cells merges (if needed) and returns the per-cell totals. The
	// returned slice must not be mutated by the caller.
	Cells() []float64
	// Total returns the sum over all cells.
	Total() float64
	// Reset zeroes the tally for the next timestep.
	Reset()
	// Name identifies the implementation for reports.
	Name() string
}

// Mode selects a tally implementation.
type Mode int

const (
	// ModeAtomic uses CAS-loop atomic float adds — the mini-app default.
	ModeAtomic Mode = iota
	// ModePrivate privatises the tally per worker and merges lazily.
	ModePrivate
	// ModeSerial uses plain adds; valid only with one worker.
	ModeSerial
	// ModeNull discards deposits (profiling baseline).
	ModeNull
	// ModeBuffered interposes a per-worker write-combining deposit buffer
	// in front of an atomic tally: repeated deposits into the same cell
	// coalesce locally and reach the shared mesh in batches, cutting CAS
	// traffic on the contended hot cells (paper §V-C/§VI-F).
	ModeBuffered
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModePrivate:
		return "private"
	case ModeSerial:
		return "serial"
	case ModeNull:
		return "null"
	case ModeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a name to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "atomic":
		return ModeAtomic, nil
	case "private":
		return ModePrivate, nil
	case "serial":
		return ModeSerial, nil
	case "null":
		return ModeNull, nil
	case "buffered":
		return ModeBuffered, nil
	default:
		return 0, fmt.Errorf("tally: unknown mode %q", s)
	}
}

// New constructs a tally of the given mode over cells cells for workers
// workers.
func New(mode Mode, cells, workers int) Tally {
	switch mode {
	case ModeAtomic:
		a := NewAtomic(cells)
		a.serial = workers == 1
		return a
	case ModePrivate:
		return NewPrivate(cells, workers)
	case ModeSerial:
		return NewSerial(cells)
	case ModeNull:
		return Null{}
	case ModeBuffered:
		b := NewAtomic(cells)
		b.serial = workers == 1
		return NewBuffered(b, workers)
	default:
		panic(fmt.Sprintf("tally: unknown mode %v", mode))
	}
}

// sum is a shared helper.
func sum(cells []float64) float64 {
	var t float64
	for _, v := range cells {
		t += v
	}
	return t
}

// Atomic accumulates with compare-and-swap loops on the raw float bits —
// the software equivalent of the hardware double-precision atomicAdd the
// paper highlights on the P100 (and had to emulate on the K20X).
type Atomic struct {
	bits []uint64
	// Conflicts counts CAS retries; it is a direct measure of tally
	// contention ("the atomic operations conflict less often", §VII-A).
	conflicts atomic.Uint64
	// cells is the float64 view Cells returns, allocated on the first
	// call: a run that only reads Total never pays a second mesh-sized
	// array.
	cells []float64
	// serial marks a tally with exactly one writer (workers == 1): Add
	// skips the lock-prefixed CAS for a plain read-modify-write, which
	// computes the identical sum in the identical order — an uncontended
	// CAS always succeeds on the first try — without the ~20-cycle
	// serialisation tax per deposit.
	serial bool
}

// NewAtomic allocates an atomic tally over cells cells.
func NewAtomic(cells int) *Atomic {
	return &Atomic{bits: make([]uint64, cells)}
}

// Add deposits v into cell with a CAS loop (plain read-modify-write for a
// single-writer tally — same bits, no lock prefix).
func (a *Atomic) Add(_, cell int, v float64) {
	addr := &a.bits[cell]
	if a.serial {
		*addr = math.Float64bits(math.Float64frombits(*addr) + v)
		return
	}
	for {
		old := atomic.LoadUint64(addr)
		new := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(addr, old, new) {
			return
		}
		a.conflicts.Add(1)
	}
}

// Cells returns the per-cell totals.
func (a *Atomic) Cells() []float64 {
	if a.cells == nil {
		a.cells = make([]float64, len(a.bits))
	}
	for i := range a.bits {
		a.cells[i] = math.Float64frombits(atomic.LoadUint64(&a.bits[i]))
	}
	return a.cells
}

// Total returns the sum over cells, in index order: the same sum, bit for
// bit, as over Cells.
func (a *Atomic) Total() float64 {
	var t float64
	for i := range a.bits {
		t += math.Float64frombits(atomic.LoadUint64(&a.bits[i]))
	}
	return t
}

// Conflicts reports the number of CAS retries observed so far.
func (a *Atomic) Conflicts() uint64 { return a.conflicts.Load() }

// Reset zeroes the tally and its conflict counter.
func (a *Atomic) Reset() {
	for i := range a.bits {
		atomic.StoreUint64(&a.bits[i], 0)
	}
	a.conflicts.Store(0)
}

// Name identifies the implementation.
func (a *Atomic) Name() string { return "atomic" }

// Private keeps one full tally mesh per worker. Adds are contention-free;
// the cost moves to memory footprint (workers x mesh — the paper's KNL
// example grows 0.3 GB to 31 GB at 256 threads) and to the merge.
type Private struct {
	shards [][]float64
	merged []float64
}

// NewPrivate allocates a privatised tally for the given worker count.
func NewPrivate(cells, workers int) *Private {
	if workers < 1 {
		workers = 1
	}
	p := &Private{shards: make([][]float64, workers), merged: make([]float64, cells)}
	for w := range p.shards {
		p.shards[w] = make([]float64, cells)
	}
	return p
}

// Add deposits v into worker w's shard. Workers touch only their own shard,
// so no synchronisation is needed — that is the whole optimisation.
func (p *Private) Add(worker, cell int, v float64) {
	p.shards[worker][cell] += v
}

// Merge folds all shards into the merged mesh. It is exposed separately so
// the harness can charge its cost explicitly: the paper found per-timestep
// merging made privatisation slower than atomics on every architecture.
func (p *Private) Merge() []float64 {
	for i := range p.merged {
		p.merged[i] = 0
	}
	for _, shard := range p.shards {
		for i, v := range shard {
			p.merged[i] += v
		}
	}
	return p.merged
}

// Cells merges and returns the totals. Merging is idempotent; callers that
// care about its cost (the paper's per-timestep merge finding) should call
// Merge explicitly and time it.
func (p *Private) Cells() []float64 { return p.Merge() }

// Total returns the sum over cells.
func (p *Private) Total() float64 { return sum(p.Cells()) }

// Reset zeroes every shard.
func (p *Private) Reset() {
	for _, shard := range p.shards {
		for i := range shard {
			shard[i] = 0
		}
	}
	for i := range p.merged {
		p.merged[i] = 0
	}
}

// Name identifies the implementation.
func (p *Private) Name() string { return "private" }

// Workers reports the shard count.
func (p *Private) Workers() int { return len(p.shards) }

// FootprintBytes reports the privatised tally's memory footprint — the
// paper's capacity concern (§VI-F).
func (p *Private) FootprintBytes() int {
	return len(p.shards) * len(p.merged) * 8
}

// Serial is a plain single-threaded tally.
type Serial struct {
	cells []float64
}

// NewSerial allocates a serial tally.
func NewSerial(cells int) *Serial { return &Serial{cells: make([]float64, cells)} }

// Add deposits v; only valid from a single goroutine.
func (s *Serial) Add(_, cell int, v float64) { s.cells[cell] += v }

// Cells returns the totals.
func (s *Serial) Cells() []float64 { return s.cells }

// Total returns the sum over cells.
func (s *Serial) Total() float64 { return sum(s.cells) }

// Reset zeroes the tally.
func (s *Serial) Reset() {
	for i := range s.cells {
		s.cells[i] = 0
	}
}

// Name identifies the implementation.
func (s *Serial) Name() string { return "serial" }

// Null discards all deposits. Timing a run with Null against the same run
// with Atomic isolates the tallying cost.
type Null struct{}

// Add discards v.
func (Null) Add(_, _ int, _ float64) {}

// Cells returns nil: a null tally holds no data.
func (Null) Cells() []float64 { return nil }

// Total returns zero.
func (Null) Total() float64 { return 0 }

// Reset does nothing.
func (Null) Reset() {}

// Name identifies the implementation.
func (Null) Name() string { return "null" }
