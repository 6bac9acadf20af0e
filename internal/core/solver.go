package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
	"repro/internal/xs"
)

// Result reports everything a run produced: wallclock and phase timings,
// the instrumentation counters, the tally, and the conservation audit.
type Result struct {
	Config  Config
	Wall    time.Duration
	Phases  PhaseTimings
	Counter Counters
	// WorkerBusy records per-worker busy time, exposing the load
	// imbalance the paper investigates in §VI-C.
	WorkerBusy []time.Duration
	// TallyTotal is the total deposited weight-energy (weight-eV).
	TallyTotal float64
	// Cells is a copy of the per-cell tally (KeepCells only).
	Cells []float64
	// Conservation is the population/energy audit.
	Conservation Conservation
	// AtomicConflicts counts CAS retries in the atomic tally (also
	// reported for a buffered tally over an atomic base).
	AtomicConflicts uint64
	// TallyDeposits and TallyBaseWrites report write-combining for the
	// buffered tally: logical deposits absorbed by the per-worker buffers
	// and the batches that actually reached the shared mesh. Zero unless
	// the run used tally.ModeBuffered. Like AtomicConflicts they describe
	// only the live run (they are not carried across snapshot/resume).
	TallyDeposits   uint64
	TallyBaseWrites uint64
	// Leakage is the per-edge vacuum-boundary loss tally: the weight and
	// weight-energy carried out by escaped histories. All-zero on
	// reflective scenes; carried across snapshot/resume like the
	// counters.
	Leakage Leakage
	// Bank is the final particle bank (KeepBank only).
	Bank *particle.Bank
}

// LoadImbalance reports max worker busy time over mean busy time; 1.0 is a
// perfect balance.
func (r *Result) LoadImbalance() float64 {
	if len(r.WorkerBusy) == 0 {
		return 1
	}
	var sum, max time.Duration
	for _, b := range r.WorkerBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	mean := float64(sum) / float64(len(r.WorkerBusy))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// workerState is the per-worker private state: instrumentation counters,
// the per-edge leakage accumulators, and the cross-section cursors that play
// the role of the per-thread cached lookup index in the C implementation.
type workerState struct {
	id      int
	c       Counters
	leak    Leakage
	capCur  *xs.Cursor
	scatCur *xs.Cursor
	busy    time.Duration
	// pfSink anchors the event kernel's prefetch touches: accumulating
	// the touched bytes into worker state keeps the ahead-of-loop loads
	// from being dead-code-eliminated. The value itself is meaningless.
	pfSink uint64
}

// run holds the solver state for one configuration.
type run struct {
	cfg     Config
	mesh    *mesh.Mesh
	sources []particle.SourceTerm
	ctx     events.Context
	bank    *particle.Bank
	tly     tally.Tally
	workers []*workerState

	// birthWeight and birthEnergy are the conservation-audit baselines:
	// exact sums over the records the source sampling stored (weighted
	// and jittered sources make them run-specific). Restored from the
	// snapshot on resume.
	birthWeight float64
	birthEnergy float64

	// base carries counters restored from a snapshot; finish adds it to
	// the live per-worker counters so a resumed run reports the same
	// totals as an uninterrupted one. baseLeak does the same for the
	// per-edge leakage tallies.
	base     Counters
	baseLeak Leakage

	// Over Events compaction scratch: the persistent active-index list
	// and per-event gather buckets (see oeState in overevents.go).
	oe *oeState

	// wwRhoMax is the mesh's peak density, the normalisation of the
	// per-cell weight-window target. Computed at (re)build time, only
	// when the window is enabled.
	wwRhoMax float64

	// canLeak caches mesh.HasVacuum() at (re)build time: all-reflective
	// scenes take the historical inlined facet path, vacuum scenes the
	// boundary-condition-aware one.
	canLeak bool

	// logicalCells is the reusable scratch behind tallyCellsLogical: the
	// tally remapped from storage order to the logical row-major order
	// every external view speaks. Nil until a non-row-major run first asks.
	logicalCells []float64

	// sortKeys/sortPerm are the reusable scratch of the periodic bank sort
	// (SortEvery): packed (cell key, slot) values and the permutation the
	// sort hands to Bank.Permute.
	sortKeys []uint64
	sortPerm []int32

	// speedCache memoises events.Speed(Energy) per bank slot for the Over
	// Events event kernel: a particle's speed is constant between
	// collisions, and the kernel otherwise pays the sqrt on every one of
	// its ~1 segment per round. Zero means "recompute". The cache is
	// cleared at the start of every Over Events step — slots move only at
	// step boundaries (bank sort, splitting), so mid-step the only
	// invalidation is the collision kernel zeroing the slots it changed
	// the energy of. Values are derived data, never snapshotted: a restore
	// recomputes them, so the cache cannot change any observable result.
	speedCache []float64

	// ndCache memoises xs.NumberDensity over the mesh cells, in storage
	// order. The number density is the only use the transport kernels
	// have for a cell's mass density, and the conversion carries an FP
	// divide; converting once per cell at build time instead of once per
	// segment deletes that divide from the hot loops while leaving every
	// sigmaT bit-identical — the kernels multiply the memoised factor in
	// the exact order xs.Macroscopic evaluates. Densities are painted
	// only at (re)build time, so the cache needs no invalidation.
	ndCache []float64

	// team is the current step's worker team (see team.go): started at
	// the step's first parallel launch, closed before Step returns, and
	// always nil at Threads=1 and between steps.
	team *team

	// probe, when non-nil, observes the timed kernel regions (see
	// RegionProbe). Nil-guarded at every site: a disabled probe costs one
	// branch per kernel launch.
	probe RegionProbe

	// Cancellation and progress plumbing (RunCtx). stop is polled from
	// the hot loops and stays read-only until a cancel, so the padding
	// keeps it off the cache line of the counters the workers write.
	stop atomic.Bool
	_    [64]byte
	// done counts histories retired (census or death) in the current
	// step; stepTotal is the in-flight population at the step's start;
	// step is the current 0-based timestep. All three feed the progress
	// monitor.
	done      atomic.Int64
	stepTotal atomic.Int64
	step      atomic.Int64
}

// progress assembles a Progress report from the solver's live counters.
func (r *run) progress() Progress {
	return Progress{
		Step:  int(r.step.Load()),
		Steps: r.cfg.Steps,
		Done:  r.done.Load(),
		Total: r.stepTotal.Load(),
	}
}

// newRun validates the configuration, builds the scene's mesh, the tables,
// tally and worker state, and (when populate is set) fills the source.
// Shared by NewSimulation, RestoreSimulation and RunDomains; restores skip
// the populate because the snapshot overwrites every particle record anyway.
func newRun(cfg Config, populate bool) (*run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := cfg.Scene.Build(cfg.NX, cfg.NY)
	if err != nil {
		return nil, err
	}
	if cfg.CustomDensity != nil {
		cfg.CustomDensity(m)
	}
	// Storage ordering is applied after the scene paint and density hook:
	// both speak logical coordinates, so they never need to know where a
	// cell's value lives.
	m.SetOrdering(cfg.Ordering)
	r := &run{
		cfg:     cfg,
		mesh:    m,
		sources: runSources(cfg),
		ctx: events.Context{
			Mesh:         m,
			XS:           xs.GeneratePair(cfg.XSPoints),
			WeightCutoff: cfg.WeightCutoff,
			EnergyCutoff: cfg.EnergyCutoff,
		},
		bank: particle.NewBank(cfg.Layout, cfg.Particles),
		tly:  tally.New(cfg.Tally, m.NumCells(), cfg.Threads),
	}
	r.canLeak = m.HasVacuum()
	r.buildNDCache()
	r.buildWorkers()
	if cfg.Scheme == OverEvents {
		r.ensureOE()
	}
	if cfg.WeightWindow.Enabled {
		r.wwRhoMax = r.maxDensity()
	}
	if populate {
		r.birthWeight, r.birthEnergy = particle.PopulateSources(
			r.bank, m, r.sources, cfg.Timestep, cfg.Seed, r.idBase())
	}
	return r, nil
}

// runSources resolves the source terms a validated config samples from: the
// scene's sources, unless a CustomSource override replaces them with a
// single unit-weight box.
func runSources(cfg Config) []particle.SourceTerm {
	if cfg.CustomSource != nil {
		return []particle.SourceTerm{{
			Box: *cfg.CustomSource, Share: 1,
			Weight: particle.SourceWeight, Energy: particle.SourceEnergy,
		}}
	}
	return cfg.Scene.SourceTerms()
}

// escape retires a history at a vacuum boundary: the carried weight-energy
// is charged to the exit edge's leakage tally (never the deposition tally)
// and the record is marked Escaped with zero weight. The deposit register
// was already flushed by the facet handling, so nothing is lost.
func (r *run) escape(ws *workerState, p *particle.Particle, axis, dir int) {
	edge := mesh.EdgeOf(axis, dir)
	ws.c.Escapes++
	ws.leak.Weight[edge] += p.Weight
	ws.leak.Energy[edge] += p.Weight * p.Energy
	p.Weight = 0
	p.Status = particle.Escaped
}

// idBase is the first RNG stream identity of this run's source family:
// replica r of an ensemble owns identities [r*Particles, (r+1)*Particles),
// so replica families never overlap.
func (r *run) idBase() uint64 {
	return uint64(r.cfg.Replica) * uint64(r.cfg.Particles)
}

// buildNDCache fills ndCache (see the field comment) from the mesh the run
// was just (re)built around. Storage-indexed, so the kernels address it with
// the same StorageIndex mapping they use for the tally.
func (r *run) buildNDCache() {
	m := r.mesh
	if cap(r.ndCache) < m.NumCells() {
		r.ndCache = make([]float64, m.NumCells())
	}
	r.ndCache = r.ndCache[:m.NumCells()]
	for cy := 0; cy < m.NY; cy++ {
		for cx := 0; cx < m.NX; cx++ {
			r.ndCache[m.StorageIndex(cx, cy)] = xs.NumberDensity(m.Density(cx, cy))
		}
	}
}

// buildWorkers allocates fresh per-worker state (counters and cursors) over
// the current cross-section tables.
func (r *run) buildWorkers() {
	r.workers = make([]*workerState, r.cfg.Threads)
	for w := range r.workers {
		r.workers[w] = &workerState{
			id:      w,
			capCur:  xs.NewCursor(r.ctx.XS.Capture),
			scatCur: xs.NewCursor(r.ctx.XS.Scatter),
		}
	}
}

// Lifecycle errors.
var (
	// ErrFinished reports a Step on a simulation that has run every
	// configured timestep.
	ErrFinished = errors.New("core: simulation finished")
	// ErrInterrupted reports a Step that was stopped mid-timestep by
	// Interrupt or a canceled Drive context. The interrupted step did not
	// complete; the simulation state is only consistent at the preceding
	// step boundary, so resume from the last Snapshot.
	ErrInterrupted = errors.New("core: step interrupted")
)

// StepFunc observes a simulation at each completed timestep boundary; Drive
// invokes it between steps, outside every timed kernel region. The typical
// use is per-step telemetry and checkpointing: the simulation is at a step
// boundary, so Snapshot is valid inside the callback.
type StepFunc func(*Simulation)

// Simulation is the stateful solver engine: an explicit lifecycle over the
// timestep loop that Run used to hide.
//
//	sim, _ := NewSimulation(cfg)
//	for !sim.Done() {
//		if err := sim.Step(); err != nil { ... }
//		data := sim.Snapshot() // checkpoint at the boundary
//	}
//	res := sim.Finalize()
//
// A run split into Steps — including a Snapshot/RestoreSimulation
// round-trip at any boundary — produces the same particle bank and event
// counters as an uninterrupted Run, bit for bit: the counter-based RNG
// makes every history independent of traversal and of when the process
// hosting it restarts. Reset rebinds the engine to a new configuration
// while reusing every compatible allocation (mesh, cross-section tables,
// bank), which is how sweeps amortise setup across points.
//
// A Simulation is not safe for concurrent use; at Threads > 1 each Step
// runs its kernels on a worker team that lives only for that Step.
type Simulation struct {
	r         *run
	res       *Result
	next      int // next 0-based timestep to execute
	finalized bool

	// trace, when set, receives one StepTiming per completed Step. The
	// per-step deltas are recovered from the cumulative accumulators via
	// the two baselines below, so the hot kernel loops carry no extra
	// bookkeeping and a nil hook costs one predictable branch per step.
	trace     TraceFunc
	traceWall time.Duration
	tracePrev PhaseTimings
}

// StepTiming is the wallclock attribution of one completed timestep: the
// step's total wall plus its per-phase breakdown, both as deltas over the
// previous step boundary.
type StepTiming struct {
	Step   int
	Wall   time.Duration
	Phases PhaseTimings
}

// TraceFunc observes per-step timings. It runs synchronously on the solver
// goroutine between steps — never inside a kernel — so implementations may
// take locks but should stay cheap.
type TraceFunc func(StepTiming)

// SetTrace installs (or, with nil, removes) the per-step trace hook and
// re-anchors the timing baselines at the current step boundary. Reset
// clears the hook: a reused simulation traces only if the new owner
// re-attaches.
func (s *Simulation) SetTrace(f TraceFunc) {
	s.trace = f
	s.traceWall = s.res.Wall
	s.tracePrev = s.res.Phases
}

// NewSimulation validates the configuration and builds a simulation ready
// for its first Step: mesh, cross-section tables, tally, worker state and
// the populated source bank.
func NewSimulation(cfg Config) (*Simulation, error) {
	r, err := newRun(cfg, true)
	if err != nil {
		return nil, err
	}
	r.stepTotal.Store(int64(r.cfg.Particles))
	return &Simulation{r: r, res: &Result{Config: r.cfg}}, nil
}

// Config returns the validated configuration the simulation runs.
func (s *Simulation) Config() Config { return s.r.cfg }

// StepIndex reports the next timestep to execute (equivalently, the number
// of completed timesteps).
func (s *Simulation) StepIndex() int { return s.next }

// Steps reports the configured timestep count.
func (s *Simulation) Steps() int { return s.r.cfg.Steps }

// Done reports whether every configured timestep has completed.
func (s *Simulation) Done() bool { return s.next >= s.r.cfg.Steps }

// Progress reports point-in-time completion from the live counters.
func (s *Simulation) Progress() Progress { return s.r.progress() }

// Elapsed reports the wallclock spent inside completed Steps.
func (s *Simulation) Elapsed() time.Duration { return s.res.Wall }

// TallyTotal reports the energy deposited so far, in weight-eV.
func (s *Simulation) TallyTotal() float64 { return s.r.tallyTotal() }

// TallyCells returns the live per-cell tally at the current step boundary
// (merged for privatised tallies, nil for the null tally), indexed by
// logical row-major cell index whatever the storage ordering. The slice is
// owned by the simulation and invalidated by the next Step or Reset; callers
// needing a stable copy must take one (or run with Config.KeepCells). The
// ensemble driver folds it into its accumulators in place, so replicas add
// zero per-replica tally allocations.
func (s *Simulation) TallyCells() []float64 { return s.r.tallyCellsLogical() }

// Population tallies the bank by particle status.
func (s *Simulation) Population() (alive, census, dead int) {
	return s.r.bank.CountStatus()
}

// Interrupt requests a cooperative stop: the current Step bails out at its
// next poll (within one history for Over Particles, one kernel round for
// Over Events) and returns ErrInterrupted. Drive installs this on context
// cancellation. An interrupted simulation stays interrupted; resume from
// the last Snapshot.
func (s *Simulation) Interrupt() { s.r.stop.Store(true) }

// Step executes the next timestep: census revival (steps after the first),
// one pass of the configured scheme, and the optional per-step tally merge.
// It fails with ErrFinished once every step has run and ErrInterrupted when
// stopped mid-step.
func (s *Simulation) Step() error {
	if s.Done() {
		return ErrFinished
	}
	r := s.r
	if r.stop.Load() {
		return ErrInterrupted
	}
	cfg := r.cfg
	start := time.Now()
	if s.next > 0 {
		revived := r.reviveCensus()
		// Reset done before publishing the new total so a concurrent
		// monitor sample never pairs the old retired count with the
		// (smaller) new population.
		r.done.Store(0)
		r.stepTotal.Store(int64(revived))
	}
	if cfg.WeightWindow.Enabled {
		// Population control at the boundary, before the scheme loop:
		// roulette and splitting are shared serial code, so the schemes
		// stay bit-identical under the window.
		r.controlStep(s.res)
	}
	if cfg.SortEvery > 0 && s.next%cfg.SortEvery == 0 {
		// Periodic cell sort at the boundary, after population control so
		// freshly split children are sorted too. Shared serial code like
		// the control step, so the schemes stay bit-identical under it.
		r.sortStep(s.res)
	}
	r.step.Store(int64(s.next))
	if err := r.stepScheme(s.res); err != nil {
		return err
	}
	if r.stop.Load() {
		s.res.Wall += time.Since(start)
		return ErrInterrupted
	}
	if cfg.Tally == tally.ModePrivate && cfg.MergePerStep {
		r.regionStart("merge")
		t0 := time.Now()
		r.tly.(*tally.Private).Merge()
		s.res.Phases.Merge += time.Since(t0)
		r.regionEnd("merge")
	}
	s.res.Wall += time.Since(start)
	s.next++
	if s.trace != nil {
		s.trace(StepTiming{
			Step:   s.next - 1,
			Wall:   s.res.Wall - s.traceWall,
			Phases: s.res.Phases.Sub(s.tracePrev),
		})
		s.traceWall = s.res.Wall
		s.tracePrev = s.res.Phases
	}
	return nil
}

// stepScheme runs one pass of the configured scheme. Every parallel launch
// in the pass shares one worker team, which is closed on every return path,
// so no team member outlives the step.
func (r *run) stepScheme(res *Result) error {
	defer r.endTeam()
	switch r.cfg.Scheme {
	case OverParticles:
		r.stepOverParticles(res)
	case OverEvents:
		r.stepOverEvents(res)
	default:
		return fmt.Errorf("core: unknown scheme %v", r.cfg.Scheme)
	}
	return nil
}

// Finalize aggregates instrumentation, runs the conservation audit, and
// returns the Result. It may be called once, at any step boundary; a
// simulation finalized before Done reports the partial run. The returned
// Result is owned by the caller; a later Reset detaches the engine from it.
func (s *Simulation) Finalize() *Result {
	if !s.finalized {
		s.r.finish(s.res)
		s.finalized = true
	}
	return s.res
}

// Run executes every remaining timestep and finalizes — the one-shot path
// over the stepwise engine.
func (s *Simulation) Run() (*Result, error) {
	return s.Drive(context.Background(), nil, nil)
}

// Drive executes the remaining timesteps with cooperative cancellation,
// optional live progress, and an optional per-step callback. It is the loop
// RunCtx wraps: a watcher goroutine translates ctx cancellation into the
// stop flag the solver loops poll, and a monitor goroutine samples live
// counters for progress so user callbacks never run inside timed regions.
// onStep, when non-nil, runs between timesteps at each completed boundary.
func (s *Simulation) Drive(ctx context.Context, progress ProgressFunc, onStep StepFunc) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	r := s.r

	quit := make(chan struct{})
	var aux sync.WaitGroup
	if ctx.Done() != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-ctx.Done():
				r.stop.Store(true)
			case <-quit:
			}
		}()
	}
	if progress != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					progress(r.progress())
				case <-quit:
					return
				}
			}
		}()
	}
	stopAux := func() {
		close(quit)
		aux.Wait()
	}

	for !s.Done() {
		err := s.Step()
		if errors.Is(err, ErrInterrupted) {
			break
		}
		if err != nil {
			stopAux()
			return nil, err
		}
		if onStep != nil {
			onStep(s)
		}
	}
	stopAux()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	if r.stop.Load() {
		return nil, ErrInterrupted
	}
	if progress != nil {
		progress(r.progress())
	}
	return s.Finalize(), nil
}

// Reset rebinds the simulation to a new configuration, reusing every
// allocation the change permits: the mesh and its cross-section tables
// survive resolution-compatible sweeps, and the particle bank survives
// layout- and population-compatible ones (a bank handed out through
// KeepBank is never reused — the previous Result owns it). The bank is
// repopulated from the new config's source and seed, so a Reset simulation
// is indistinguishable from a fresh NewSimulation(cfg).
func (s *Simulation) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r := s.r
	old := r.cfg
	oldCells := r.mesh.NumCells()

	// Mesh: rebuild on any geometry or scene change, and whenever a
	// density hook is (or was) involved — the hook mutates the mesh in
	// place, so a hooked mesh has no pristine state to return to. Scene
	// identity is content, not pointer: a re-parsed copy of the same
	// scene file reuses the painted mesh.
	if cfg.Scene.Hash() != old.Scene.Hash() || cfg.NX != old.NX || cfg.NY != old.NY ||
		cfg.CustomDensity != nil || old.CustomDensity != nil {
		m, err := cfg.Scene.Build(cfg.NX, cfg.NY)
		if err != nil {
			return err
		}
		if cfg.CustomDensity != nil {
			cfg.CustomDensity(m)
		}
		r.mesh = m
		r.ctx.Mesh = m
	}
	// A reused mesh may carry the previous config's storage order;
	// SetOrdering re-permutes the field in place (no-op when unchanged).
	r.mesh.SetOrdering(cfg.Ordering)
	r.sources = runSources(cfg)

	if cfg.XSPoints != old.XSPoints {
		r.ctx.XS = xs.GeneratePair(cfg.XSPoints)
	}
	r.ctx.WeightCutoff = cfg.WeightCutoff
	r.ctx.EnergyCutoff = cfg.EnergyCutoff

	if cfg.Layout != old.Layout || old.KeepBank {
		r.bank = particle.NewBank(cfg.Layout, cfg.Particles)
	} else if r.bank.Len() != cfg.Particles {
		// Covers both a population change and a bank a weight-window run
		// grew past its source population: Resize reuses the backing
		// arrays whenever capacity allows, so ensemble replicas never
		// reallocate the bank.
		r.bank.Resize(cfg.Particles)
	}
	if cells := r.mesh.NumCells(); cfg.Tally != old.Tally || cfg.Threads != old.Threads || cells != oldCells {
		r.tly = tally.New(cfg.Tally, cells, cfg.Threads)
	} else {
		r.tly.Reset()
	}
	r.cfg = cfg
	r.canLeak = r.mesh.HasVacuum()
	r.buildNDCache()
	r.buildWorkers() // fresh counters and cursors, as newRun would
	if cfg.Scheme == OverEvents {
		r.ensureOE() // reuses prior scratch when it still fits
	}

	r.wwRhoMax = 0
	if cfg.WeightWindow.Enabled {
		r.wwRhoMax = r.maxDensity()
	}
	r.base = Counters{}
	r.baseLeak = Leakage{}
	r.stop.Store(false)
	r.done.Store(0)
	r.step.Store(0)
	r.stepTotal.Store(int64(cfg.Particles))
	r.birthWeight, r.birthEnergy = particle.PopulateSources(
		r.bank, r.mesh, r.sources, cfg.Timestep, cfg.Seed, r.idBase())

	s.next = 0
	s.finalized = false
	s.res = &Result{Config: cfg}
	s.trace = nil
	s.traceWall = 0
	s.tracePrev = PhaseTimings{}
	r.probe = nil
	return nil
}

// Run executes the configured simulation and returns its results.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg, nil)
}

// RunCtx is Run with cooperative cancellation and optional live progress:
// a thin loop over the Simulation lifecycle. When ctx is canceled the
// solver loops bail out at their next poll of a shared stop flag — within
// one particle history for Over Particles, within one kernel round for
// Over Events — and RunCtx returns the context's error. progress, when
// non-nil, receives periodic Progress reports from a dedicated monitoring
// goroutine plus one final report before a successful return; it is never
// called after RunCtx returns. The cancellation plumbing costs one
// uncontended atomic load per history (or per kernel chunk), so an
// uncanceled RunCtx matches Run's throughput.
func RunCtx(ctx context.Context, cfg Config, progress ProgressFunc) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead context skips setup entirely: a drained backlog of canceled
	// jobs must not pay bank and mesh construction per job.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run canceled: %w", err)
	}
	sim, err := NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Drive(ctx, progress, nil)
}

// finish aggregates instrumentation and runs the conservation audit.
func (r *run) finish(res *Result) {
	cfg := r.cfg
	res.WorkerBusy = make([]time.Duration, len(r.workers))
	res.Counter = r.base
	res.Leakage = r.baseLeak
	for w, ws := range r.workers {
		res.Counter.Add(&ws.c)
		res.Counter.XSSearchSteps += ws.capCur.Steps + ws.scatCur.Steps
		res.Leakage.add(&ws.leak)
		res.WorkerBusy[w] = ws.busy
	}

	// Conservation audit (meaningless for the null tally). The total is
	// summed in logical cell order so it is bit-identical across storage
	// orderings.
	res.TallyTotal = r.tallyTotal()
	inFlight := r.bank.TotalEnergy()
	leaked := res.Leakage.TotalEnergy()
	res.Conservation = Conservation{
		BirthWeight: r.birthWeight,
		FinalWeight: r.bank.TotalWeight(),
		BirthEnergy: r.birthEnergy,
		Deposited:   res.TallyTotal,
		InFlight:    inFlight,
		Leaked:      leaked,
	}
	if cfg.Tally != tally.ModeNull {
		res.Conservation.RelativeError =
			math.Abs(r.birthEnergy-(res.TallyTotal+inFlight+leaked)) / r.birthEnergy
	}

	// Tally-implementation statistics, read after Total() above so the
	// buffered tally's final flush is included in its write count.
	switch t := r.tly.(type) {
	case *tally.Atomic:
		res.AtomicConflicts = t.Conflicts()
	case *tally.Buffered:
		res.TallyDeposits = t.Deposits()
		res.TallyBaseWrites = t.BaseWrites()
		if a, ok := t.Base().(*tally.Atomic); ok {
			res.AtomicConflicts = a.Conflicts()
		}
	}

	if cfg.KeepCells && cfg.Tally != tally.ModeNull {
		res.Cells = append([]float64(nil), r.tallyCellsLogical()...)
	}
	if cfg.KeepBank {
		res.Bank = r.bank
	}
}

// reviveCensus returns census particles to flight for the next timestep,
// reporting how many it revived (the next step's in-flight population).
func (r *run) reviveCensus() int {
	revived := 0
	var p particle.Particle
	for i := 0; i < r.bank.Len(); i++ {
		if r.bank.StatusOf(i) != particle.Census {
			continue
		}
		r.bank.Load(i, &p)
		p.Status = particle.Alive
		p.TimeToCensus = r.cfg.Timestep
		r.bank.Store(i, &p)
		revived++
	}
	return revived
}

// flush empties the particle's energy-deposition register into the tally
// mesh cell the particle currently occupies. This is the atomic
// read-modify-write the paper identifies at every facet encounter and at
// census. The C mini-app performs the update unconditionally; only
// collisions ever charge the register, so on facet-dominated problems the
// overwhelming majority of those RMWs add exactly 0.0 — a floating-point
// identity (cells never hold -0, so x+0 == x bit for bit). The Go solver
// elides that no-op memory operation. TallyFlushes still counts every
// logical flush — the scheme-equivalence invariant and the architecture
// model (which prices the paper's unconditional update) both key off the
// counter, not the elided CAS.
func (r *run) flush(ws *workerState, p *particle.Particle) {
	if p.Deposit != 0 {
		cell := r.mesh.StorageIndex(int(p.CellX), int(p.CellY))
		r.tly.Add(ws.id, cell, p.Deposit)
		p.Deposit = 0
	}
	ws.c.TallyFlushes++
}

// flushSlot is flush through the bank's deposit field view: it empties slot
// i's deposit register into the tally cell the particle occupies without
// streaming the whole record through a working copy. The Over Events tally
// and census kernels use it; like flush it elides the zero-deposit no-op.
func (r *run) flushSlot(ws *workerState, i int) {
	cx, cy, dep := r.bank.FlushDeposit(i)
	if dep != 0 {
		r.tly.Add(ws.id, r.mesh.StorageIndex(int(cx), int(cy)), dep)
	}
	ws.c.TallyFlushes++
}

// advance computes the three competing distances for the particle's next
// segment, moves the particle to the nearest event, and returns the event
// type (with facet geometry when applicable). It is shared verbatim by both
// schemes so their histories agree bit for bit.
func advance(m *mesh.Mesh, p *particle.Particle, sigmaT, speed float64) (ev events.Type, axis, dir int) {
	dColl := events.DistanceToCollision(p.MFPToCollision, sigmaT)
	dFacet, axis, dir := events.DistanceToFacet(m, p.X, p.Y, p.UX, p.UY, p.CellX, p.CellY)
	dCensus := events.DistanceToCensus(p.TimeToCensus, speed)

	var d float64
	switch {
	case dColl <= dFacet && dColl <= dCensus:
		d, ev = dColl, events.Collision
	case dFacet <= dCensus:
		d, ev = dFacet, events.Facet
	default:
		d, ev = dCensus, events.Census
	}

	p.X += p.UX * d
	p.Y += p.UY * d
	p.TimeToCensus -= d / speed
	if sigmaT >= events.MinSigmaT {
		p.MFPToCollision -= d * sigmaT
	}
	if ev == events.Census {
		p.TimeToCensus = 0
	}
	return ev, axis, dir
}

// lookupXS refreshes the particle's cached microscopic cross sections using
// the worker's cursors. A particle's first lookup has no useful cached bin
// (the index is zero while the source energy sits near the top of the
// table), so it seeds the cursor with a binary search; every later lookup
// walks linearly from the per-particle cached index, the paper's 1.3x
// optimisation (§VI-A).
func lookupXS(ws *workerState, p *particle.Particle) {
	if p.CachedSigmaA < 0 && p.XSIndex == 0 {
		ws.capCur.Seek(p.Energy)
		ws.scatCur.Seek(p.Energy)
	} else {
		ws.capCur.SetIndex(int(p.XSIndex))
		ws.scatCur.SetIndex(int(p.XSIndex))
	}
	p.CachedSigmaA = ws.capCur.Lookup(p.Energy)
	p.CachedSigmaS = ws.scatCur.Lookup(p.Energy)
	p.XSIndex = int32(ws.capCur.Index())
	ws.c.XSLookups++
}
