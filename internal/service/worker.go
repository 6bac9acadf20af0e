package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scene"
	"repro/internal/service/blob"
	"repro/internal/stats"
	"repro/internal/tally"
	"repro/internal/telemetry"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle states. Queued and Running are transient; Done, Failed and
// Canceled are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrUnknownJob reports a lookup of an ID the engine never issued.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrNotFinished reports a result request for a job that has not reached a
// terminal state.
var ErrNotFinished = errors.New("service: job not finished")

// StepView summarises one completed timestep of a running job — the
// payload of the per-step SSE events and the job's step history.
type StepView struct {
	// Step is the completed 0-based timestep; Steps the configured count.
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// TallyTotal is the cumulative deposited weight-eV after this step.
	TallyTotal float64 `json:"tally_total"`
	// WallSeconds is the cumulative solver wallclock after this step.
	WallSeconds float64 `json:"wall_seconds"`
	// Alive, Census, Dead partition the bank after this step.
	Alive  int `json:"alive"`
	Census int `json:"census"`
	Dead   int `json:"dead"`
}

// Job is one simulation managed by the engine: a validated config, its
// cache key, and the lifecycle state machine. All mutable state is behind
// the mutex; the done channel closes exactly once when the job reaches a
// terminal state.
type Job struct {
	id  string
	key string // config fingerprint; empty for uncacheable configs
	cfg core.Config
	// tenant names the submitting tenant — the fair-share scheduling key
	// and the queue-wait metric label. AnonymousTenant when the engine
	// runs without authentication.
	tenant string
	// enqueued is stamped by Queue.Push; the queue-wait metric is the
	// pop-to-push delta.
	enqueued time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu          sync.Mutex
	state       State
	cached      bool
	progress    core.Progress
	steps       []StepView
	resumedFrom int // step the solver resumed from; -1 for a fresh run
	// replicas and ensemble are the per-replica history and merged
	// statistics of an ensemble job (Config.Replicas > 1); empty/nil
	// otherwise.
	replicas  []ReplicaView
	ensemble  *stats.Ensemble
	// timings is the per-step wallclock attribution the worker's trace
	// hook records while solving; empty for cached jobs and ensemble
	// parents (their replicas carry the timings).
	timings   []core.StepTiming
	result    *core.Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time

	// Fleet state. retainSnap keeps the latest step-boundary snapshot in
	// memory (snap/snapStep) so a coordinator can pull it over
	// /v1/jobs/{id}/snapshot; seedSnap is a snapshot handed in at
	// submission (or reported back by a failed remote dispatch) that the
	// solver resumes from instead of running the completed steps again.
	retainSnap bool
	seedSnap   []byte
	snap       []byte
	snapStep   int
	// worker and reschedules describe remote execution: the fleet worker
	// currently (or last) assigned the job, and how many times the shard
	// moved after its worker died. Both zero for locally solved jobs.
	worker      string
	reschedules int
	// warnings records non-fatal trouble the job survived — a failed
	// checkpoint write, a remote dispatch that fell back to local
	// execution — so clients see degraded durability instead of silence.
	warnings []string
}

// Status is an immutable snapshot of a job.
type Status struct {
	ID        string
	State     State
	Cached    bool
	Progress  core.Progress
	StepsDone int
	// Replicas is the ensemble width of an ensemble job (0 for plain
	// jobs); ReplicasDone counts the replicas merged so far.
	Replicas     int
	ReplicasDone int
	// ResumedFrom is the checkpointed step the run resumed at, -1 when it
	// started fresh.
	ResumedFrom int
	// Worker is the fleet worker the job ran (or is running) on, empty
	// for local execution; Reschedules counts how many times the shard
	// was moved to a new worker after its assigned worker died.
	Worker      string
	Reschedules int
	// Warnings lists the non-fatal trouble the job survived (failed
	// checkpoint writes, remote dispatch falling back to local).
	Warnings  []string
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// ID returns the engine-issued job identifier.
func (j *Job) ID() string { return j.id }

// Config returns the validated configuration the job runs.
func (j *Job) Config() core.Config { return j.cfg }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	ens := 0
	if j.cfg.Replicas > 1 {
		ens = j.cfg.Replicas
	}
	return Status{
		ID:           j.id,
		State:        j.state,
		Cached:       j.cached,
		Progress:     j.progress,
		StepsDone:    len(j.steps),
		Replicas:     ens,
		ReplicasDone: len(j.replicas),
		ResumedFrom:  j.resumedFrom,
		Worker:       j.worker,
		Reschedules:  j.reschedules,
		Warnings:     append([]string(nil), j.warnings...),
		Err:          j.err,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
	}
}

// addWarning records non-fatal trouble on the job, deduplicating exact
// repeats (a flaky checkpoint directory must not grow the list per step).
func (j *Job) addWarning(w string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, have := range j.warnings {
		if have == w {
			return
		}
	}
	j.warnings = append(j.warnings, w)
}

// Snapshot returns the latest retained step-boundary snapshot and the step
// it was taken at; nil when the job does not retain snapshots or has not
// reached a boundary yet.
func (j *Job) Snapshot() ([]byte, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap, j.snapStep
}

// setSnapshot retains the latest step-boundary snapshot.
func (j *Job) setSnapshot(data []byte, step int) {
	j.mu.Lock()
	j.snap = data
	j.snapStep = step
	j.mu.Unlock()
}

// takeSeedSnap consumes the submission-time (or fallback-reported) resume
// snapshot; the seed is one-shot so a later Reset cannot resurrect it.
func (j *Job) takeSeedSnap() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.seedSnap
	j.seedSnap = nil
	return s
}

// applyRemoteUpdate is the callback a RemoteRunner drives while a shard
// runs remotely: worker assignment and reschedule count land on the job
// view, forwarded step results land on the step history (guarded to stay
// monotonic across worker reconnects and rescheduled resumes), and the
// latest pulled snapshot becomes the local resume seed should the fleet
// degrade to in-process execution.
func (j *Job) applyRemoteUpdate(u RemoteUpdate) {
	j.mu.Lock()
	if u.Worker != "" {
		j.worker = u.Worker
	}
	if u.Reschedules > j.reschedules {
		j.reschedules = u.Reschedules
	}
	if u.Snapshot != nil {
		j.seedSnap = u.Snapshot
	}
	step := u.Step
	if step != nil && len(j.steps) > 0 && step.Step <= j.steps[len(j.steps)-1].Step {
		step = nil // duplicate replay after a reconnect or reschedule
	}
	if step != nil {
		j.steps = append(j.steps, *step)
		j.progress = core.Progress{Step: step.Step, Steps: step.Steps}
	}
	j.mu.Unlock()
}

// Steps returns the per-timestep results recorded so far, oldest first
// (never nil, so the wire encoding is always a JSON array). A resumed job's
// history starts at the checkpointed step, not zero.
func (j *Job) Steps() []StepView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]StepView{}, j.steps...)
}

// StepsFrom returns only the step results recorded after the first n, so a
// streaming subscriber polls at O(new) cost instead of copying the whole
// history every tick; nil when nothing new arrived.
func (j *Job) StepsFrom(n int) []StepView {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.steps) {
		return nil
	}
	return append([]StepView(nil), j.steps[n:]...)
}

// addStep records a completed timestep.
func (j *Job) addStep(v StepView) {
	j.mu.Lock()
	j.steps = append(j.steps, v)
	j.mu.Unlock()
}

// addTiming is the core.TraceFunc the worker installs on its simulation.
func (j *Job) addTiming(st core.StepTiming) {
	j.mu.Lock()
	j.timings = append(j.timings, st)
	j.mu.Unlock()
}

// Timings returns the per-step timing spans recorded while solving, oldest
// first. Empty for cached jobs and ensemble parents. A resumed job's
// timings start at the checkpointed step.
func (j *Job) Timings() []core.StepTiming {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]core.StepTiming(nil), j.timings...)
}

// setResumedFrom records the checkpoint boundary the solver resumed at.
func (j *Job) setResumedFrom(step int) {
	j.mu.Lock()
	j.resumedFrom = step
	j.mu.Unlock()
}

// Wait blocks until the job is terminal or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the completed result. It fails with ErrNotFinished while
// the job is in flight, the run's own error for a failed job, and a
// cancellation error for a canceled one.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, ErrNotFinished
	}
}

// setProgress is the core.ProgressFunc the worker threads into RunCtx.
func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once, reporting whether
// this call won the transition. observe, when non-nil, runs only for the
// call that wins, before Wait is released, so a waiter already sees the
// job in the engine's counters and metrics.
func (j *Job) finish(state State, res *core.Result, err error, cached bool, observe func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishLocked(state, res, err, cached, observe)
}

// finishLocked is finish with j.mu already held.
func (j *Job) finishLocked(state State, res *core.Result, err error, cached bool, observe func()) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = res
	j.err = err
	j.cached = cached
	j.finished = time.Now()
	if res != nil {
		// A finished job reads 100% regardless of sampling jitter.
		j.progress = core.Progress{
			Step:  res.Config.Steps - 1,
			Steps: res.Config.Steps,
			Done:  1,
			Total: 1,
		}
	}
	if observe != nil {
		observe()
	}
	close(j.done)
	// Release the job's context registration on the engine context; a
	// long-lived engine must not accumulate one child per finished job.
	j.cancel()
	return true
}

// Options configures an engine.
type Options struct {
	// Shards is the worker-pool width: each shard owns one queue and one
	// worker goroutine, and cacheable jobs are routed to a shard by
	// fingerprint so identical submissions serialise behind each other
	// (maximising cache reuse instead of racing duplicate solves).
	// 0 means min(4, GOMAXPROCS).
	Shards int
	// QueueDepth bounds each shard's backlog. 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache. 0 means 128; negative
	// disables caching.
	CacheEntries int
	// ThreadsPerJob is the solver thread count given to jobs that leave
	// Config.Threads at 0, so concurrent simulations share the machine
	// instead of each claiming every core. 0 means GOMAXPROCS/Shards,
	// floored at 1.
	ThreadsPerJob int
	// Blobs, when non-nil, is the engine's durable storage: checkpoints
	// land under "checkpoints/<fingerprint>" and completed results under
	// "results/<fingerprint>", so any engine opened over the same store —
	// this process restarted, or a replica behind a load balancer sharing
	// a volume — resumes in-flight work and serves finished work without
	// recomputing. The store is the precondition for stateless workers.
	Blobs blob.Store
	// CheckpointDir, when non-empty and Blobs is nil, wraps the directory
	// in a filesystem blob store — the backward-compatible spelling of
	// Blobs. Checkpoints are removed on successful completion.
	// Best-effort: a directory that cannot be created disables it
	// silently, so callers that need durability guaranteed should verify
	// writability first (as cmd/neutral-serve does).
	CheckpointDir string
	// CheckpointEvery writes a snapshot every n completed steps. 0 means
	// every step.
	CheckpointEvery int
	// DefaultScene, when non-nil, is the scene applied by the HTTP layer
	// to submissions that name neither a problem nor an inline scene —
	// how cmd/neutral-serve's -scene flag sets a server-wide default
	// problem. It must be validated (scene.LoadFile and Parse validate).
	DefaultScene *scene.Scene
	// Registry, when non-nil, is the telemetry registry the engine
	// registers its metric families on — shared when a process hosts
	// several instrumented subsystems. Nil means a private registry;
	// either way Engine.Registry() is what GET /metrics serves.
	Registry *telemetry.Registry
	// Remote, when non-nil, lets the engine dispatch eligible jobs to a
	// fleet of remote worker processes (internal/fleet.Coordinator). A
	// job is eligible when it is cacheable (canonical fingerprint) and
	// does not ask to keep its bank — the result wire format carries
	// tallies and counters, not banks. Dispatch failing with ErrNoWorkers
	// degrades gracefully to local in-process execution, resuming from
	// the last remotely pulled checkpoint when one exists.
	Remote RemoteRunner
}

// RemoteUpdate is one observation a RemoteRunner reports while a shard runs
// remotely. Zero-valued fields mean "no change".
type RemoteUpdate struct {
	// Worker is the fleet worker currently assigned the shard.
	Worker string
	// Reschedules is the cumulative number of times the shard was moved
	// to a new worker after its assigned worker died.
	Reschedules int
	// Step is a completed remote timestep to forward onto the job's step
	// history (and its SSE stream).
	Step *StepView
	// Snapshot is the latest fingerprint-keyed checkpoint pulled from the
	// worker — the resume point for rescheduling and local fallback.
	Snapshot []byte
}

// RemoteRunner executes one job shard on a remote worker fleet. RunShard
// blocks until the shard completes somewhere, reporting assignment changes,
// forwarded steps and checkpoints through update. It fails with an error
// wrapping ErrNoWorkers when no healthy worker is reachable (the engine
// then runs the job locally), with ctx's error on cancellation, and with
// the run's own error when the shard failed deterministically.
type RemoteRunner interface {
	RunShard(ctx context.Context, cfg core.Config, update func(RemoteUpdate)) (*core.Result, error)
}

// ErrNoWorkers reports that remote dispatch found no healthy fleet worker;
// the engine treats it as "degrade to local execution", never as a job
// failure.
var ErrNoWorkers = errors.New("service: no fleet workers reachable")

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = min(4, runtime.GOMAXPROCS(0))
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	switch {
	case o.CacheEntries == 0:
		o.CacheEntries = 128
	case o.CacheEntries < 0:
		o.CacheEntries = 0
	}
	if o.ThreadsPerJob <= 0 {
		o.ThreadsPerJob = max(1, runtime.GOMAXPROCS(0)/o.Shards)
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	return o
}

// Engine is the simulation service: admission, scheduling, execution and
// caching of neutral runs. Create one with New, submit validated configs
// with Submit, and stop it with Close.
type Engine struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	cache  *Cache
	shards []*Queue
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []*Job // submission order, for listing
	seq    uint64

	rr atomic.Uint64 // round-robin cursor for uncacheable jobs

	registry *telemetry.Registry
	metrics  *engineMetrics

	// Lifetime counters.
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	runs      atomic.Uint64 // actual solver executions (cache misses)
	running   atomic.Int64  // jobs currently on a worker
	// avgRunNS is the EWMA of solve wallclock ShedDelay prices queue
	// drain with.
	avgRunNS atomic.Int64

	// runFn, when non-nil, replaces the Simulation-driven solve path;
	// tests substitute stubs through it.
	runFn func(context.Context, core.Config, core.ProgressFunc) (*core.Result, error)
}

// New builds an engine and starts its worker pool.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	if opts.Blobs == nil && opts.CheckpointDir != "" {
		// Checkpointing is best-effort: an unusable directory disables
		// it rather than failing the engine.
		if fs, err := blob.NewFS(opts.CheckpointDir); err == nil {
			opts.Blobs = fs
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		cache:  NewCache(opts.CacheEntries),
		jobs:   make(map[string]*Job),
	}
	e.shards = make([]*Queue, opts.Shards)
	for i := range e.shards {
		e.shards[i] = NewQueue(opts.QueueDepth)
	}
	e.registry = opts.Registry
	if e.registry == nil {
		e.registry = telemetry.NewRegistry()
	}
	e.metrics = newEngineMetrics(e, e.registry)
	e.wg.Add(opts.Shards)
	for i := range e.shards {
		go e.worker(e.shards[i])
	}
	return e
}

// Submit validates the config, applies the engine thread budget, and
// either serves it from the cache (returning an already-Done job without
// touching a worker) or enqueues it. A full shard queue fails with
// ErrQueueFull; a closed engine with ErrClosed.
func (e *Engine) Submit(cfg core.Config) (*Job, error) {
	return e.submit(cfg, nil, SubmitOptions{})
}

// SubmitOptions carries the fleet-transport extras of a submission.
type SubmitOptions struct {
	// Snapshot seeds the run: the solver restores it and continues from
	// its step boundary instead of running the completed steps again —
	// how a coordinator reschedules a shard onto this engine from the
	// dead worker's last checkpoint. A snapshot that fails to restore
	// (corrupt, or taken under a different config) is discarded and the
	// run starts fresh.
	Snapshot []byte
	// RetainSnapshot keeps the latest step-boundary snapshot in memory on
	// the job for GET /v1/jobs/{id}/snapshot — the coordinator's pull
	// path. Off by default: a snapshot is bank-sized.
	RetainSnapshot bool
	// Tenant names the submitting tenant for fair-share scheduling and
	// the per-tenant metric families; empty means AnonymousTenant.
	Tenant string
}

// SubmitWith is Submit with fleet-transport options.
func (e *Engine) SubmitWith(cfg core.Config, so SubmitOptions) (*Job, error) {
	return e.submit(cfg, nil, so)
}

// submit is Submit with queue routing factored out: a nil queue routes by
// fingerprint shard; a non-nil queue pins the job (batch submissions).
func (e *Engine) submit(cfg core.Config, pinned *Queue, so SubmitOptions) (*Job, error) {
	if cfg.Threads == 0 {
		cfg.Threads = e.opts.ThreadsPerJob
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key, cacheable := cfg.Fingerprint()
	if !cacheable {
		key = ""
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.seq++
	id := fmt.Sprintf("job-%06d", e.seq)
	e.mu.Unlock()

	tenant := so.Tenant
	if tenant == "" {
		tenant = AnonymousTenant
	}
	jctx, jcancel := context.WithCancel(e.ctx)
	j := &Job{
		id:          id,
		key:         key,
		cfg:         cfg,
		tenant:      tenant,
		ctx:         jctx,
		cancel:      jcancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		resumedFrom: -1,
		submitted:   time.Now(),
		retainSnap:  so.RetainSnapshot,
		seedSnap:    so.Snapshot,
	}
	e.submitted.Add(1)

	// Cache hit: the job is born terminal, no worker involved. Ensemble
	// entries carry their merged statistics alongside the result.
	if key != "" {
		if res, ens, ok := e.cache.GetEntry(key); ok {
			j.mu.Lock()
			j.ensemble = ens
			j.mu.Unlock()
			j.finish(StateDone, res, nil, true, func() { e.completed.Add(1) })
			e.record(j)
			return j, nil
		}
		// Persistent tier: a result another engine — or this process
		// before a restart — stored in the blob store serves the job
		// without a solve, exactly like a memory cache hit.
		if res, ok := e.storedResult(key, cfg); ok {
			e.cache.Put(key, res)
			j.finish(StateDone, res, nil, true, func() {
				e.completed.Add(1)
				e.metrics.blobResultHits.Inc()
			})
			e.record(j)
			return j, nil
		}
	}

	// Ensemble jobs are coordinated by a dedicated goroutine that fans
	// the replicas out as child jobs across the shard queues; the parent
	// itself never occupies a queue slot or a worker.
	if cfg.Replicas > 1 {
		if cfg.Tally == tally.ModeNull {
			// Mirrors stats.RunEnsemble: a null tally has no cells to
			// fold, so the ensemble would complete with silently
			// meaningless all-zero statistics.
			jcancel()
			return nil, errors.New("service: ensemble statistics need a live tally, not null")
		}
		e.record(j)
		go e.runEnsemble(j)
		return j, nil
	}

	q := pinned
	if q == nil {
		q = e.shardFor(key)
	}
	if err := q.Push(j); err != nil {
		jcancel()
		return nil, err
	}
	e.record(j)
	return j, nil
}

// BatchItem is one outcome of SubmitBatch: an admitted job or a per-item
// admission error.
type BatchItem struct {
	Job *Job
	Err error
}

// SubmitBatch submits the configs as one batch pinned to a single shard, so
// one worker runs them back to back in order and its engine reuse kicks in:
// consecutive compatible configs share one Simulation allocation (mesh,
// cross-section tables, particle bank survive Reset), amortising setup
// across the batch exactly as a sweep does. Admission is per item — a full
// queue or invalid config fails that item, never the batch.
//
// Pinning trades the fingerprint-shard serialisation guarantee for shared
// setup: a batch item can race an identical Submit routed to its home
// shard, costing at most a duplicate solve (the pop-time cache re-check
// still dedups the sequential case, and checkpoint writes are
// collision-safe).
func (e *Engine) SubmitBatch(cfgs []core.Config) []BatchItem {
	return e.SubmitBatchAs("", cfgs)
}

// SubmitBatchAs is SubmitBatch on behalf of a named tenant, so every item
// lands in the tenant's fair-share lane.
func (e *Engine) SubmitBatchAs(tenant string, cfgs []core.Config) []BatchItem {
	// Pin the whole batch to the home shard of its first cacheable
	// config so duplicate batches still serialise behind each other.
	var pinned *Queue
	for _, cfg := range cfgs {
		c := cfg
		if c.Threads == 0 {
			c.Threads = e.opts.ThreadsPerJob
		}
		if c.Validate() != nil {
			continue
		}
		key, cacheable := c.Fingerprint()
		if !cacheable {
			key = ""
		}
		pinned = e.shardFor(key)
		break
	}
	if pinned == nil && len(e.shards) > 0 {
		pinned = e.shards[e.rr.Add(1)%uint64(len(e.shards))]
	}

	items := make([]BatchItem, len(cfgs))
	for i, cfg := range cfgs {
		items[i].Job, items[i].Err = e.submit(cfg, pinned, SubmitOptions{Tenant: tenant})
	}
	return items
}

// record indexes the job for lookup and listing.
func (e *Engine) record(j *Job) {
	e.mu.Lock()
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	e.mu.Unlock()
}

// shardFor routes a cacheable fingerprint to its home shard — identical
// configs always land together — and spreads uncacheable jobs round-robin.
func (e *Engine) shardFor(key string) *Queue {
	if key == "" {
		return e.shards[e.rr.Add(1)%uint64(len(e.shards))]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return e.shards[h.Sum32()%uint32(len(e.shards))]
}

// worker drains one shard queue until the engine closes. Each worker keeps
// the Simulation of its last job alive so a compatible next job Resets it
// instead of rebuilding mesh, tables and bank — the shared-setup
// amortisation batches and sweeps rely on.
func (e *Engine) worker(q *Queue) {
	defer e.wg.Done()
	var reuse *core.Simulation
	for {
		j, ok := q.Pop()
		if !ok {
			return
		}
		if !j.enqueued.IsZero() {
			e.metrics.queueWait.With(j.tenant).Observe(time.Since(j.enqueued).Seconds())
		}
		e.execute(j, &reuse)
	}
}

// execute runs one job to a terminal state.
func (e *Engine) execute(j *Job, reuse **core.Simulation) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	e.running.Add(1)
	defer e.running.Add(-1)

	// An identical job may have completed while this one queued; shard
	// affinity makes this re-check catch every same-key dupe.
	if j.key != "" {
		if res, ok := e.cache.Get(j.key); ok {
			j.finish(StateDone, res, nil, true, func() { e.completed.Add(1) })
			return
		}
	}

	e.runs.Add(1)
	var res *core.Result
	var err error
	remote := false
	if e.runFn != nil {
		res, err = e.runFn(j.ctx, j.cfg, j.setProgress)
	} else {
		if res, err, remote = e.tryRemote(j); !remote {
			res, err = e.solve(j, reuse)
		}
	}
	switch {
	case err == nil:
		if j.key != "" {
			e.cache.Put(j.key, res)
			e.persistResult(j, res)
		}
		j.finish(StateDone, res, nil, false, func() {
			e.completed.Add(1)
			dur := time.Since(j.started)
			e.observeRunDuration(dur)
			e.metrics.observeRun(res, dur)
		})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, nil, err, false, func() { e.canceled.Add(1) })
	default:
		j.finish(StateFailed, nil, err, false, func() { e.failed.Add(1) })
	}
}

// tryRemote dispatches an eligible job to the fleet. The third return is
// false when the job was not (or could not be) dispatched and must be
// solved locally: no runner configured, an ineligible config, or no
// healthy workers — the graceful-degradation path, which also seeds the
// local solve with the last checkpoint the runner pulled before giving up.
func (e *Engine) tryRemote(j *Job) (*core.Result, error, bool) {
	r := e.opts.Remote
	if r == nil || j.key == "" || j.cfg.KeepBank || j.cfg.Replicas > 1 {
		return nil, nil, false
	}
	res, err := r.RunShard(j.ctx, j.cfg, j.applyRemoteUpdate)
	if err != nil && errors.Is(err, ErrNoWorkers) {
		j.addWarning("fleet: no workers reachable; degraded to local execution")
		return nil, nil, false
	}
	return res, err, true
}

// solve drives one job through the core Simulation lifecycle: resume from a
// submission-seeded snapshot or a stored checkpoint when one exists,
// otherwise Reset the worker's retained engine or build a fresh one; stream
// per-step results onto the job; checkpoint at step boundaries; drop the
// checkpoint on success.
func (e *Engine) solve(j *Job, reuse **core.Simulation) (*core.Result, error) {
	ckpt := e.checkpointKey(j.key)
	var sim *core.Simulation
	if seed := j.takeSeedSnap(); seed != nil {
		// A seeded snapshot outranks any stored checkpoint: the
		// coordinator hands the freshest resume point it pulled, while the
		// store holds whatever an earlier attempt left behind.
		if restored, rerr := core.RestoreSimulation(j.cfg, seed); rerr == nil {
			sim = restored
			j.setResumedFrom(restored.StepIndex())
		} else {
			j.addWarning(fmt.Sprintf("checkpoint: seeded snapshot rejected, running fresh: %v", rerr))
		}
	}
	if sim == nil && ckpt != "" {
		if data, err := e.opts.Blobs.Get(ckpt); err == nil {
			if restored, rerr := core.RestoreSimulation(j.cfg, data); rerr == nil {
				sim = restored
				j.setResumedFrom(restored.StepIndex())
			} else {
				// Corrupt or mismatched checkpoint: discard it and
				// run fresh rather than failing the job.
				e.opts.Blobs.Delete(ckpt)
			}
		}
	}
	if sim == nil {
		if *reuse != nil && (*reuse).Reset(j.cfg) == nil {
			sim = *reuse
		} else {
			var err error
			if sim, err = core.NewSimulation(j.cfg); err != nil {
				return nil, err
			}
		}
	}
	*reuse = sim

	// Per-step timing spans land on the job for /v1/jobs/{id}/trace; the
	// hook is removed before the simulation goes back into worker reuse
	// (Reset would clear it too — this covers the no-Reset fresh path).
	sim.SetTrace(j.addTiming)
	defer sim.SetTrace(nil)

	res, err := sim.Drive(j.ctx, j.setProgress, func(s *core.Simulation) {
		j.addStep(stepViewOf(s))
		if s.StepIndex()%e.opts.CheckpointEvery != 0 {
			return
		}
		var data []byte // one Snapshot() serves both sinks
		if j.retainSnap {
			data = s.Snapshot()
			j.setSnapshot(data, s.StepIndex())
		}
		if ckpt != "" {
			if data == nil {
				data = s.Snapshot()
			}
			// Store puts are atomic and collision-safe, so even a
			// batch-pinned duplicate of a routed job cannot publish a
			// torn checkpoint. Best-effort — but never silent: a failed
			// write surfaces as a job warning and a counter, because an
			// operator who configured checkpointing is owed the news
			// that durability is gone.
			if werr := e.opts.Blobs.Put(ckpt, data); werr == nil {
				e.metrics.checkpointWrites.Inc()
			} else {
				e.metrics.checkpointWriteFailures.Inc()
				j.addWarning(fmt.Sprintf("checkpoint: write failed: %v", werr))
			}
		}
	})
	if err == nil && ckpt != "" {
		e.opts.Blobs.Delete(ckpt)
	}
	return res, err
}

// stepViewOf summarises the simulation at the boundary it just completed.
func stepViewOf(s *core.Simulation) StepView {
	alive, census, dead := s.Population()
	return StepView{
		Step:        s.StepIndex() - 1,
		Steps:       s.Steps(),
		TallyTotal:  s.TallyTotal(),
		WallSeconds: s.Elapsed().Seconds(),
		Alive:       alive,
		Census:      census,
		Dead:        dead,
	}
}

// checkpointKey maps a cacheable fingerprint to its blob-store checkpoint
// key; "" (never checkpointed) without a store or a canonical fingerprint.
func (e *Engine) checkpointKey(key string) string {
	if e.opts.Blobs == nil || key == "" {
		return ""
	}
	return "checkpoints/" + key
}

// resultKey maps a cacheable fingerprint to its blob-store persisted-result
// key; "" without a store or a canonical fingerprint.
func (e *Engine) resultKey(key string) string {
	if e.opts.Blobs == nil || key == "" {
		return ""
	}
	return "results/" + key
}

// storedResult consults the blob store's persistent result tier on a memory
// cache miss. Only plain single runs participate: the wire view carries no
// particle banks (KeepBank) and no per-replica histories, and an ensemble
// parent's merged statistics live with the in-memory cache entry.
func (e *Engine) storedResult(key string, cfg core.Config) (*core.Result, bool) {
	rk := e.resultKey(key)
	if rk == "" || cfg.Replicas > 1 || cfg.KeepBank {
		return nil, false
	}
	data, err := e.opts.Blobs.Get(rk)
	if err != nil {
		return nil, false
	}
	var rv ResultView
	if json.Unmarshal(data, &rv) != nil {
		// Corrupt entry: drop it so the next miss re-persists cleanly.
		e.opts.Blobs.Delete(rk)
		return nil, false
	}
	return rv.Result(cfg), true
}

// persistResult writes a completed result into the store's persistent tier
// (best-effort, same eligibility as storedResult) so a restarted process —
// or a stateless replica sharing the store — serves it without a solve.
func (e *Engine) persistResult(j *Job, res *core.Result) {
	rk := e.resultKey(j.key)
	if rk == "" || j.cfg.Replicas > 1 || j.cfg.KeepBank {
		return
	}
	data, err := json.Marshal(resultViewOf(res))
	if err != nil {
		return
	}
	if e.opts.Blobs.Put(rk, data) == nil {
		e.metrics.blobResultWrites.Inc()
	}
}

// Job looks up a job by ID.
func (e *Engine) Job(id string) (*Job, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every job in submission order.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// Cancel stops a job: a queued job is marked canceled and removed without
// ever occupying a worker; a running job has its context canceled and the
// solver bails at its next poll. Canceling a terminal job is a no-op.
func (e *Engine) Cancel(id string) error {
	j, err := e.Job(id)
	if err != nil {
		return err
	}
	// Decide the queued case atomically with the state transition: if a
	// worker wins the race and sets Running first, this only cancels the
	// context and the worker records the cancellation when the solver
	// returns — never both.
	j.mu.Lock()
	wonQueued := j.state == StateQueued &&
		j.finishLocked(StateCanceled, nil, context.Canceled, false, func() { e.canceled.Add(1) })
	j.mu.Unlock()
	if wonQueued {
		for _, q := range e.shards {
			if q.Remove(id) {
				break
			}
		}
		return nil
	}
	j.cancel()
	return nil
}

// Stats is a point-in-time view of the engine.
type Stats struct {
	Shards        int        `json:"shards"`
	QueueDepth    int        `json:"queue_depth"`
	ThreadsPerJob int        `json:"threads_per_job"`
	Queued        int        `json:"queued"`
	Running       int64      `json:"running"`
	Submitted     uint64     `json:"submitted"`
	Completed     uint64     `json:"completed"`
	Failed        uint64     `json:"failed"`
	Canceled      uint64     `json:"canceled"`
	Runs          uint64     `json:"runs"`
	Rejected      uint64     `json:"rejected"`
	Cache         CacheStats `json:"cache"`
}

// Stats reports queue, execution and cache counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Shards:        e.opts.Shards,
		QueueDepth:    e.opts.QueueDepth,
		ThreadsPerJob: e.opts.ThreadsPerJob,
		Running:       e.running.Load(),
		Submitted:     e.submitted.Load(),
		Completed:     e.completed.Load(),
		Failed:        e.failed.Load(),
		Canceled:      e.canceled.Load(),
		Runs:          e.runs.Load(),
		Cache:         e.cache.Stats(),
	}
	for _, q := range e.shards {
		s.Queued += q.Len()
		_, dropped := q.Stats()
		s.Rejected += dropped
	}
	return s
}

// Cache exposes the result cache (read-mostly; shared with the API layer).
func (e *Engine) Cache() *Cache { return e.cache }

// DefaultScene reports the engine's default scene for problem-less
// submissions; nil when none was configured.
func (e *Engine) DefaultScene() *scene.Scene { return e.opts.DefaultScene }

// CheckpointInFlight writes the latest retained snapshot of every
// non-terminal job into the blob store — the SIGTERM drain path: called
// before Close, it persists each in-flight shard at its last step boundary
// so a process restarted over the same store (or a coordinator rescheduling
// the shard elsewhere) resumes instead of re-running. Returns the number of
// snapshots written. A no-op without a store; jobs that retain no snapshot
// rely on their regular per-step checkpoints, which Close leaves in place.
func (e *Engine) CheckpointInFlight() int {
	if e.opts.Blobs == nil {
		return 0
	}
	n := 0
	for _, j := range e.Jobs() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		snap := j.snap
		key := j.key
		j.mu.Unlock()
		if terminal || snap == nil || key == "" {
			continue
		}
		if e.opts.Blobs.Put(e.checkpointKey(key), snap) == nil {
			e.metrics.checkpointWrites.Inc()
			n++
		} else {
			e.metrics.checkpointWriteFailures.Inc()
		}
	}
	return n
}

// Close stops the engine: admissions end, the backlog and in-flight runs
// are canceled, and Close returns once every worker has exited. All
// non-terminal jobs end StateCanceled.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	e.mu.Unlock()

	e.cancel() // aborts running solvers and queued-job contexts
	for _, q := range e.shards {
		q.Close()
	}
	e.wg.Wait()

	// Workers drained the queues; anything popped after the cancel came
	// back canceled. Sweep stragglers that were queued but skipped.
	for _, j := range e.Jobs() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			j.finish(StateCanceled, nil, ErrClosed, false, func() { e.canceled.Add(1) })
		}
	}
}
