package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// ReplicaView summarises one completed replica of an ensemble job — the
// payload of the per-replica SSE events and the parent job's replica
// history.
type ReplicaView struct {
	// Replica is the completed 0-based replica; Replicas the ensemble
	// width.
	Replica  int `json:"replica"`
	Replicas int `json:"replicas"`
	// JobID names the child job that ran the replica.
	JobID string `json:"job_id"`
	// Cached reports a replica served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// TallyTotal is the replica's deposited weight-eV; WallSeconds its
	// solver wallclock.
	TallyTotal  float64 `json:"tally_total"`
	WallSeconds float64 `json:"wall_seconds"`
	// Worker names the fleet worker the replica ran on, and Reschedules
	// counts its lease-expiry reassignments. Both absent outside a fleet
	// coordinator.
	Worker      string `json:"worker,omitempty"`
	Reschedules int    `json:"reschedules,omitempty"`
}

// Replicas returns the per-replica results recorded so far, in replica
// order (never nil). Empty for non-ensemble jobs.
func (j *Job) Replicas() []ReplicaView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]ReplicaView{}, j.replicas...)
}

// ReplicasFrom returns only the replica results recorded after the first n,
// the O(new) polling path the SSE stream uses; nil when nothing new arrived.
func (j *Job) ReplicasFrom(n int) []ReplicaView {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.replicas) {
		return nil
	}
	return append([]ReplicaView(nil), j.replicas[n:]...)
}

// Ensemble returns the merged ensemble statistics of a finished ensemble
// job, nil for single-run jobs or while replicas are still in flight.
func (j *Job) Ensemble() *stats.Ensemble {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ensemble
}

// addReplica records a completed replica and advances the parent progress.
// Replica reschedules accumulate onto the parent, so an ensemble view
// reports the total failover count across its shards.
func (j *Job) addReplica(v ReplicaView) {
	j.mu.Lock()
	j.replicas = append(j.replicas, v)
	j.progress = core.Progress{Step: len(j.replicas), Steps: v.Replicas}
	j.reschedules += v.Reschedules
	j.mu.Unlock()
}

// runEnsemble coordinates one ensemble job: it submits one child job per
// replica — routed by fingerprint across the engine's sharded worker pool
// exactly like user submissions, so replicas run concurrently, dedupe
// against the cache, and checkpoint individually — then folds the per-cell
// tallies into ensemble statistics in replica order and caches the merged
// result under the parent's fingerprint. The coordinator is a goroutine, not
// a worker: a wide ensemble never starves the pool of its own replicas.
func (e *Engine) runEnsemble(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled before the coordinator started
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	e.running.Add(1)
	defer e.running.Add(-1)

	cfg := j.cfg
	reps := cfg.Replicas
	children := make([]*Job, 0, reps)
	cancelChildren := func() {
		for _, c := range children {
			e.Cancel(c.ID())
		}
	}
	for r := 0; r < reps; r++ {
		ccfg := cfg
		// A replica is a plain single-run job: Replicas 1 keeps it off
		// the ensemble path (no recursion), and replica 0's config —
		// and therefore its cache key — matches an ordinary user
		// submission of the same run.
		ccfg.Replicas = 1
		ccfg.Replica = r
		// The merger needs every replica's per-cell tally; the bank is
		// never needed.
		ccfg.KeepCells = true
		ccfg.KeepBank = false
		// Children inherit the parent's tenant so the fair-share scheduler
		// charges the fan-out to the submitting tenant's lanes.
		child, err := e.submit(ccfg, nil, SubmitOptions{Tenant: j.tenant})
		if err != nil {
			cancelChildren()
			j.finish(StateFailed, nil, fmt.Errorf("service: ensemble replica %d: %w", r, err), false, func() { e.failed.Add(1) })
			return
		}
		children = append(children, child)
	}

	acc := stats.NewAccumulator(cfg.NX * cfg.NY)
	totals := make([]float64, reps)
	var solverWall time.Duration
	var counters core.Counters
	start := time.Now()
	for r, child := range children {
		select {
		case <-child.Done():
		case <-j.ctx.Done():
			cancelChildren()
			j.finish(StateCanceled, nil, j.ctx.Err(), false, func() { e.canceled.Add(1) })
			return
		}
		res, err := child.Result()
		if err != nil {
			cancelChildren()
			j.finish(StateFailed, nil, fmt.Errorf("service: ensemble replica %d: %w", r, err), false, func() { e.failed.Add(1) })
			return
		}
		acc.Add(res.Cells)
		totals[r] = res.TallyTotal
		solverWall += res.Wall
		counters.Add(&res.Counter)
		st := child.Status()
		j.addReplica(ReplicaView{
			Replica:     r,
			Replicas:    reps,
			JobID:       child.ID(),
			Cached:      st.Cached,
			TallyTotal:  res.TallyTotal,
			WallSeconds: res.Wall.Seconds(),
			Worker:      st.Worker,
			Reschedules: st.Reschedules,
		})
	}

	ens := stats.Assemble(acc, totals, solverWall, time.Since(start), counters)
	// Synthesise the parent's merged Result: ensemble-mean tally and
	// summed instrumentation, with the mean per-cell map when the caller
	// asked to keep cells. The full statistics ride alongside in the
	// job and the cache entry.
	res := &core.Result{
		Config:     cfg,
		Wall:       solverWall,
		Counter:    counters,
		TallyTotal: ens.MeanTotal,
	}
	if cfg.KeepCells {
		res.Cells = ens.Mean
	}
	j.mu.Lock()
	j.ensemble = ens
	j.mu.Unlock()
	if j.key != "" {
		e.cache.PutEntry(j.key, res, ens)
	}
	j.finish(StateDone, res, nil, false, func() { e.completed.Add(1) })
}
