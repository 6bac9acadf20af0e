package core

import (
	"fmt"
	"time"

	"repro/internal/particle"
)

// This file implements the future-work extension the paper plans in §IX: a
// domain decomposition of the mesh, as a single-process stand-in for the
// MPI parallelisation ("an MPI decomposition over NUMA domains could
// improve performance"). The mesh is split into vertical strips; each
// domain owns the particles currently inside its strip and processes them
// with a dedicated worker, and between timesteps particles that ended the
// step in another strip migrate — the census exchange an MPI rank would
// perform. The statistics expose exactly the load-balance questions the
// paper defers to the load-balancing literature.

// DomainStats reports the decomposition behaviour of a RunDomains call.
type DomainStats struct {
	// Domains is the strip count.
	Domains int
	// StartPopulation is each domain's particle count at birth.
	StartPopulation []int
	// Migrations counts, per step, the particles that ended the step
	// owned by a different domain — the census-exchange volume.
	Migrations []int
	// Busy is each domain worker's accumulated busy time; the spread is
	// the inter-domain load imbalance an MPI decomposition would see.
	Busy []time.Duration
}

// Imbalance is max domain busy time over the mean.
func (s *DomainStats) Imbalance() float64 {
	if len(s.Busy) == 0 {
		return 1
	}
	var sum, max time.Duration
	for _, b := range s.Busy {
		sum += b
		if b > max {
			max = b
		}
	}
	mean := float64(sum) / float64(len(s.Busy))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// TotalMigrations sums the census-exchange volume over all steps.
func (s *DomainStats) TotalMigrations() int {
	t := 0
	for _, m := range s.Migrations {
		t += m
	}
	return t
}

// RunDomains executes the simulation with the mesh decomposed into the
// given number of vertical strips, one worker per domain, using the Over
// Particles scheme. Particle histories are identical to Run's (the
// counter-based RNG makes them independent of ownership), so results match
// a plain run bit for bit; what changes is who processes what, which the
// returned statistics describe.
func RunDomains(cfg Config, domains int) (*Result, *DomainStats, error) {
	if domains < 1 {
		return nil, nil, fmt.Errorf("core: domain count %d must be positive", domains)
	}
	cfg.Scheme = OverParticles
	cfg.Threads = domains // one worker per domain
	r, err := newRun(cfg, true)
	if err != nil {
		return nil, nil, err
	}
	cfg = r.cfg

	stats := &DomainStats{
		Domains: domains,
		Busy:    make([]time.Duration, domains),
	}
	domainOf := func(cellX int32) int {
		d := int(cellX) * domains / cfg.NX
		if d >= domains {
			d = domains - 1
		}
		return d
	}

	// Initial ownership from birth positions.
	owner := make([]int, cfg.Particles)
	var p particle.Particle
	for i := 0; i < cfg.Particles; i++ {
		r.bank.Load(i, &p)
		owner[i] = domainOf(p.CellX)
	}
	stats.StartPopulation = make([]int, domains)
	for _, d := range owner {
		stats.StartPopulation[d]++
	}

	res := &Result{Config: cfg}
	start := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		if step > 0 {
			r.reviveCensus()
		}
		// Each domain worker advances exactly its own particles —
		// the rank-local work of an MPI decomposition.
		r.workTeam().run(domains, func(d int) {
			ws := r.workers[d]
			t0 := time.Now()
			var p particle.Particle
			for i := 0; i < cfg.Particles; i++ {
				if owner[i] != d || r.bank.StatusOf(i) != particle.Alive {
					continue
				}
				r.bank.Load(i, &p)
				r.history(ws, &p)
				r.bank.Store(i, &p)
			}
			busy := time.Since(t0)
			ws.busy += busy
			stats.Busy[d] += busy
		})
		r.endTeam()

		// Census exchange: re-own particles by their final strip. Only
		// histories still in the simulation can migrate: dead particles
		// have no next step, and particles that escaped through a vacuum
		// boundary have left the domain entirely — neither is exchange
		// volume an MPI rank would ship.
		migrated := 0
		for i := 0; i < cfg.Particles; i++ {
			if st := r.bank.StatusOf(i); st == particle.Dead || st == particle.Escaped {
				continue
			}
			r.bank.Load(i, &p)
			if d := domainOf(p.CellX); d != owner[i] {
				owner[i] = d
				migrated++
			}
		}
		stats.Migrations = append(stats.Migrations, migrated)
	}
	res.Wall = time.Since(start)
	r.finish(res)
	return res, stats, nil
}
