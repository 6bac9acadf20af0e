package core

import (
	"time"

	"repro/internal/events"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/xs"
)

// oeSchedule is the schedule used by the Over Events kernels. The amount of
// work in each kernel is known before the loop, so a static schedule is
// appropriate (paper §V-B).
var oeSchedule = Schedule{Kind: ScheduleStatic}

// oeState is the Over Events compaction scratch, allocated once per run and
// reused across rounds and steps (nothing here is allocated inside the
// timestep loop). The paper's scheme re-sweeps the full particle bank in
// every kernel of every round; this solver instead keeps a persistent list
// of active slot indices and per-event gather buckets, so each kernel
// iterates exactly the particles it applies to — stream compaction in the
// sense of the event-based GPU transport codes (MC/DC; Tramm et al. 2024).
//
// The buckets are owner-computes: the event kernel assigns worker w one
// contiguous segment [segLo[w], segLo[w]+len) of the active list, and w
// gathers its collision, facet and census entries into its own shadow
// region of each bucket, starting at segLo[w] (a worker can never produce
// more entries than its segment holds). The collision and facet kernels of
// the round then process exactly that region on the same worker — the team
// member whose core already holds those particle records — and write w's
// survivors followed by w's facet particles into w's region of next. The
// only cross-worker copies per round are packing next and the census list
// in worker order. Every bucket is a pure function of the bank state and the
// worker count, which is itself a function of the active count, so
// stepwise/snapshot runs stay bit-identical to uninterrupted ones.
type oeState struct {
	active []int32 // active slot indices for the current round
	next   []int32 // next round's active list (double buffer / shadow)
	coll   []int32 // collision bucket for the round
	facet  []int32 // facet bucket for the round
	facetG []uint8 // facet geometry aligned with facet: axis<<1 | (dir>0)
	census []int32 // slots that reached census this step (grows per round)

	// Per-worker region bookkeeping for the round.
	segLo  []int32 // start of the worker's segment and bucket regions
	nColl  []int32
	nFacet []int32
	nCens  []int32
	nNext  []int32 // the worker's entries in next: survivors, then facets
}

// ensureOE sizes the compaction scratch for the current bank and worker
// count, reusing prior allocations when they fit. stepOverEvents re-checks
// at every step because weight-window splitting can grow the bank between
// steps.
func (r *run) ensureOE() {
	n, threads := r.bank.Len(), r.cfg.Threads
	if n < r.cfg.Particles {
		n = r.cfg.Particles
	}
	if r.oe == nil {
		r.oe = &oeState{}
	}
	sc := r.oe
	if cap(sc.active) < n {
		sc.active = make([]int32, 0, n)
		sc.next = make([]int32, n)
		sc.coll = make([]int32, n)
		sc.facet = make([]int32, n)
		sc.facetG = make([]uint8, n)
		sc.census = make([]int32, n)
	}
	if len(sc.segLo) < threads {
		sc.segLo = make([]int32, threads)
		sc.nColl = make([]int32, threads)
		sc.nFacet = make([]int32, threads)
		sc.nCens = make([]int32, threads)
		sc.nNext = make([]int32, threads)
	}
	if cap(r.speedCache) < n {
		r.speedCache = make([]float64, n)
	}
	// Fresh step: recompute every slot's speed on first touch. See the
	// field comment for why per-step clearing is the whole invalidation
	// story for slot identity.
	spd := r.speedCache[:n]
	for i := range spd {
		spd[i] = 0
	}
	r.speedCache = spd
}

// prefetchAhead is how many active-list entries ahead of the working
// iteration the event kernel touches the bank. Far enough that the lines
// arrive before the loop does (~8 iterations of divides is hundreds of
// cycles), near enough to stay inside the round's working set.
const prefetchAhead = 8

// oeWorkers caps a round's worker count by the work available: a tail
// round carrying a few dozen in-flight particles runs on one or two workers
// instead of paying a full team launch for sub-chunk segments. The count is
// a pure function of the active count, so bucket builds stay deterministic,
// and the round's collision and facet kernels reuse it so that each worker
// finds its own bucket regions.
func oeWorkers(threads, n int) int {
	const grain = 256 // minimum slots that justify another worker
	if w := (n + grain - 1) / grain; w < threads {
		threads = w
	}
	if threads < 1 {
		return 1
	}
	return threads
}

// packSegments compacts per-worker shadow regions of buf into a contiguous
// block starting at base: worker w wrote counts[w] entries at
// base+segLo[w]. Segments are in ascending offset order and each holds no
// more entries than its span, so every destination is at or before its
// source and the forward copies never clobber unread data. Returns the
// packed length.
func packSegments(buf []int32, base int, segLo, counts []int32) int {
	n := 0
	for w := range counts {
		c := int(counts[w])
		if c == 0 {
			continue
		}
		src := base + int(segLo[w])
		if dst := base + n; dst != src {
			copy(buf[dst:dst+c], buf[src:src+c])
		}
		n += c
	}
	return n
}

// sumCounts totals per-worker bucket counts.
func sumCounts(counts []int32) int {
	n := 0
	for _, c := range counts {
		n += int(c)
	}
	return n
}

// stepOverEvents runs one timestep with the Over Events scheme (paper §V-B,
// Listing 2): rounds of tight kernels. Nothing is cached in registers across
// kernels — all state lives in the particle store — and every kernel ends in
// a synchronisation, exactly as in the paper. The deviation (DESIGN.md §9)
// is purely in iteration: where the paper's kernels each sweep the entire
// particle list testing a per-slot event tag, these kernels iterate a
// compacted active-index list and per-event buckets gathered by kernel 1,
// so the per-round cost is O(active particles), not O(bank size). Per-
// particle work, event order and RNG consumption are unchanged, which keeps
// the scheme bit-identical to Over Particles.
//
// Kernel order per round:
//
//  1. event kernel: compute times to events, pick the nearest, move the
//     particle; gathers each particle's index into the collision or facet
//     bucket (census particles retire into the census list);
//  2. collision kernel: handle all colliding particles (its bucket);
//  3. facet kernel (fusing the paper's kernels 3 and 4): flush each
//     facet-encountering particle's deposit into the cell it is leaving
//     (the separate tally loop of §VI-G — a vectorisation workaround a
//     scalar backend does not need), then cross the facet or reflect.
//
// Kernels 2 and 3 are owner-computes: worker w handles the bucket entries
// it gathered in kernel 1 (see oeState). The next round's active list is,
// worker by worker, w's collision survivors followed by w's facet
// particles. After the last round a census kernel flushes every particle
// that reached census.
func (r *run) stepOverEvents(res *Result) {
	r.ensureOE() // the bank may have grown since the last step
	sc := r.oe
	threads := r.cfg.Threads
	bankN := uint64(r.bank.Len())
	// Hoisted: only a mesh with vacuum edges can retire facet particles,
	// so all-reflective scenes skip the escape handling and keep the
	// inlined reflective facet handler.
	canLeak := r.canLeak

	// One status sweep builds the step's initial active set; every later
	// round compacts it from the event buckets.
	sc.active = r.bank.GatherStatus(sc.active[:0], particle.Alive)
	censusLen := 0

	for len(sc.active) > 0 {
		// Cancellation poll: bounded by one round of kernels.
		if r.stop.Load() {
			return
		}
		n := len(sc.active)
		nw := oeWorkers(threads, n)
		tm := r.workTeam()

		// Kernel 1: calculate_time_to_events + determine_next_event,
		// gathering the handler buckets. The kinematic views load the
		// fields advance reads and store the fields it can modify —
		// for SoA that skips the weight/deposit/RNG/id/status columns
		// a pure mover never touches.
		r.regionStart("event-kernel")
		t0 := time.Now()
		tm.run(nw, func(w int) {
			ws := r.workers[w]
			start := time.Now()
			lo, hi := w*n/nw, (w+1)*n/nw
			var scratch particle.Particle
			var pfSink uint64
			spd := r.speedCache
			nc, nf, ncen := 0, 0, 0
			for k := lo; k < hi; k++ {
				// Software pipeline: start pulling the record a few
				// iterations ahead into cache while this iteration's
				// divides retire. The sink keeps the touch loads live.
				if prefetchAhead > 0 && k+prefetchAhead < hi {
					pfSink += r.bank.TouchSlot(int(sc.active[k+prefetchAhead]))
				}
				i := int(sc.active[k])
				p := r.bank.View(i, &scratch)
				// No register caching of the transport state across
				// events: the density and cross sections are re-read
				// from memory for every round. The read lands on the
				// memoised number-density field (same cell, same
				// storage order as the raw densities).
				nd := r.ndCache[r.mesh.StorageIndex(int(p.CellX), int(p.CellY))]
				ws.c.DensityReads++
				if p.CachedSigmaA < 0 {
					lookupXS(ws, p)
				}
				speed := spd[i]
				if speed == 0 {
					speed = events.Speed(p.Energy)
					spd[i] = speed
				}
				// Bit-identical expansion of xs.Macroscopic over the
				// memoised factor: ((sigma*B)*nd), the order the
				// function evaluates.
				sigmaT := (p.CachedSigmaA + p.CachedSigmaS) * xs.BarnsToSquareMetres * nd
				ev, axis, dir := advance(r.mesh, p, sigmaT, speed)
				ws.c.Segments++
				switch ev {
				case events.Collision:
					sc.coll[lo+nc] = int32(i)
					nc++
				case events.Facet:
					g := uint8(axis) << 1
					if dir > 0 {
						g |= 1
					}
					sc.facet[lo+nf] = int32(i)
					sc.facetG[lo+nf] = g
					nf++
				case events.Census:
					ws.c.CensusEvents++
					sc.census[censusLen+lo+ncen] = int32(i)
					ncen++
				}
				r.bank.CommitKinematics(i, p)
				if ev == events.Census {
					// After the commit: status is outside
					// the kinematic field set.
					r.bank.SetStatus(i, particle.Census)
				}
			}
			sc.segLo[w] = int32(lo)
			sc.nColl[w], sc.nFacet[w], sc.nCens[w] = int32(nc), int32(nf), int32(ncen)
			ws.c.OEActiveVisits += uint64(hi - lo)
			ws.pfSink = pfSink
			if ncen > 0 {
				r.done.Add(int64(ncen))
			}
			ws.busy += time.Since(start)
		})
		censusLen += packSegments(sc.census, censusLen, sc.segLo, sc.nCens[:nw])
		res.Phases.EventKernel += time.Since(t0)
		r.regionEnd("event-kernel")

		// Kernel 2: handle_collision for every colliding particle.
		// Survivors are gathered into the worker's region of next;
		// deaths retire here.
		r.regionStart("collision-kernel")
		t0 = time.Now()
		collide := func(w int) {
			ws := r.workers[w]
			start := time.Now()
			lo := int(sc.segLo[w])
			bucket := sc.coll[lo : lo+int(sc.nColl[w])]
			var p particle.Particle
			nk, died := 0, 0
			for _, slot := range bucket {
				i := int(slot)
				r.bank.Load(i, &p)
				s := p.Stream(r.cfg.Seed)
				ws.c.CollisionEvents++
				ws.c.RNGDraws += 3
				cr := events.Collide(&r.ctx, &p, &s, p.CachedSigmaA, p.CachedSigmaS)
				// A collision is the one mid-step energy change:
				// drop the memoised speed with the cross sections.
				r.speedCache[i] = 0
				if cr.Died {
					ws.c.Deaths++
					r.flush(ws, &p)
					died++
				} else {
					// Invalidate the stored cross sections;
					// next round's event kernel re-looks
					// them up (nothing stays in registers).
					p.CachedSigmaA = -1
					p.CachedSigmaS = -1
					sc.next[lo+nk] = slot
					nk++
				}
				p.SaveStream(&s)
				r.bank.Store(i, &p)
			}
			sc.nNext[w] = int32(nk)
			ws.c.OEActiveVisits += uint64(len(bucket))
			if died > 0 {
				r.done.Add(int64(died))
			}
			ws.busy += time.Since(start)
		}
		if sumCounts(sc.nColl[:nw]) > 0 {
			tm.run(nw, collide)
		} else {
			clear(sc.nNext[:nw])
		}
		res.Phases.CollisionKernel += time.Since(t0)
		r.regionEnd("collision-kernel")

		// Kernels 3+4 fused: handle_facet — flush the deposit register
		// into the cell being left (the paper's separate tally loop,
		// §VI-G), then cross into the neighbour cell, reflect at a
		// reflective boundary, or escape through a vacuum one, all
		// through field views. The paper splits these into two kernels
		// only because OpenMP's vectoriser could not digest the atomic
		// inside the facet kernel; a scalar Go backend gains nothing
		// from the split, and fusing removes a second full pass over
		// the facet bucket. Per-particle order is unchanged (flush,
		// then move), so the fusion is invisible to the physics.
		//
		// Each worker appends its facet particles to its region of next
		// behind its collision survivors. On a mesh with vacuum edges,
		// escaped slots drop out of the round like collision deaths do;
		// an all-reflective mesh cannot escape anything, so it keeps
		// the inlined reflective handler and the whole bucket survives,
		// exactly the paper hot path. The flush time is attributed to
		// FacetKernel; TallyKernel times the census flush pass.
		r.regionStart("facet-kernel")
		t0 = time.Now()
		var cross func(w int)
		if !canLeak {
			cross = func(w int) {
				ws := r.workers[w]
				start := time.Now()
				lo := int(sc.segLo[w])
				nf := int(sc.nFacet[w])
				bucket, geom := sc.facet[lo:lo+nf], sc.facetG[lo:lo+nf]
				out := sc.next[lo+int(sc.nNext[w]) : lo+int(sc.nNext[w])+nf]
				for j, slot := range bucket {
					i := int(slot)
					ws.c.FacetEvents++
					g := geom[j]
					axis := int(g >> 1)
					dir := -1
					if g&1 != 0 {
						dir = 1
					}
					if p := r.bank.Ref(i); p != nil {
						// AoS: flush and cross in place — one
						// record touch, no call layers. Same
						// operations as the view path below.
						if p.Deposit != 0 {
							r.tly.Add(ws.id, r.mesh.StorageIndex(int(p.CellX), int(p.CellY)), p.Deposit)
							p.Deposit = 0
						}
						ws.c.TallyFlushes++
						if events.ApplyFacetReflective(r.mesh, p, axis, dir) {
							ws.c.Reflections++
						}
					} else {
						r.flushSlot(ws, i)
						if events.ApplyFacetBank(r.mesh, r.bank, i, axis, dir) == events.FacetReflected {
							ws.c.Reflections++
						}
					}
					out[j] = slot
				}
				sc.nNext[w] += int32(nf)
				ws.c.OEActiveVisits += uint64(nf)
				ws.busy += time.Since(start)
			}
		} else {
			cross = func(w int) {
				ws := r.workers[w]
				start := time.Now()
				lo := int(sc.segLo[w])
				nf := int(sc.nFacet[w])
				bucket, geom := sc.facet[lo:lo+nf], sc.facetG[lo:lo+nf]
				out := sc.next[lo+int(sc.nNext[w]) : lo+int(sc.nNext[w])+nf]
				nk := 0
				for j, slot := range bucket {
					i := int(slot)
					ws.c.FacetEvents++
					g := geom[j]
					axis := int(g >> 1)
					dir := -1
					if g&1 != 0 {
						dir = 1
					}
					var outcome events.FacetOutcome
					if p := r.bank.Ref(i); p != nil {
						if p.Deposit != 0 {
							r.tly.Add(ws.id, r.mesh.StorageIndex(int(p.CellX), int(p.CellY)), p.Deposit)
							p.Deposit = 0
						}
						ws.c.TallyFlushes++
						outcome = events.ApplyFacet(r.mesh, p, axis, dir)
					} else {
						r.flushSlot(ws, i)
						outcome = events.ApplyFacetBank(r.mesh, r.bank, i, axis, dir)
					}
					switch outcome {
					case events.FacetReflected:
						ws.c.Reflections++
					case events.FacetEscaped:
						ws.c.Escapes++
						edge := mesh.EdgeOf(axis, dir)
						wgt, we := r.bank.Escape(i)
						ws.leak.Weight[edge] += wgt
						ws.leak.Energy[edge] += we
						continue // retired: not a survivor
					}
					out[nk] = slot
					nk++
				}
				sc.nNext[w] += int32(nk)
				ws.c.OEActiveVisits += uint64(nf)
				if escaped := nf - nk; escaped > 0 {
					r.done.Add(int64(escaped))
				}
				ws.busy += time.Since(start)
			}
		}
		if sumCounts(sc.nFacet[:nw]) > 0 {
			tm.run(nw, cross)
		}
		res.Phases.FacetKernel += time.Since(t0)
		r.regionEnd("facet-kernel")

		r.workers[0].c.OERounds++
		// The logical cost of the paper's naive round: four full-bank
		// kernels (see Counters.OESlotSweeps).
		r.workers[0].c.OESlotSweeps += 4 * bankN

		// Swap in the next active list, packed in worker order. Each
		// worker's entries keep their kernel-1 order, so with one worker
		// the list is the ordered survivors followed by the ordered
		// facet particles and bank access stays near-sequential.
		nNext := packSegments(sc.next, 0, sc.segLo, sc.nNext[:nw])
		full := sc.next[:cap(sc.next)]
		sc.next = sc.active[:cap(sc.active)]
		sc.active = full[:nNext]
	}

	// Census kernel: flush everything that reached census this step. The
	// census list was gathered round by round, so this visits exactly the
	// retiring particles instead of sweeping the bank.
	r.regionStart("tally-kernel")
	t0 := time.Now()
	r.workTeam().parallelFor(oeWorkers(threads, censusLen), censusLen, oeSchedule, func(w, lo, hi int) {
		ws := r.workers[w]
		start := time.Now()
		for k := lo; k < hi; k++ {
			r.flushSlot(ws, int(sc.census[k]))
		}
		ws.c.OEActiveVisits += uint64(hi - lo)
		ws.busy += time.Since(start)
	})
	res.Phases.TallyKernel += time.Since(t0)
	r.regionEnd("tally-kernel")
	// The naive scheme's census sweep visits the whole bank once per step.
	r.workers[0].c.OESlotSweeps += bankN
}
