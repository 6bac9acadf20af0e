package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/core"
)

// references.json holds the checked outputs of every solver workload
// variant, regenerated with --write-references.
//
//go:embed references.json
var referencesJSON []byte

// references is the stored expectation for the solver workloads.
type references struct {
	// TallyRelTol bounds the relative difference of the tally total from
	// its reference. Two threads deposit into one atomic tally in
	// scheduler order, so the per-cell sums reassociate and the total may
	// move in its last bits from run to run (about 1e-15 relative); one
	// lost or doubled deposit moves it by more than 1e-8. 1e-12 passes
	// the first and fails the second.
	TallyRelTol float64 `json:"tally_rel_tol"`
	// ConservationTol bounds the conservation audit's relative error:
	// birth energy against deposited + in flight + leaked.
	ConservationTol float64 `json:"conservation_tol"`
	Reason          string  `json:"reason"`
	// Workloads maps workload name → physics seed → expected output.
	Workloads map[string]map[string]solverRef `json:"workloads"`
}

// solverRef is one variant's expected output. Event counters do not depend
// on deposit order, so they must match exactly.
type solverRef struct {
	FacetEvents       uint64  `json:"facet_events"`
	CollisionEvents   uint64  `json:"collision_events"`
	CensusEvents      uint64  `json:"census_events"`
	Deaths            uint64  `json:"deaths"`
	Reflections       uint64  `json:"reflections"`
	Segments          uint64  `json:"segments"`
	TallyTotal        float64 `json:"tally_total"`
	ConservationError float64 `json:"conservation_error"`
}

func refOf(res *core.Result) solverRef {
	c := res.Counter
	return solverRef{
		FacetEvents: c.FacetEvents, CollisionEvents: c.CollisionEvents,
		CensusEvents: c.CensusEvents, Deaths: c.Deaths, Reflections: c.Reflections,
		Segments: c.Segments, TallyTotal: res.TallyTotal,
		ConservationError: res.Conservation.RelativeError,
	}
}

// check compares a result with its reference.
func (r *references) check(res *core.Result, want solverRef) error {
	got := refOf(res)
	gotCounts := [...]uint64{got.FacetEvents, got.CollisionEvents, got.CensusEvents, got.Deaths, got.Reflections, got.Segments}
	wantCounts := [...]uint64{want.FacetEvents, want.CollisionEvents, want.CensusEvents, want.Deaths, want.Reflections, want.Segments}
	if gotCounts != wantCounts {
		return fmt.Errorf("event counters %v, want %v", gotCounts, wantCounts)
	}
	if math.Abs(got.TallyTotal-want.TallyTotal) > r.TallyRelTol*math.Abs(want.TallyTotal) {
		return fmt.Errorf("tally total %v, want %v (relative tolerance %g)", got.TallyTotal, want.TallyTotal, r.TallyRelTol)
	}
	if !(math.Abs(got.ConservationError) <= r.ConservationTol) {
		return fmt.Errorf("conservation error %v exceeds %g", got.ConservationError, r.ConservationTol)
	}
	return nil
}

// writeReferences recomputes every solver variant and prints references.json.
func writeReferences(w io.Writer) error {
	refs := references{
		TallyRelTol:     1e-12,
		ConservationTol: 1e-12,
		Reason: "event counters are exact; the tally total may differ in its last bits because two threads " +
			"reassociate atomic deposits, far below the 1e-8 a single lost deposit causes",
		Workloads: map[string]map[string]solverRef{},
	}
	for _, wl := range []string{"oe-csp", "op-stream-4k"} {
		refs.Workloads[wl] = map[string]solverRef{}
		for v := uint64(0); v < physicsVariants; v++ {
			cfg, err := solverConfig(wl, v)
			if err != nil {
				return err
			}
			res, err := core.Run(cfg)
			if err != nil {
				return err
			}
			refs.Workloads[wl][strconv.FormatUint(cfg.Seed, 10)] = refOf(res)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(refs)
}

// cycle is one NewSimulation + Run of a solver workload.
type cycle struct {
	traced    bool
	track     string
	setup     time.Duration // NewSimulation wall
	solve     time.Duration // Run wall
	firstStep time.Duration // NewSimulation start to the first Step's end
	alloc     uint64        // heap bytes allocated by setup plus solve
	launches  int           // kernel regions entered (traced only)
	res       *core.Result
}

// probe implements core.RegionProbe: each kernel region becomes a span
// under the current step span.
type probe struct {
	rec      *recorder
	track    string
	step     int
	open     int
	launches int
}

func (p *probe) StartRegion(name string) {
	p.open = p.rec.start(name, p.track, p.step)
	p.launches++
}

func (p *probe) EndRegion(string) { p.rec.end(p.open) }

// runCycle builds and runs one simulation. With a recorder it drives the
// simulation step by step under the region probe and records spans;
// without one it calls Run.
func runCycle(cfg core.Config, rec *recorder, track string) (cycle, error) {
	// Each cycle starts from a heap returned to the OS, so setup pays the
	// page faults a fresh process pays.
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	c := cycle{traced: rec != nil, track: track}
	root := rec.start("cycle", track, -1)
	t0 := time.Now()
	newSpan := rec.start("core.new", track, root)
	sim, err := core.NewSimulation(cfg)
	rec.end(newSpan)
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	var first time.Time
	sim.SetTrace(func(core.StepTiming) {
		if first.IsZero() {
			first = time.Now()
		}
	})
	if rec == nil {
		c.res, err = sim.Run()
	} else {
		p := &probe{rec: rec, track: track}
		sim.SetRegionProbe(p)
		runSpan := rec.start("core.run", track, root)
		for !sim.Done() && err == nil {
			p.step = rec.start("core.step", track, runSpan)
			err = sim.Step()
			rec.end(p.step)
		}
		c.res = sim.Finalize()
		rec.end(runSpan)
		c.launches = p.launches
	}
	t2 := time.Now()
	rec.end(root)
	if err != nil {
		return c, err
	}
	runtime.ReadMemStats(&ms)
	c.setup, c.solve, c.firstStep = t1.Sub(t0), t2.Sub(t1), first.Sub(t0)
	c.alloc = ms.TotalAlloc - alloc0
	return c, nil
}

// runSolver runs a solver workload: one warm-up cycle, then cycles until
// the window closes. A traced run alternates untraced and traced cycles so
// the tracing overhead is measured on the same process and heap.
func runSolver(o options) (result, validity, error) {
	var refs references
	if err := json.Unmarshal(referencesJSON, &refs); err != nil {
		return result{}, validity{}, fmt.Errorf("references.json: %w", err)
	}
	cfg, err := solverConfig(o.workload, o.seed)
	if err != nil {
		return result{}, validity{}, err
	}
	want, ok := refs.Workloads[o.workload][strconv.FormatUint(cfg.Seed, 10)]
	if !ok {
		return result{}, validity{}, fmt.Errorf("no reference for %s seed %d", o.workload, cfg.Seed)
	}
	var rec *recorder
	if o.trace {
		rec = &recorder{}
	}
	res := result{Correct: true}
	val := validity{Valid: true}
	var cycles []cycle
	var deadline time.Time
	for i := 0; ; i++ {
		// Cycle 0 is the warm-up; in a traced run the even cycles after it
		// are traced and the odd ones are not.
		var r *recorder
		if i > 0 && i%2 == 0 {
			r = rec
		}
		c, err := runCycle(cfg, r, fmt.Sprintf("cycle-%d", i))
		if err != nil {
			return result{}, validity{}, err
		}
		res.Attempted++
		if err := refs.check(c.res, want); err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s cycle %d: %v\n", o.workload, i, err)
		}
		if i == 0 {
			deadline = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
			// Setup is timed on every cycle, the warm-up's included.
			cycles = append(cycles, cycle{setup: c.setup, track: "warm-up"})
			continue
		}
		cycles = append(cycles, c)
		if time.Now().After(deadline) && (!o.trace || i >= 2) {
			break
		}
	}
	if o.trace {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := rec.writeChrome(path); err != nil {
			return result{}, validity{}, err
		}
		val.TraceFile = path
		res.Metrics = solverLayers(cycles, rec, cfg.Threads)
	} else {
		res.Metrics = solverEndToEnd(cycles)
	}
	return res, val, nil
}

// solverP99Windows is how many consecutive groups of cycles the solver tail
// is taken over: a run has ~10 cycles, too few for a p99, so job_p99_s is
// the median of the groups' slowest cycles.
const solverP99Windows = 3

// solverEndToEnd reduces the measured cycles to the end-to-end metrics.
// A solver "job" is one cycle: what a user running the solver waits for.
func solverEndToEnd(cycles []cycle) map[string]metric {
	var setup, solve, job, first, alloc []float64
	var events, jobTotal float64
	for _, c := range cycles {
		setup = append(setup, secs(c.setup))
		if c.res == nil { // the warm-up contributes its setup only
			continue
		}
		solve = append(solve, secs(c.solve))
		job = append(job, secs(c.setup+c.solve))
		jobTotal += secs(c.setup + c.solve)
		first = append(first, secs(c.firstStep))
		alloc = append(alloc, float64(c.alloc))
		events = float64(c.res.Counter.TotalEvents())
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"solve_s":          {median(solve), "s"},
		"events_per_s":     {events / median(solve), "1/s"},
		"alloc_bytes":      {median(alloc), "bytes"},
		"job_p50_s":        {median(job), "s"},
		"job_p99_s":        {windowedP99(job, solverP99Windows), "s"},
		"jobs_per_s":       {float64(len(job)) / jobTotal, "1/s"},
		"first_step_p50_s": {median(first), "s"},
		"rss_peak_bytes":   {float64(vmHWM("self")), "bytes"},
	}
}

// kernelMetrics names the per-layer metrics of each probed kernel region
// and the counter its per-event cost divides by.
var kernelMetrics = []struct {
	region, name, per string
	count             func(*core.Counters) uint64
}{
	{"event-kernel", "core.event_kernel", "ns_per_segment", func(c *core.Counters) uint64 { return c.Segments }},
	{"facet-kernel", "core.facet_kernel", "ns_per_facet", func(c *core.Counters) uint64 { return c.FacetEvents }},
	{"collision-kernel", "core.collision_kernel", "ns_per_collision", func(c *core.Counters) uint64 { return c.CollisionEvents }},
	{"fused", "core.fused", "ns_per_event", func(c *core.Counters) uint64 { return c.TotalEvents() }},
}

// solverLayers reduces a traced run to the per-layer metrics, each a median
// over the traced cycles; the service-layer metrics read 0 because this
// workload does not exercise those layers.
func solverLayers(cycles []cycle, rec *recorder, threads int) map[string]metric {
	self := rec.selfTimes()
	// Per traced cycle: region self time by region name, and span walls.
	regionSelf := map[string]map[string]float64{}
	var newS, stepS []float64
	for i, s := range rec.spans {
		if regionSelf[s.Track] == nil {
			regionSelf[s.Track] = map[string]float64{}
		}
		regionSelf[s.Track][s.Name] += secs(self[i])
		switch s.Name {
		case "core.new":
			newS = append(newS, secs(s.End.Sub(s.Start)))
		case "core.step":
			stepS = append(stepS, secs(s.End.Sub(s.Start)))
		}
	}
	var traced, untraced []float64
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for _, c := range cycles {
		if c.res == nil {
			continue
		}
		if !c.traced {
			untraced = append(untraced, secs(c.solve))
			continue
		}
		traced = append(traced, secs(c.solve))
		r := c.res
		var busy time.Duration
		for _, b := range r.WorkerBusy {
			busy += b
		}
		add("core.worker_wait_s", secs(time.Duration(threads)*r.Wall-busy))
		add("core.load_imbalance", r.LoadImbalance())
		add("core.oe_rounds", float64(r.Counter.OERounds))
		add("core.oe_active_fraction", r.Counter.OEActiveFraction())
		add("core.segments", float64(r.Counter.Segments))
		add("core.facets", float64(r.Counter.FacetEvents))
		add("core.collisions", float64(r.Counter.CollisionEvents))
		add("core.census", float64(r.Counter.CensusEvents))
		add("core.kernel_launches", float64(c.launches))
		add("tally.atomic_conflicts", float64(r.AtomicConflicts))
		for _, k := range kernelMetrics {
			s := regionSelf[c.track][k.region]
			add(k.name+".self_s", s)
			add(k.name+"."+k.per, 1e9*ratio(s, float64(k.count(&r.Counter))))
		}
	}
	m := zeroLayers()
	for name, vs := range per {
		m[name] = metric{median(vs), m[name].Unit}
	}
	m["core.new_s"] = metric{median(newS), "s"}
	m["core.step_s"] = metric{median(stepS), "s"}
	m["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	return m
}
