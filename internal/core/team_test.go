package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/scene"
)

// threadEquivalenceScenes are the inputs of TestThreadEquivalence: the csp
// preset (collisions, reflective walls, hot-cell deposits) and the
// leaky-box example scene (vacuum edges, so the facet kernel compacts
// escaped particles out of each worker's region).
func threadEquivalenceScenes(t *testing.T) map[string]Config {
	t.Helper()
	csp := Default(mesh.CSP)
	leaky, err := scene.LoadFile("../../examples/scenes/leaky-box.json")
	if err != nil {
		t.Fatal(err)
	}
	box := Default(mesh.CSP)
	box.Scene = leaky
	out := map[string]Config{"csp": csp, "leaky-box": box}
	for name, cfg := range out {
		// Enough particles that the first rounds split across four
		// workers (oeWorkers grants one per 256 active slots).
		cfg.NX, cfg.NY = 128, 128
		cfg.Particles = 800
		cfg.Steps = 2
		cfg.Threads = 1
		cfg.Scheme = OverEvents
		cfg.KeepBank = true
		out[name] = cfg
	}
	return out
}

// TestThreadEquivalence pins multi-threaded runs to the Threads=1 Over
// Events reference: Over Events at 2 and 4 threads, where the owner-computes
// rounds hand each worker's bucket regions to the same team member, and
// Over Particles at the same counts. Particle records must agree bit for
// bit, event counters exactly (Over Particles skips the Over Events
// bookkeeping), the tally total to reassociation tolerance, and
// conservation must close.
func TestThreadEquivalence(t *testing.T) {
	for name, base := range threadEquivalenceScenes(t) {
		for _, layout := range []particle.Layout{particle.AoS, particle.SoA} {
			ref := base
			ref.Layout = layout
			want, err := Run(ref)
			if err != nil {
				t.Fatalf("%s/%v reference: %v", name, layout, err)
			}
			if name == "leaky-box" && want.Counter.Escapes == 0 {
				t.Fatalf("%s: no particle escaped; the scene exercises nothing", name)
			}
			for _, scheme := range []Scheme{OverEvents, OverParticles} {
				for _, threads := range []int{2, 4} {
					t.Run(fmt.Sprintf("%s/%v/%v/threads=%d", name, layout, scheme, threads), func(t *testing.T) {
						cfg := ref
						cfg.Scheme = scheme
						cfg.Threads = threads
						got, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						compareBanks(t, want.Bank, got.Bank)
						wc, gc := want.Counter, got.Counter
						if scheme == OverParticles {
							wc.DensityReads, gc.DensityReads = 0, 0
							wc.OERounds, wc.OESlotSweeps, wc.OEActiveVisits = 0, 0, 0
						}
						if wc != gc {
							t.Errorf("counters differ:\nthreads=1 %+v\nthreads=%d %+v", wc, threads, gc)
						}
						if rel := relDiff(want.TallyTotal, got.TallyTotal); rel > 1e-12 {
							t.Errorf("tally total %v vs %v: %.3g relative", got.TallyTotal, want.TallyTotal, rel)
						}
						if e := got.Conservation.RelativeError; e > 1e-12 {
							t.Errorf("conservation error %.3g", e)
						}
					})
				}
			}
		}
	}
}

// awaitGoroutines waits until the goroutine count drops back to baseline: a
// member that has signalled the team's WaitGroup still needs a moment to
// finish exiting, so the count is polled up to a deadline.
func awaitGoroutines(t *testing.T, baseline int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after %s: %d goroutines, baseline %d\n%s",
				after, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// interruptProbe interrupts its simulation when region opens, and records
// whether a team was live at each region's end.
type interruptProbe struct {
	sim    *Simulation
	region string
	teams  int
}

func (p *interruptProbe) StartRegion(name string) {
	if name == p.region {
		p.sim.Interrupt()
	}
}

func (p *interruptProbe) EndRegion(string) {
	if p.sim.r.team != nil {
		p.teams++
	}
}

// TestTeamLifecycle checks no team member outlives its step: the goroutine
// count returns to its baseline after a full Run, after a Step stopped
// mid-round by Interrupt, and after Reset rebinds the simulation to another
// thread count. It also checks a team exists inside the kernels at
// Threads > 1 and never at Threads = 1.
func TestTeamLifecycle(t *testing.T) {
	for _, scheme := range []Scheme{OverEvents, OverParticles} {
		t.Run(scheme.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := smallConfig(mesh.CSP)
			cfg.Particles = 600 // enough for two-worker rounds
			cfg.Scheme = scheme
			cfg.Threads = 2
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &interruptProbe{sim: sim}
			sim.SetRegionProbe(probe)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if probe.teams == 0 {
				t.Error("no team inside the kernels at Threads=2")
			}
			if sim.r.team != nil {
				t.Error("team left open after Run")
			}
			awaitGoroutines(t, baseline, "Run")

			// Interrupt from inside the step: Over Events stops at
			// the next round, Over Particles before any history.
			if err := sim.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			region := "collision-kernel"
			if scheme == OverParticles {
				region = "fused"
			}
			sim.SetRegionProbe(&interruptProbe{sim: sim, region: region})
			if err := sim.Step(); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted step returned %v, want ErrInterrupted", err)
			}
			awaitGoroutines(t, baseline, "Interrupt")

			for _, threads := range []int{4, 1} {
				cfg.Threads = threads
				if err := sim.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				probe := &interruptProbe{sim: sim}
				sim.SetRegionProbe(probe)
				if _, err := sim.Run(); err != nil {
					t.Fatal(err)
				}
				if threads == 1 && probe.teams != 0 {
					t.Error("a team was built at Threads=1")
				}
				awaitGoroutines(t, baseline, fmt.Sprintf("Reset to %d threads", threads))
			}
		})
	}
}

// TestTeamRunCoversWorkers checks a launch narrower than its team runs on
// exactly its first k members, including after wider and narrower launches
// on the same team — the shape of the Over Events rounds, whose worker
// count follows the shrinking active list.
func TestTeamRunCoversWorkers(t *testing.T) {
	tm := newTeam(4)
	defer tm.close()
	var hits [4]int
	for _, k := range []int{2, 4, 1, 3, 4, 2} {
		var ran [4]bool
		tm.run(k, func(w int) { ran[w] = true })
		for w, r := range ran {
			if r != (w < k) {
				t.Fatalf("launch of %d: member %d ran=%v", k, w, r)
			}
			if r {
				hits[w]++
			}
		}
	}
	if hits != [4]int{6, 5, 3, 2} {
		t.Errorf("per-member launch counts %v", hits)
	}
}
