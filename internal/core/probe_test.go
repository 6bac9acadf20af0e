package core

import (
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/tally"
)

// recordingProbe checks the RegionProbe contract: strictly paired, never
// nested, canonical phase names.
type recordingProbe struct {
	t      *testing.T
	open   string
	counts map[string]int
}

func (p *recordingProbe) StartRegion(name string) {
	if p.open != "" {
		p.t.Errorf("region %q started inside %q", name, p.open)
	}
	p.open = name
}

func (p *recordingProbe) EndRegion(name string) {
	if p.open != name {
		p.t.Errorf("region %q ended while %q open", name, p.open)
	}
	p.open = ""
	if p.counts == nil {
		p.counts = make(map[string]int)
	}
	p.counts[name]++
}

// TestRegionProbeCoverage runs each scheme with every optional phase enabled
// and checks the probe observes exactly the phases the timing accumulators
// report, under their canonical names. The Threads=2 cases run the kernels
// on a worker team; the probe still sees only the solver goroutine's
// paired, unnested regions (recordingProbe is unsynchronised, so a call
// from a team member would also show up under -race).
func TestRegionProbeCoverage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  Scheme
		threads int
		expect  []string
	}{
		{"over-particles", OverParticles, 1, []string{"fused", "control", "sort", "merge"}},
		{"over-events", OverEvents, 1, []string{"event-kernel", "collision-kernel", "facet-kernel", "tally-kernel", "control", "sort", "merge"}},
		{"over-particles/threads=2", OverParticles, 2, []string{"fused", "control", "sort", "merge"}},
		{"over-events/threads=2", OverEvents, 2, []string{"event-kernel", "collision-kernel", "facet-kernel", "tally-kernel", "control", "sort", "merge"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(mesh.CSP)
			cfg.Threads = tc.threads
			if tc.threads > 1 {
				cfg.Particles = 600 // enough for two-worker rounds
			}
			cfg.Scheme = tc.scheme
			cfg.SortEvery = 1
			cfg.Tally = tally.ModePrivate
			cfg.MergePerStep = true
			cfg.WeightWindow = WeightWindow{Enabled: true}
			sim, err := NewSimulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			probe := &recordingProbe{t: t}
			sim.SetRegionProbe(probe)
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if probe.open != "" {
				t.Errorf("region %q left open at end of run", probe.open)
			}
			for _, want := range tc.expect {
				if probe.counts[want] == 0 {
					t.Errorf("phase %q never probed (saw %v)", want, probe.counts)
				}
			}
			// Every probed name must be canonical, and each probed phase
			// must also carry nonzero accumulated wall time.
			walls := map[string]bool{}
			res.Phases.Each(func(name string, _ time.Duration) { walls[name] = true })
			for name := range probe.counts {
				if !walls[name] {
					t.Errorf("probed phase %q has zero wall time", name)
				}
			}
			valid := map[string]bool{"event-kernel": true, "collision-kernel": true,
				"facet-kernel": true, "tally-kernel": true, "fused": true,
				"merge": true, "control": true, "sort": true}
			for name := range probe.counts {
				if !valid[name] {
					t.Errorf("probe saw unknown region %q", name)
				}
			}
		})
	}
}
