package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/particle"
	"repro/internal/tally"
)

// physicsVariants is how many distinct solver seeds the solver workloads
// draw from; references.json holds the checked outputs of each one.
const physicsVariants = 8

// physicsSeed maps a benchmark seed to the solver seed of its variant.
func physicsSeed(seed uint64) uint64 { return 1000 + seed%physicsVariants }

// solverConfig generates the configuration a solver workload runs for a
// benchmark seed.
//
// oe-csp is the paper's headline scheme on a cache-resident mesh with
// hot-cell deposits: Over Events, csp preset, 512² mesh, AoS, atomic tally,
// 2 threads; most time is in the event and facet kernels and setup is
// under 1%.
//
// op-stream-4k is Over Particles on the paper's 4000² stream mesh: no
// collisions and no deposits, so the tally, the collision path and every
// Over Events kernel sit idle, while ~512 MB of mesh-shaped arrays outgrow
// the caches and setup is ~15% of a cycle.
func solverConfig(workload string, seed uint64) (core.Config, error) {
	var cfg core.Config
	switch workload {
	case "oe-csp":
		cfg = core.Default(mesh.CSP)
		cfg.NX, cfg.NY = 512, 512
		cfg.Particles = 20000
		cfg.Steps = 3
		cfg.Scheme = core.OverEvents
	case "op-stream-4k":
		cfg = core.Default(mesh.Stream)
		cfg.NX, cfg.NY = 4000, 4000
		cfg.Particles = 5000
		cfg.Steps = 1
		cfg.Scheme = core.OverParticles
	default:
		return core.Config{}, fmt.Errorf("unknown solver workload %q", workload)
	}
	cfg.Layout = particle.AoS
	cfg.Tally = tally.ModeAtomic
	cfg.Threads = 2
	cfg.Seed = physicsSeed(seed)
	return cfg, nil
}

// The serve-mix workload: an open loop of independent submitters at a fixed
// Poisson rate, small 128² jobs (~12 ms solves) so the HTTP layer, auth,
// the engine queue, the result cache, SSE and telemetry dominate. The mix
// is modelled, not taken from a production trace.
const (
	mixRatePerS = 40.0 // offered arrivals per second
	mixNX       = 128
	// mixParticles gives a single-step job a ~12 ms single-thread solve
	// at 128². A multi-step job splits it over its steps; an ensemble
	// replica carries all of it, so ensembles are the mix's heavy jobs.
	mixParticles    = 1800
	mixReplicas     = 4
	mixSSESteps     = 3
	mixScrapeEveryS = 1.0 // /metrics scrape period
	// mixWarmupS precedes the measured window: its arrivals are checked,
	// but not timed.
	mixWarmupS = 2.0
)

// kindShare is one job kind's share of the arrivals, and the share of the
// kind's arrivals that bring a spec not seen before; the others repeat an
// earlier arrival of the kind and so are served from the result cache.
type kindShare struct {
	kind     string
	share    float64
	newShare float64
}

// mixShares is the job-kind mix. New specs arrive at a steady rate, so the
// load is the same all through a run instead of front-loaded by a cold
// cache. Ensemble misses are 3% of the arrivals: they hold the p99 rank,
// which then falls inside their latency distribution rather than at the
// edge of rare coincidences between single solves.
var mixShares = []kindShare{
	{"preset", 0.60, 0.10},   // popular presets: cache hits beside misses
	{"scene", 0.15, 0.10},    // inline scenes from examples/scenes
	{"sse", 0.15, 1},         // multi-step jobs followed over SSE
	{"ensemble", 0.10, 0.30}, // 4-replica ensembles
}

// tenantShares splits arrivals between the two bearer-key tenants.
var tenantShares = []float64{0.6, 0.4}

var presets = []string{"stream", "scatter", "csp"}

// jobSpec is the subset of the service's wire spec the mix submits.
type jobSpec struct {
	Problem   string          `json:"problem,omitempty"`
	Scene     json.RawMessage `json:"scene,omitempty"`
	NX        int             `json:"nx"`
	Particles int             `json:"particles"`
	Steps     int             `json:"steps,omitempty"`
	Seed      uint64          `json:"seed"`
	Threads   int             `json:"threads"`
	Replicas  int             `json:"replicas,omitempty"`
}

// arrival is one generated job: when it is due, which tenant sends it, and
// the exact request body. Key identifies the spec: every job with the same
// key must return the same physics.
type arrival struct {
	At      time.Duration
	Kind    string
	Problem string // preset name, for preset jobs
	Tenant  int
	Key     string
	Body    []byte
}

// genServeMix generates the arrival sequence of a serve-mix phase of the
// given length. scenes are the example scene documents in a fixed order.
//
// The sequence is a Poisson process conditioned on its count: exactly
// rate × seconds arrivals at sorted uniform times, with kinds interleaved
// evenly in their shares and tenants dealt from a shuffled deck. Within a
// kind, new specs are dealt evenly in the kind's new share, and presets and
// scenes are taken in rotation. A repeat copies the spec of a uniformly
// chosen earlier arrival of its kind, so a spec's popularity grows with its
// past requests: Simon's model, whose popularity follows Zipf's law. Seeds
// then change which jobs arrive when, not how much of each kind a run
// offers or how many of them solve.
func genServeMix(seed uint64, seconds float64, scenes []json.RawMessage) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x6e657574726f6e))
	n := int(math.Round(mixRatePerS * seconds))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * seconds
	}
	sort.Float64s(at)
	// Kinds are interleaved by smooth weighted round robin, so the
	// solving kinds are spread evenly over the arrivals instead of
	// clustering differently from seed to seed.
	kinds := make([]kindShare, n)
	credit := make([]float64, len(mixShares))
	for i := range kinds {
		best := 0
		for k, ks := range mixShares {
			credit[k] += ks.share
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best]--
		kinds[i] = mixShares[best]
	}
	tenant := make([]int, n)
	for i := int(math.Round(tenantShares[0] * float64(n))); i < n; i++ {
		tenant[i] = 1
	}
	rng.Shuffle(n, func(i, j int) { tenant[i], tenant[j] = tenant[j], tenant[i] })

	out := make([]arrival, n)
	newCredit := map[string]float64{} // a kind's first arrival is new
	for _, ks := range mixShares {
		newCredit[ks.kind] = 1
	}
	seen := map[string][]jobSpec{} // every earlier spec of a kind, repeats included
	fresh := map[string]int{}      // new specs of a kind so far
	for i, ks := range kinds {
		a := arrival{At: time.Duration(at[i] * float64(time.Second)), Kind: ks.kind, Tenant: tenant[i]}
		var spec jobSpec
		if newCredit[ks.kind] += ks.newShare; newCredit[ks.kind] >= 1 {
			newCredit[ks.kind]--
			spec = newSpec(ks.kind, fresh[ks.kind], rng, scenes)
			fresh[ks.kind]++
		} else {
			h := seen[ks.kind]
			spec = h[rng.IntN(len(h))]
		}
		seen[ks.kind] = append(seen[ks.kind], spec)
		if ks.kind == "preset" {
			a.Problem = spec.Problem
		}
		a.Body, _ = json.Marshal(spec)
		a.Key = string(a.Body)
		out[i] = a
	}
	return out
}

// newSpec returns the n-th new spec of a kind, with a fresh seed.
func newSpec(kind string, n int, rng *rand.Rand, scenes []json.RawMessage) jobSpec {
	spec := jobSpec{NX: mixNX, Particles: mixParticles, Threads: 1, Seed: rng.Uint64N(1 << 32)}
	switch kind {
	case "preset":
		spec.Problem = presets[n%len(presets)]
	case "scene":
		spec.Scene = scenes[n%len(scenes)]
	case "sse":
		// Every followed job is new, so it always solves and its first
		// step event is a real step.
		spec.Problem = "csp"
		spec.Steps = mixSSESteps
		spec.Particles = mixParticles / mixSSESteps
	case "ensemble":
		spec.Problem = presets[n%len(presets)]
		spec.Replicas = mixReplicas
	}
	return spec
}

// scrapeTimes is the /metrics scrape schedule of a phase.
func scrapeTimes(seconds float64) []time.Duration {
	var out []time.Duration
	for t := mixScrapeEveryS / 2; t < seconds; t += mixScrapeEveryS {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}
