package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

const (
	// mixConns caps the client's connections: with the server's two
	// single-thread shards, client and server stay within two CPUs.
	mixConns = 2
	// setupLaunches is how many times a run starts the server to time
	// setup; the last launch serves the load.
	setupLaunches = 5
	// maxGenLag marks a run invalid: a generator this late offered a
	// different load from the one the workload defines.
	maxGenLag = 20 * time.Millisecond
	// drainTimeout bounds the wait for in-flight jobs after the last
	// arrival.
	drainTimeout = 60 * time.Second
	// mixCacheEntries sizes the server's result cache above the number of
	// distinct specs a run submits, so repeats hit and misses are first
	// sightings, not LRU evictions.
	mixCacheEntries = 1024
	// mixP99Window is how many consecutive arrivals one window of the tail
	// estimate holds. The nearest-rank p99 of 69 jobs is their slowest, and
	// the median of the slowest of 69 is the 99th percentile (0.5^(1/69) =
	// 0.990), so the median over a run's windows estimates the p99 while a
	// host stall moves only the windows it falls in.
	mixP99Window = 69
	// conservationTol bounds each job's conservation audit.
	conservationTol = 1e-12
)

// tenants are the two bearer-key tenants; their rate limits sit far above
// their share of the offered rate, so no admission is shed.
var tenants = []struct{ name, key string }{
	{"alpha", "alpha-bench-key"},
	{"beta", "beta-bench-key"},
}

const tenantRate = 500 // admissions per second and burst, per tenant

// server is one neutral-serve process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// launch starts neutral-serve and returns once /healthz answers, with the
// time that took.
func launch(o options, n int) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(o.out, fmt.Sprintf("serve-%s-%d-%d.log", o.workload, o.seed, n)))
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-shards", "2", "-threads-per-job", "1", "-cache", strconv.Itoa(mixCacheEntries), "-pprof", "-drain", "2s"}
	for _, t := range tenants {
		args = append(args, "-key", fmt.Sprintf("%s:%s:%d:%d", t.name, t.key, tenantRate, tenantRate))
	}
	cmd := exec.Command(o.serve, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even one killed hard.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start neutral-serve: %w", err)
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(start) < 30*time.Second {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("neutral-serve did not answer /healthz within 30s")
}

// stop terminates the server gracefully and waits for it to exit.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// client is the load generator's HTTP side: one transport capped at
// mixConns connections, shared by every submitter and the scraper.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     mixConns,
		MaxIdleConnsPerHost: mixConns,
		DisableCompression:  true,
	}}}
}

// do sends one request as a tenant and returns the status and body.
func (c *client) do(ctx context.Context, method, path string, tenant int, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+tenants[tenant].key)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches a path that must answer 200 and decodes it.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	code, data, err := c.do(ctx, http.MethodGet, path, 0, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// jobView is the subset of the service's job view the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Cached    bool       `json:"cached"`
	Replicas  int        `json:"replicas"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// resultView is the subset of the service's result view the checks read.
type resultView struct {
	TallyTotal        float64         `json:"tally_total"`
	WallSeconds       float64         `json:"wall_seconds"`
	Events            uint64          `json:"events"`
	ConservationError float64         `json:"conservation_error"`
	Counters          json.RawMessage `json:"counters"`
	Ensemble          *struct {
		ReplicaTotals []float64 `json:"replica_totals"`
	} `json:"ensemble"`
}

// outcome is what the client saw of one job.
type outcome struct {
	n         int // arrival index
	a         arrival
	id        string
	cached    bool
	err       error // refused, or a transport or HTTP failure
	wrong     error // an output check failed
	due, end  time.Time
	submit    time.Duration // POST round trip
	firstStep time.Time     // first SSE step event (sse jobs)
	stepWall  float64       // solver wall of that first step
	res       resultView
	spans     []int // the job's client spans, for stitching
}

func (oc *outcome) latency() float64 { return secs(oc.end.Sub(oc.due)) }

// measured returns the jobs of the measured window that returned a result.
func (p *phase) measured() []*outcome {
	var out []*outcome
	for _, oc := range p.outcomes {
		if oc.err == nil && oc.a.At >= time.Duration(mixWarmupS*float64(time.Second)) {
			out = append(out, oc)
		}
	}
	return out
}

// phase is one serve-mix load phase against one server.
type phase struct {
	c        *client
	rec      *recorder
	start    time.Time
	outcomes []*outcome
	genLag   []float64
	scrapes  []float64
	httpErrs int
	views    map[string]jobView
	traces   map[string][]float64 // job id → server step span durations (s)
	stats    struct {
		Runs     uint64 `json:"runs"`
		Rejected uint64 `json:"rejected"`
		Cache    struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	allocBytes float64 // server heap bytes allocated during the phase
	rssPeak    float64

	mu    sync.Mutex
	first map[string]*outcome // spec key → the first result seen for it
}

// runServeMix starts the server setupLaunches times to time setup, then
// drives the open-loop mix against the last launch. A traced run measures
// an untraced and a traced phase of half the window each, each on a fresh
// server with the same arrivals, and reports the per-layer metrics of the
// traced one.
func runServeMix(o options) (result, validity, error) {
	if o.serve == "" {
		return result{}, validity{}, errors.New("serve-mix needs --serve")
	}
	scenes, err := loadScenes(o.root)
	if err != nil {
		return result{}, validity{}, err
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupLaunches; i++ {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		if srv, d, err = launch(o, i); err != nil {
			return result{}, validity{}, err
		}
		setups = append(setups, secs(d))
	}
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	seconds += mixWarmupS
	arrivals := genServeMix(o.seed, seconds, scenes)
	ph, err := runPhase(srv, arrivals, seconds, nil)
	srv.stop()
	if err != nil {
		return result{}, validity{}, err
	}
	res := result{Correct: true}
	val := validity{Valid: true, OfferedPerS: mixRatePerS}
	judge := func(p *phase) {
		res.Attempted += len(p.outcomes)
		for _, oc := range p.outcomes {
			if oc.wrong != nil {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: job %s (%s): %v\n", oc.id, oc.a.Kind, oc.wrong)
			}
			if oc.err != nil || oc.wrong != nil {
				res.Failed++
			}
		}
		val.GenLagP99S = max(val.GenLagP99S, quantile(p.genLag, 0.99))
		if val.GenLagP99S > maxGenLag.Seconds() {
			val.Valid = false
			val.Reason = fmt.Sprintf("generator p99 lateness %.4fs exceeds %v", val.GenLagP99S, maxGenLag)
		}
	}
	judge(ph)
	if !o.trace {
		res.Metrics = serveEndToEnd(ph, median(setups))
		return res, val, nil
	}

	untraced := ph
	if srv, _, err = launch(o, setupLaunches); err != nil {
		return result{}, validity{}, err
	}
	ph, err = runPhase(srv, arrivals, seconds, &recorder{})
	srv.stop()
	if err != nil {
		return result{}, validity{}, err
	}
	judge(ph)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := ph.rec.writeChrome(path); err != nil {
		return result{}, validity{}, err
	}
	val.TraceFile = path
	res.Metrics = serveLayers(ph, untraced)
	return res, val, nil
}

// loadScenes reads the example scenes, compacted, in name order.
func loadScenes(root string) ([]json.RawMessage, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "scenes", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, errors.New("no scenes under examples/scenes")
	}
	sort.Strings(paths)
	var out []json.RawMessage
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, data); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// runPhase issues the arrivals on schedule, each from its own goroutine
// (an open loop: a slow server does not slow the arrivals), scrapes
// /metrics periodically, waits for every job, and collects the server-side
// figures. With a recorder it also records client spans and afterwards
// stitches each job's server views and step trace onto them.
func runPhase(srv *server, arrivals []arrival, seconds float64, rec *recorder) (*phase, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+drainTimeout)
	defer cancel()
	p := &phase{c: newClient(srv.base), rec: rec, first: map[string]*outcome{}}
	alloc0, err := p.c.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	p.start = time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.scrape(ctx, scrapeTimes(seconds))
	}()
	for i, a := range arrivals {
		due := p.start.Add(a.At)
		time.Sleep(time.Until(due))
		p.genLag = append(p.genLag, secs(time.Since(due)))
		oc := &outcome{n: i, a: a, due: due}
		p.outcomes = append(p.outcomes, oc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.job(ctx, oc)
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("serve-mix phase did not drain within %v", drainTimeout)
	}
	alloc1, err := p.c.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	if completed := p.completed(); completed > 0 {
		p.allocBytes = float64(alloc1-alloc0) / float64(completed)
	}
	p.rssPeak = float64(vmHWM(strconv.Itoa(srv.cmd.Process.Pid)))
	if err := p.c.getJSON(ctx, "/v1/stats", &p.stats); err != nil {
		return nil, err
	}
	if rec != nil {
		if err := p.stitch(ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// totalAlloc reads the server's cumulative heap allocation from the heap
// profile's runtime statistics.
func (c *client) totalAlloc(ctx context.Context) (uint64, error) {
	code, data, err := c.do(ctx, http.MethodGet, "/debug/pprof/heap?debug=1", 0, nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("heap profile: status %d", code)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("heap profile carries no TotalAlloc")
}

// scrape reads /metrics on schedule and checks the exposition parses.
func (p *phase) scrape(ctx context.Context, at []time.Duration) {
	for _, t := range at {
		select {
		case <-time.After(time.Until(p.start.Add(t))):
		case <-ctx.Done():
			return
		}
		t0 := time.Now()
		span := p.rec.start("client.scrape", "scrapes", -1)
		code, data, err := p.c.do(ctx, http.MethodGet, "/metrics", 0, nil)
		p.rec.end(span)
		d := secs(time.Since(t0))
		if err == nil && code == http.StatusOK {
			err = telemetry.CheckExposition(data, []string{"neutral_jobs_submitted_total"})
		} else if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		p.mu.Lock()
		p.scrapes = append(p.scrapes, d)
		if err != nil {
			p.httpErrs++
			fmt.Fprintln(os.Stderr, "perfbench: /metrics scrape:", err)
		}
		p.mu.Unlock()
	}
}

// job runs one arrival through the API: submit, then wait for the result
// (or follow the SSE stream for sse jobs), then check it.
func (p *phase) job(ctx context.Context, oc *outcome) {
	// The track is renamed to the job id once stitch learns it.
	track := fmt.Sprintf("arrival-%d", oc.n)
	root := p.rec.add("job."+oc.a.Kind, track, -1, oc.due, time.Time{})
	defer func() {
		if oc.end.IsZero() {
			oc.end = time.Now()
		}
		p.rec.end(root)
		if oc.err != nil {
			p.mu.Lock()
			p.httpErrs++
			p.mu.Unlock()
		}
	}()
	oc.spans = append(oc.spans, root)

	t0 := time.Now()
	sub := p.rec.start("client.submit", track, root)
	code, data, err := p.c.do(ctx, http.MethodPost, "/v1/jobs", oc.a.Tenant, oc.a.Body)
	p.rec.end(sub)
	oc.spans = append(oc.spans, sub)
	oc.submit = time.Since(t0)
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(data))
	}
	var v jobView
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	if err != nil {
		oc.err = err
		return
	}
	oc.id, oc.cached = v.ID, v.Cached

	wait := p.rec.start("client.wait", track, root)
	oc.spans = append(oc.spans, wait)
	if oc.a.Kind == "sse" {
		// A follower's latency ends at the done event; the result is
		// fetched afterwards only to be checked.
		err = p.follow(ctx, oc)
		if err == nil {
			oc.end = time.Now()
			err = p.c.getJSON(ctx, "/v1/jobs/"+oc.id+"/result", &oc.res)
		}
	} else {
		path := "/v1/jobs/" + oc.id + "/result"
		if !v.Cached {
			path += "?wait=true"
		}
		code, data, err = p.c.do(ctx, http.MethodGet, path, oc.a.Tenant, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("result: status %d: %s", code, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &oc.res)
		}
	}
	p.rec.end(wait)
	if err != nil {
		oc.err = err
		return
	}
	oc.wrong = p.check(oc)
}

// follow reads the job's SSE stream until its done event, stamping the
// first step event.
func (p *phase) follow(ctx context.Context, oc *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.c.base+"/v1/jobs/"+oc.id+"/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+tenants[oc.a.Tenant].key)
	resp, err := p.c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	var event string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "step" && oc.firstStep.IsZero():
			oc.firstStep = time.Now()
			var sv struct {
				WallSeconds float64 `json:"wall_seconds"`
			}
			json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sv)
			oc.stepWall = sv.WallSeconds
		case strings.HasPrefix(line, "data: ") && event == "done":
			var v jobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return err
			}
			if v.State != "done" {
				return fmt.Errorf("stream: job ended %s", v.State)
			}
			if oc.firstStep.IsZero() {
				return errors.New("stream: done before any step event")
			}
			return nil
		}
	}
}

// check verifies a job's result: the conservation audit closes, and every
// job with the same spec — cache hits included — returns exactly the
// counters and tally of the first one.
func (p *phase) check(oc *outcome) error {
	if !(math.Abs(oc.res.ConservationError) <= conservationTol) {
		return fmt.Errorf("conservation error %v exceeds %g", oc.res.ConservationError, conservationTol)
	}
	if len(oc.res.Counters) == 0 || oc.res.Events == 0 {
		return errors.New("result carries no counters")
	}
	p.mu.Lock()
	ref, seen := p.first[oc.a.Key]
	if !seen {
		p.first[oc.a.Key] = oc
	}
	p.mu.Unlock()
	if !seen {
		return nil
	}
	if oc.res.TallyTotal != ref.res.TallyTotal || !bytes.Equal(oc.res.Counters, ref.res.Counters) {
		return fmt.Errorf("result differs from job %s of the same spec (tally %v vs %v)", ref.id, oc.res.TallyTotal, ref.res.TallyTotal)
	}
	if e, re := oc.res.Ensemble, ref.res.Ensemble; (e == nil) != (re == nil) ||
		(e != nil && !slices.Equal(e.ReplicaTotals, re.ReplicaTotals)) {
		return fmt.Errorf("ensemble statistics differ from job %s of the same spec", ref.id)
	}
	return nil
}

// completed counts the jobs that returned a result.
func (p *phase) completed() int {
	n := 0
	for _, oc := range p.outcomes {
		if oc.err == nil {
			n++
		}
	}
	return n
}

// stitch fetches every job's view (one list request) and, for each job the
// server solved, its step trace, and hangs them under the job's client
// spans: the job's track becomes its id, and server queue, run and step
// spans join the tree.
func (p *phase) stitch(ctx context.Context) error {
	var views []jobView
	if err := p.c.getJSON(ctx, "/v1/jobs", &views); err != nil {
		return err
	}
	p.views = make(map[string]jobView, len(views))
	for _, v := range views {
		p.views[v.ID] = v
	}
	p.traces = map[string][]float64{}
	for _, oc := range p.outcomes {
		if oc.id == "" {
			continue
		}
		for _, id := range oc.spans {
			p.rec.spans[id].Track = oc.id
		}
		v, ok := p.views[oc.id]
		// A job queued behind an identical one is served from the cache
		// when its turn comes: its final view says cached, and it has no
		// solver trace.
		if !ok || v.Cached || v.Replicas > 1 || v.Started == nil || v.Finished == nil {
			continue
		}
		var tr struct {
			TraceEvents []struct {
				Name  string  `json:"name"`
				Phase string  `json:"ph"`
				TS    float64 `json:"ts"`
				Dur   float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := p.c.getJSON(ctx, "/v1/jobs/"+oc.id+"/trace", &tr); err != nil {
			return err
		}
		root := oc.spans[0]
		p.rec.add("server.queue", oc.id, root, v.Submitted, *v.Started)
		run := p.rec.add("server.run", oc.id, root, *v.Started, *v.Finished)
		var steps []float64
		step := run
		for _, ev := range tr.TraceEvents {
			if ev.Phase != "X" {
				continue
			}
			// Step spans sit on the server's solver clock; anchor them at
			// the job's start, the nearest wall-clock point the view gives.
			// Phase spans follow their step.
			at := v.Started.Add(time.Duration(ev.TS * 1e3))
			isStep := strings.HasPrefix(ev.Name, "step ")
			parent := step
			if isStep {
				parent = run
			}
			id := p.rec.add("server."+ev.Name, oc.id, parent, at, at.Add(time.Duration(ev.Dur*1e3)))
			if isStep {
				step = id
				steps = append(steps, ev.Dur/1e6)
			}
		}
		p.traces[oc.id] = steps
	}
	return nil
}

// serveEndToEnd reduces an untraced phase to the end-to-end metrics.
func serveEndToEnd(p *phase, setup float64) map[string]metric {
	var jobs, first []float64
	var last time.Time
	// The solver figures come from the single-step preset jobs the server
	// solved, averaged over the presets so the hit pattern of a seed does
	// not weight them.
	solve, rate := map[string][]float64{}, map[string][]float64{}
	done := p.measured()
	for _, oc := range done {
		jobs = append(jobs, oc.latency())
		if oc.end.After(last) {
			last = oc.end
		}
		if oc.a.Kind == "sse" {
			first = append(first, secs(oc.firstStep.Sub(oc.due)))
		}
		if oc.a.Kind == "preset" && !oc.cached {
			solve[oc.a.Problem] = append(solve[oc.a.Problem], oc.res.WallSeconds)
			rate[oc.a.Problem] = append(rate[oc.a.Problem], ratio(float64(oc.res.Events), oc.res.WallSeconds))
		}
	}
	var solveS, eventsPerS float64
	for _, pr := range presets {
		solveS += median(solve[pr]) / float64(len(presets))
		eventsPerS += median(rate[pr]) / float64(len(presets))
	}
	window := last.Sub(p.start) - time.Duration(mixWarmupS*float64(time.Second))
	return map[string]metric{
		"setup_s":          {setup, "s"},
		"solve_s":          {solveS, "s"},
		"events_per_s":     {eventsPerS, "1/s"},
		"alloc_bytes":      {p.allocBytes, "bytes"},
		"job_p50_s":        {median(jobs), "s"},
		"job_p99_s":        {windowedP99(jobs, len(jobs)/mixP99Window), "s"},
		"jobs_per_s":       {ratio(float64(len(jobs)), secs(window)), "1/s"},
		"first_step_p50_s": {median(first), "s"},
		"rss_peak_bytes":   {p.rssPeak, "bytes"},
	}
}

// serveLayers reduces a traced phase to the per-layer metrics; the solver
// metrics read 0 because this workload runs no in-process solver.
func serveLayers(p *phase, untraced *phase) map[string]metric {
	var queue, run, submit, hit, overhead, lag, scene, ens, jobs []float64
	var uncovered, latency float64
	failed := 0
	for _, oc := range p.outcomes {
		if oc.err != nil || oc.wrong != nil {
			failed++
		}
	}
	for _, oc := range p.measured() {
		jobs = append(jobs, oc.latency())
		submit = append(submit, secs(oc.submit))
		switch {
		case oc.cached:
			hit = append(hit, oc.latency())
		case oc.a.Kind == "ensemble":
			ens = append(ens, oc.latency())
		}
		if oc.a.Kind == "scene" {
			scene = append(scene, secs(oc.submit))
		}
		v, ok := p.views[oc.id]
		if !ok || oc.cached || v.Started == nil || v.Finished == nil {
			continue
		}
		overhead = append(overhead, oc.latency()-secs(v.Finished.Sub(v.Submitted)))
		if oc.a.Kind == "sse" {
			lag = append(lag, secs(oc.firstStep.Sub(*v.Started))-oc.stepWall)
		}
		if steps, ok := p.traces[oc.id]; ok {
			covered := math.Min(sum(steps), oc.latency())
			uncovered += oc.latency() - covered
			latency += oc.latency()
		}
	}
	warm := p.start.Add(time.Duration(mixWarmupS * float64(time.Second)))
	for _, v := range p.views {
		if v.Cached || v.Replicas > 1 || v.Started == nil || v.Finished == nil || v.Submitted.Before(warm) {
			continue
		}
		queue = append(queue, secs(v.Started.Sub(v.Submitted)))
		run = append(run, secs(v.Finished.Sub(*v.Started)))
	}
	var uJobs []float64
	for _, oc := range untraced.measured() {
		uJobs = append(uJobs, oc.latency())
	}
	st := p.stats
	m := zeroLayers()
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("service.engine.queue_wait_p50_s", median(queue))
	set("service.engine.queue_wait_p99_s", quantile(queue, 0.99))
	set("service.engine.run_p50_s", median(run))
	set("service.engine.cache_hit_ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)))
	set("service.engine.runs", float64(st.Runs))
	set("service.engine.rejected", float64(st.Rejected))
	set("service.http.submit_p50_s", median(submit))
	set("service.http.hit_p50_s", median(hit))
	set("service.http.overhead_p50_s", median(overhead))
	set("service.http.errors", float64(p.httpErrs))
	set("service.sse.step_lag_p50_s", median(lag))
	set("scene.submit_p50_s", median(scene))
	set("stats.ensemble_p50_s", median(ens))
	set("telemetry.scrape_p50_s", median(p.scrapes))
	set("trace.unattributed_share", ratio(uncovered, latency))
	set("trace.overhead_s", median(jobs)-median(uJobs))
	set("fail_ratio", ratio(float64(failed), float64(len(p.outcomes))))
	return m
}
