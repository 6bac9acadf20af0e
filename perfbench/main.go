// Command perfbench is the repository's layered benchmark. It runs one of
// three workloads — two solver configurations driven in-process through
// core.NewSimulation/Run/Step, and an open-loop request mix against the real
// neutral-serve binary over loopback HTTP — checks every output, and prints
// one JSON result line:
//
//	perfbench --workload oe-csp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics from a traced run, whose spans are also
// written as Chrome trace-event JSON under the build directory. LAYERS.md
// maps each per-layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serve    string // neutral-serve binary (serve-mix only)
	root     string // checkout root: scenes are read from here
	out      string // build directory: traces and server logs go here
}

// workloads maps each workload name to its runner. A runner returns the
// result plus its run-validity record; it reports check failures through
// the result, never through the error, which is reserved for a run that
// could not be carried out at all.
var workloads = map[string]func(options) (result, validity, error){
	"oe-csp":       runSolver,
	"op-stream-4k": runSolver,
	"serve-mix":    runServeMix,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: oe-csp, op-stream-4k or serve-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.serve, "serve", "", "neutral-serve binary for serve-mix")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for traces and server logs")
	refs := flag.Bool("write-references", false, "recompute the solver reference outputs and print them as JSON")
	flag.Parse()
	o.trace = trace == 1

	if *refs {
		if err := writeReferences(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", o.workload, trace, o.seconds)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	start := time.Now()
	res, val, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	val.Host = hostFacts()
	val.WallS = time.Since(start).Seconds()
	if err := writeJSONFile(filepath.Join(o.out, fmt.Sprintf("validity-%s-%d-t%d.json", o.workload, o.seed, trace)), val); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !val.Valid {
		fmt.Fprintln(os.Stderr, "perfbench: run marked invalid:", val.Reason)
	}
	line, _ := json.Marshal(map[string]validity{"validity": val})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
