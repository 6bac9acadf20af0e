package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/perfcount"
)

// validity records the facts that decide whether a run's numbers may be
// compared with another run's: the host it ran on, and for the open-loop
// workload whether the request generator kept to its schedule. A run whose
// generator fell behind offered less load than the workload defines, so it
// is marked invalid rather than reported as slow.
type validity struct {
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
	// GenLagP99S is the 99th-percentile lateness of the serve-mix
	// generator: how long after its due time an arrival was issued.
	GenLagP99S float64 `json:"gen_lag_p99_s,omitempty"`
	// OfferedPerS is the serve-mix arrival rate the run was generated at.
	OfferedPerS float64 `json:"offered_per_s,omitempty"`
	// TraceFile is the Chrome trace-event JSON of a traced run.
	TraceFile string  `json:"trace_file,omitempty"`
	WallS     float64 `json:"wall_s"`
	Host      host    `json:"host"`
}

// host describes the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2Bytes    int64  `json:"l2_bytes"`
	L3Bytes    int64  `json:"l3_bytes"`
	MemBytes   int64  `json:"mem_bytes"`
	GoVersion  string `json:"go_version"`
	// HWCounters reports whether perf_event_open grants hardware events;
	// without them the benchmark has no cache-miss counts.
	HWCounters bool `json:"hw_counters"`
}

func hostFacts() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		MemBytes:   kib(procField("/proc/meminfo", "MemTotal")),
		GoVersion:  runtime.Version(),
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := cacheSize(readTrim(filepath.Join(d, "size")))
		switch level {
		case "2":
			h.L2Bytes = size
		case "3":
			h.L3Bytes = size
		}
	}
	if g, err := perfcount.Open(perfcount.HardwareEvents()...); err == nil {
		h.HWCounters = true
		g.Close()
	}
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key matches.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// kib parses a /proc "1234 kB" value into bytes.
func kib(v string) int64 {
	n, _ := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	return n << 10
}

// cacheSize parses a sysfs cache size such as "4096K" or "32M".
func cacheSize(v string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(v, "K"):
		mult, v = 1<<10, strings.TrimSuffix(v, "K")
	case strings.HasSuffix(v, "M"):
		mult, v = 1<<20, strings.TrimSuffix(v, "M")
	}
	n, _ := strconv.ParseInt(v, 10, 64)
	return n * mult
}

func readTrim(path string) string {
	b, _ := os.ReadFile(path)
	return strings.TrimSpace(string(b))
}

// vmHWM reports a process's peak resident set size in bytes ("self" for
// this process).
func vmHWM(pid string) int64 {
	return kib(procField(filepath.Join("/proc", pid, "status"), "VmHWM"))
}
