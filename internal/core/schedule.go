package core

import "fmt"

// ScheduleKind mirrors the OpenMP schedule clauses the paper sweeps in
// Fig 4. The particle histories vary in length, so the choice trades
// scheduling overhead against load balance — the paper measured at most a
// 1.07x difference on its test problems.
type ScheduleKind int

const (
	// ScheduleStatic gives each worker one contiguous block
	// (OpenMP schedule(static)).
	ScheduleStatic ScheduleKind = iota
	// ScheduleStaticChunk deals fixed-size chunks round-robin
	// (schedule(static, chunk)).
	ScheduleStaticChunk
	// ScheduleDynamic hands out fixed-size chunks on demand from a
	// shared counter (schedule(dynamic, chunk)).
	ScheduleDynamic
	// ScheduleGuided hands out shrinking chunks proportional to the
	// remaining work (schedule(guided, chunk)).
	ScheduleGuided
)

// String names the schedule in OpenMP style.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleStatic:
		return "static"
	case ScheduleStaticChunk:
		return "static-chunk"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// Schedule is a schedule kind plus its chunk parameter.
type Schedule struct {
	Kind ScheduleKind
	// Chunk is the chunk size for the chunked kinds; ignored by
	// ScheduleStatic. Zero defaults to 64.
	Chunk int
}

// String renders e.g. "dynamic(64)".
func (s Schedule) String() string {
	if s.Kind == ScheduleStatic {
		return "static"
	}
	return fmt.Sprintf("%s(%d)", s.Kind, s.chunk())
}

// ParseSchedule reads "static", "static-chunk", "dynamic" or "guided".
// Chunk sizes are set separately.
func ParseSchedule(s string) (ScheduleKind, error) {
	switch s {
	case "static":
		return ScheduleStatic, nil
	case "static-chunk":
		return ScheduleStaticChunk, nil
	case "dynamic":
		return ScheduleDynamic, nil
	case "guided":
		return ScheduleGuided, nil
	default:
		return 0, fmt.Errorf("core: unknown schedule %q", s)
	}
}

func (s Schedule) chunk() int {
	if s.Chunk <= 0 {
		return 64
	}
	return s.Chunk
}

func (s Schedule) validate() error {
	if s.Chunk < 0 {
		return fmt.Errorf("core: negative schedule chunk %d", s.Chunk)
	}
	switch s.Kind {
	case ScheduleStatic, ScheduleStaticChunk, ScheduleDynamic, ScheduleGuided:
		return nil
	default:
		return fmt.Errorf("core: unknown schedule kind %d", int(s.Kind))
	}
}
