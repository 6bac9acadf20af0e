package core

import (
	"sync/atomic"
	"testing"
)

// TestTeamParallelForCoverage verifies that every schedule kind visits
// every index exactly once, for a grid of worker counts, chunk sizes and
// problem sizes — the fundamental contract of the work distribution. One
// team serves every launch of a worker count, as one team serves every
// launch of a step.
func TestTeamParallelForCoverage(t *testing.T) {
	kinds := []ScheduleKind{ScheduleStatic, ScheduleStaticChunk, ScheduleDynamic, ScheduleGuided}
	for _, kind := range kinds {
		for _, chunk := range []int{0, 1, 3, 64} {
			for _, workers := range []int{1, 2, 5, 8} {
				tm := newTeam(workers)
				for _, n := range []int{0, 1, 7, 100, 1017} {
					sched := Schedule{Kind: kind, Chunk: chunk}
					visits := make([]int32, n)
					tm.parallelFor(workers, n, sched, func(w, lo, hi int) {
						if w < 0 || w >= workers {
							t.Errorf("%v: worker id %d out of range", sched, w)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&visits[i], 1)
						}
					})
					for i, v := range visits {
						if v != 1 {
							t.Fatalf("%v workers=%d n=%d: index %d visited %d times",
								sched, workers, n, i, v)
						}
					}
				}
				tm.close()
			}
		}
	}
}

// TestTeamParallelForDynamicBalances checks that a dynamic schedule spreads a
// deliberately skewed workload across more than one worker. Whether a
// second worker gets scheduled before the queue drains depends on the OS
// scheduler, so the check retries on an increasingly heavy workload before
// declaring failure.
func TestTeamParallelForDynamicBalances(t *testing.T) {
	tm := newTeam(4)
	defer tm.close()
	n := 100000
	for attempt := 0; attempt < 5; attempt++ {
		var perWorker [4]int64
		var sink atomic.Int64
		tm.parallelFor(4, n, Schedule{Kind: ScheduleDynamic, Chunk: 10}, func(w, lo, hi int) {
			acc := int64(0)
			for i := lo; i < hi; i++ {
				acc += int64(i * i)
			}
			sink.Add(acc)
			atomic.AddInt64(&perWorker[w], int64(hi-lo))
		})
		var total int64
		busy := 0
		for _, c := range perWorker {
			total += c
			if c > 0 {
				busy++
			}
		}
		if total != int64(n) {
			t.Fatalf("dynamic schedule covered %d of %d items", total, n)
		}
		if busy >= 2 {
			return
		}
		n *= 4 // give the scheduler more time to start a second worker
	}
	t.Error("dynamic schedule never used more than one worker across 5 attempts")
}

// TestTeamParallelForGuidedChunksShrink checks the guided schedule hands
// out decreasing chunk sizes, floored at the minimum chunk.
func TestTeamParallelForGuidedChunksShrink(t *testing.T) {
	const n = 10000
	const minChunk = 16
	var mu chunkRecorder
	tm := newTeam(4)
	defer tm.close()
	tm.parallelFor(4, n, Schedule{Kind: ScheduleGuided, Chunk: minChunk}, func(w, lo, hi int) {
		mu.record(hi - lo)
	})
	sizes := mu.sizes()
	if len(sizes) == 0 {
		t.Fatal("no chunks recorded")
	}
	largest, smallest := sizes[0], sizes[0]
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
		if s < smallest {
			smallest = s
		}
	}
	if largest < 2*minChunk {
		t.Errorf("guided largest chunk %d too small; first grabs should be ~n/workers", largest)
	}
	// The final grab may be a truncated remainder smaller than minChunk.
	if smallest > minChunk {
		t.Errorf("guided smallest chunk %d did not shrink to the minimum %d", smallest, minChunk)
	}
}

type chunkRecorder struct {
	ch [1024]int64
	n  atomic.Int64
}

func (c *chunkRecorder) record(size int) {
	i := c.n.Add(1) - 1
	if int(i) < len(c.ch) {
		atomic.StoreInt64(&c.ch[i], int64(size))
	}
}

func (c *chunkRecorder) sizes() []int {
	n := int(c.n.Load())
	if n > len(c.ch) {
		n = len(c.ch)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(atomic.LoadInt64(&c.ch[i]))
	}
	return out
}

func TestScheduleStringAndParse(t *testing.T) {
	if s := (Schedule{Kind: ScheduleStatic}).String(); s != "static" {
		t.Errorf("static renders as %q", s)
	}
	if s := (Schedule{Kind: ScheduleDynamic, Chunk: 7}).String(); s != "dynamic(7)" {
		t.Errorf("dynamic(7) renders as %q", s)
	}
	if s := (Schedule{Kind: ScheduleGuided}).String(); s != "guided(64)" {
		t.Errorf("guided default chunk renders as %q", s)
	}
	for _, name := range []string{"static", "static-chunk", "dynamic", "guided"} {
		k, err := ParseSchedule(name)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("round trip %q -> %q", name, k.String())
		}
	}
	if _, err := ParseSchedule("bogus"); err == nil {
		t.Error("bogus schedule accepted")
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{Kind: ScheduleDynamic, Chunk: -1}).validate(); err == nil {
		t.Error("negative chunk accepted")
	}
	if err := (Schedule{Kind: ScheduleKind(99)}).validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}
