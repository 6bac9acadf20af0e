package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); Track groups the spans of one
// unit of work — a solver cycle or a service job — into one swim lane.
type span struct {
	Name   string
	Track  string
	Parent int
	Start  time.Time
	End    time.Time
}

// recorder keeps a run's spans in memory until the run ends. A nil
// recorder records nothing, so the untraced paths share the traced code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span now and returns its id.
func (r *recorder) start(name, track string, parent int) int {
	return r.add(name, track, parent, time.Now(), time.Time{})
}

// add records a span with explicit bounds and returns its id.
func (r *recorder) add(name, track string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Track: track, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// end closes a span opened by start.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		ivs := make([][2]time.Time, 0, len(children[i]))
		for _, c := range children[i] {
			ivs = append(ivs, [2]time.Time{r.spans[c].Start, r.spans[c].End})
		}
		self[i] = s.End.Sub(s.Start) - covered(s.Start, s.End, ivs)
	}
	return self
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0].Before(ivs[b][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// chromeEvent is one Chrome trace-event ("X" complete event, or "M"
// thread-name metadata).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON, one thread per
// track, timestamps in microseconds from the first span.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var origin time.Time
	for _, s := range r.spans {
		if origin.IsZero() || s.Start.Before(origin) {
			origin = s.Start
		}
	}
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(r.spans)+16)
	for i, s := range r.spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Track}})
		}
		events = append(events, chromeEvent{
			Name:  s.Name,
			Phase: "X",
			TS:    float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:   float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID:   1,
			TID:   tid,
			Args:  map[string]any{"id": i, "parent": s.Parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
