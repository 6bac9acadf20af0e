package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// team is the persistent worker team behind every parallel kernel launch of
// one timestep — the goroutine equivalent of an OpenMP thread team, which
// the runtime keeps alive across parallel regions instead of forking at
// each one. Member w is one goroutine, started at the first launch that
// needs it; member 0 is the caller (the solver goroutine). While the team
// fits the processors (size <= GOMAXPROCS) every member, the caller
// included, is locked to its OS thread, so a launch hands worker w's share
// to the same thread — and, as the OS keeps a busy thread where its cache
// is, to the same core — every time. That is what lets the Over Events
// kernels find the particle records the previous kernel of the round left
// in that core's cache (owner-computes; DESIGN.md §9).
//
// Handoff: the leader publishes a launch by storing a new generation word;
// members poll it for a bounded time and then park on their wake channel,
// so nothing burns a CPU outside a step or through a long serial gap. The leader waits for the launch's last member the same way. A run
// builds a team at the first launch of a step and closes it before Step
// returns (run.stepScheme), so no member outlives the step that started it.
type team struct {
	// gen is the launch word: launch sequence << 32 | participant count.
	// A participant count of zero disbands the team.
	gen atomic.Uint64
	_   [56]byte
	// pending counts the participants other than the leader still running
	// the current launch; the one that takes it to zero wakes the leader.
	pending atomic.Int64
	_       [56]byte

	// fn is the current launch body. The leader writes it before storing
	// gen and rewrites it only after pending reaches zero, so participants
	// read it without further synchronisation.
	fn      func(w int)
	seq     uint64        // last published launch sequence; leader only
	started int           // members running, the leader included; leader only
	spin    time.Duration // how long a waiter polls before it parks
	locked  bool          // members are locked to their threads
	members []teamMember
	wg      sync.WaitGroup
}

// teamMember is one member's parking slot, padded to its own cache line so
// a waker's CAS never contends with a neighbour's spin.
type teamMember struct {
	// parked is set while the member is (about to be) blocked on wake. A
	// waker that swaps it back to false owes the member exactly one token.
	parked atomic.Bool
	wake   chan struct{}
	_      [48]byte
}

const (
	teamCountBits = 32
	teamCountMask = 1<<teamCountBits - 1

	// teamTightPolls is how many times a waiter polls back to back (~1 µs)
	// before it starts yielding the CPU between polls.
	teamTightPolls = 256

	// teamSpin bounds how long a waiting member keeps polling, yielding
	// the CPU to the OS between polls, before it parks. A member parked
	// on a locked thread costs a thread handoff (two futex wakes, tens of
	// µs) on its next launch, so the spin must outlast the serial gaps
	// and the load imbalance inside an Over Events round: on the oe-csp
	// benchmark a ~46 µs spin left Run ~1.5x slower than a ~370 µs one,
	// and an eight times longer spin gained nothing. Yielding between
	// polls is what keeps the spin cheap when other processes want the
	// CPU: an idle CPU returns from the yield at once, a busy one runs
	// the other thread.
	teamSpin = 300 * time.Microsecond
)

// newTeam makes a team of size members (size >= 1); member 0 is the
// caller, which a locking team locks to its thread until close.
func newTeam(size int) *team {
	t := &team{spin: teamSpin, locked: true, started: 1, members: make([]teamMember, size)}
	if size > runtime.GOMAXPROCS(0) {
		// The members share processors anyway: pinning them to
		// threads would buy no cache affinity, only a thread handoff
		// on every wake, and a spinning member would hold a P that a
		// member with work is waiting for. Waiters park right after
		// their tight polls.
		t.spin, t.locked = 0, false
	}
	for w := range t.members {
		t.members[w].wake = make(chan struct{}, 1)
	}
	if t.locked {
		runtime.LockOSThread()
	}
	return t
}

// run executes fn(w) for every w in [0, k) on members 0..k-1 and returns
// once all have finished. k <= 1 runs fn(0) inline, which is the whole
// story at Threads=1, where the team is nil.
func (t *team) run(k int, fn func(w int)) {
	if k <= 1 {
		fn(0)
		return
	}
	if k > len(t.members) {
		panic("core: launch wider than its team")
	}
	for ; t.started < k; t.started++ {
		t.wg.Add(1)
		go t.member(t.started, t.gen.Load())
	}
	t.fn = fn
	t.pending.Store(int64(k - 1))
	t.seq++
	t.gen.Store(t.seq<<teamCountBits | uint64(k))
	for w := 1; w < k; w++ {
		t.members[w].unpark()
	}
	fn(0)
	t.await(&t.members[0], func() bool { return t.pending.Load() == 0 })
	t.fn = nil
}

// close disbands the team: it waits for every member goroutine to exit and
// unlocks the caller's thread. Members finish any launch in flight first.
func (t *team) close() {
	t.seq++
	t.gen.Store(t.seq << teamCountBits) // participant count 0: disband
	for w := 1; w < t.started; w++ {
		t.members[w].unpark()
	}
	t.wg.Wait()
	if t.locked {
		runtime.UnlockOSThread()
	}
}

// member is the loop of team member w >= 1: wait for a launch that includes
// it, run its share, report completion. seen is the launch word current
// when the member started; every launch before it was narrower than w.
func (t *team) member(w int, seen uint64) {
	defer t.wg.Done()
	if t.locked {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	me := &t.members[w]
	for {
		t.await(me, func() bool { return t.gen.Load() != seen })
		seen = t.gen.Load()
		k := int(seen & teamCountMask)
		if k == 0 {
			return
		}
		if w >= k {
			continue // a narrower launch: wait for one that includes w
		}
		t.fn(w)
		if t.pending.Add(-1) == 0 {
			t.members[0].unpark()
		}
	}
}

// await returns once ready reports true: it polls for up to t.spin, then
// parks m. Wakers make ready true before calling unpark, so a waiter either
// sees the condition after raising its flag or is owed a token by a waker
// that saw the flag — never neither.
func (t *team) await(m *teamMember, ready func() bool) {
	for i := 0; i < teamTightPolls; i++ {
		if ready() {
			return
		}
	}
	if t.spin > 0 {
		deadline := time.Now().Add(t.spin)
		for !ready() && time.Now().Before(deadline) {
			osYield()
		}
	}
	for !ready() {
		m.parked.Store(true)
		if ready() && m.parked.CompareAndSwap(true, false) {
			return
		}
		<-m.wake
	}
}

// unpark hands m a token if it is parked (or committed to parking).
func (m *teamMember) unpark() {
	if m.parked.Load() && m.parked.CompareAndSwap(true, false) {
		m.wake <- struct{}{}
	}
}

// parallelFor runs body over [0, n) split across workers per the schedule,
// on the team's first workers members — the goroutine equivalent of
// `#pragma omp parallel for schedule(...)`. body receives the worker index
// and a half-open range.
func (t *team) parallelFor(workers, n int, sched Schedule, body func(worker, lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var next atomic.Int64 // shared cursor of the dynamic and guided kinds
	t.run(workers, func(w int) {
		switch sched.Kind {
		case ScheduleStatic:
			lo := w * n / workers
			hi := (w + 1) * n / workers
			if lo < hi {
				body(w, lo, hi)
			}
		case ScheduleStaticChunk:
			chunk := sched.chunk()
			for lo := w * chunk; lo < n; lo += workers * chunk {
				body(w, lo, min(lo+chunk, n))
			}
		case ScheduleDynamic:
			chunk := sched.chunk()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(w, lo, min(lo+chunk, n))
			}
		case ScheduleGuided:
			// Claim a chunk proportional to the work remaining at
			// claim time, floored at the minimum chunk, via CAS on
			// the cursor.
			minChunk := sched.chunk()
			for {
				lo := next.Load()
				if int(lo) >= n {
					return
				}
				size := max((n-int(lo))/workers, minChunk)
				hi := min(int(lo)+size, n)
				if next.CompareAndSwap(lo, int64(hi)) {
					body(w, int(lo), hi)
				}
			}
		default:
			panic("core: unreachable schedule kind")
		}
	})
}

// workTeam returns the current step's team, starting it at the step's first
// launch; nil at Threads=1, where every launch runs inline on the caller.
func (r *run) workTeam() *team {
	if r.team == nil && r.cfg.Threads > 1 {
		r.team = newTeam(r.cfg.Threads)
	}
	return r.team
}

// endTeam closes the step's team, if one was started.
func (r *run) endTeam() {
	if r.team != nil {
		r.team.close()
		r.team = nil
	}
}
