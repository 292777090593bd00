package main

import "time"

// A shard's wall time is split into layers by a tracker: a per-goroutine
// state machine whose clock always runs against exactly one layer. Every
// timing wrapper switches the tracker to its own layer on entry and back
// on return, so nested calls (a backend completion re-entering the
// scheduler, an observer hook fired from inside a dispatch) charge their
// time to the inner layer only. The layer times of one tracker therefore
// add up exactly to the span it was started and stopped over.

// layer indexes a tracker's clocks.
type layer int

const (
	lSched   layer = iota // scheduler code and the shard's own timeline
	lFeed                 // ArrivalFeed.Next: routing filter or hand-off wait
	lBackend              // the execution backend below the fault wrapper
	lFaults               // the fault injector between the two backend wrappers
	lObserve              // the telemetry recorder behind sched.Observer
	numLayers
)

// tracker is owned by one goroutine; nothing in it is synchronized.
type tracker struct {
	cur   layer
	last  time.Time
	ns    [numLayers]int64
	calls [numLayers]int64

	start, end time.Time
}

// begin starts the span, dropping anything charged before it (catalog
// registration while the replica is built, which cluster.build_s covers).
func (t *tracker) begin() {
	now := time.Now()
	*t = tracker{start: now, last: now, cur: lSched}
}

func (t *tracker) finish() {
	t.end = time.Now()
	t.ns[t.cur] += t.end.Sub(t.last).Nanoseconds()
}

// enter charges the time since the last switch to the current layer and
// makes l current; the caller hands the returned layer back to leave.
func (t *tracker) enter(l layer) layer {
	now := time.Now()
	t.ns[t.cur] += now.Sub(t.last).Nanoseconds()
	t.last = now
	prev := t.cur
	t.cur = l
	t.calls[l]++
	return prev
}

func (t *tracker) leave(prev layer) {
	now := time.Now()
	t.ns[t.cur] += now.Sub(t.last).Nanoseconds()
	t.last = now
	t.cur = prev
}

// span returns the wall time between begin and finish.
func (t *tracker) span() time.Duration { return t.end.Sub(t.start) }

// stopwatch accumulates the time and count of calls made on one goroutine
// into a leaf function (nothing it calls is timed separately).
type stopwatch struct {
	ns    int64
	calls int64

	first, last time.Time // the first call's start and the last call's end
}

func (s *stopwatch) start() time.Time {
	now := time.Now()
	if s.calls == 0 {
		s.first = now
	}
	s.calls++
	return now
}

func (s *stopwatch) stop(t0 time.Time) {
	s.last = time.Now()
	s.ns += s.last.Sub(t0).Nanoseconds()
}
