package sim

import (
	"fmt"
	"iter"
)

// Thread is a deterministic coroutine: a runtime coroutine (iter.Pull)
// that the engine resumes one at a time. At any instant at most one thread
// (or event callback) is executing, so models need no locking and
// simulations are reproducible.
//
// Thread code interacts with simulated time only through the blocking
// methods (Sleep, WaitUntil, park via Cond/queues). All wakeups are routed
// through the event queue, never delivered inline, which preserves the
// single-runner invariant. Every wakeup reschedules the thread's pre-built
// wake record, so parking and waking allocate nothing.
type Thread struct {
	eng    *Engine
	name   string
	w      *worker // coroutine running this thread's body
	parked bool
	done   bool
	wake   Event // pre-built dispatch record; see Engine.AtEvent
}

// dispatchThread is the shared trampoline behind every thread wakeup event.
func dispatchThread(a any) { a.(*Thread).dispatch() }

// worker is a pooled coroutine: an iter.Pull over a loop that runs one
// thread body after another, reused across finished threads so models
// that spawn threads per transaction (e.g. the coherence homes) pay the
// coroutine setup once. next switches straight to the coroutine and yield
// straight back, without a trip through the Go scheduler. All pool
// accesses happen in simulation context — at most one thread or callback
// runs at a time — so the pool needs no locking.
type worker struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	t     *Thread // thread to run next; nil tells the loop to exit
	fn    func(*Thread)
}

// newWorker builds a worker whose coroutine, on each resume, runs the
// handed-over thread to completion, returns itself to e's pool and yields;
// resumed with no thread, the loop returns and the coroutine ends. The
// coroutine starts on the first next, after Go has handed it a thread.
func newWorker(e *Engine) *worker {
	w := &worker{}
	w.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for w.t != nil {
			t, fn := w.t, w.fn
			w.t, w.fn = nil, nil
			fn(t)
			t.done = true
			e.liveThreads--
			e.pool = append(e.pool, w)
			yield(struct{}{})
		}
	})
	return w
}

// Go spawns fn as a new simulation thread named name. The thread begins
// running at the current simulation time (via a scheduled event).
//
// A panic in fn propagates out of the Run, RunUntil or RunBefore call that
// dispatched the thread, to that call's caller, with the original panic
// value. The engine is left mid-event and must be discarded.
func (e *Engine) Go(name string, fn func(*Thread)) *Thread {
	var w *worker
	if n := len(e.pool); n > 0 {
		w = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		w = newWorker(e)
	}
	t := &Thread{
		eng:    e,
		name:   name,
		w:      w,
		parked: true,
	}
	t.wake = Event{Fn: dispatchThread, Arg: t}
	w.t, w.fn = t, fn
	e.liveThreads++
	e.AtEvent(e.now, &t.wake)
	return t
}

// reapWorkers shuts down the idle pooled coroutines. Run and RunUntil call
// it on every return — however the run ended — so a discarded engine leaks
// no goroutines and pooling never outlives the run that benefited from it
// (workers of deadlocked threads are mid-function and stay, exactly like
// the unpooled design). Spawns after the reap simply start fresh workers.
func (e *Engine) reapWorkers() {
	for i, w := range e.pool {
		w.next() // w.t == nil: the loop returns
		e.pool[i] = nil
	}
	e.pool = e.pool[:0]
}

// dispatch resumes the thread from engine context and returns when it parks
// again or finishes. Spurious dispatches of a running or finished thread are
// ignored.
func (t *Thread) dispatch() {
	if !t.parked || t.done {
		return
	}
	t.parked = false
	t.w.next()
}

// park suspends the thread until the next dispatch. Must be called from the
// thread's own coroutine.
func (t *Thread) park() {
	t.parked = true
	t.w.yield(struct{}{})
}

// Park suspends the thread until another component wakes it (Wake, a Cond
// signal, or a timed wakeup). As with Cond.Wait, callers re-check their
// predicate in a loop: dispatches may be spurious. Must be called from the
// thread's own coroutine.
func (t *Thread) Park() { t.park() }

// Wake schedules a dispatch of t at the current instant if t is parked —
// the allocation-free single-waiter completion path (a Cond degenerates to
// this when exactly one thread can be waiting). Must be called from engine
// context. Wakes delivered while t is running are dropped, matching the
// Cond contract that only parked threads are woken.
func (t *Thread) Wake() {
	if t.parked && !t.done {
		t.eng.AtEvent(t.eng.now, &t.wake)
	}
}

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Engine reports the engine this thread runs on.
func (t *Thread) Engine() *Engine { return t.eng }

// Now reports the current simulation time.
func (t *Thread) Now() Time { return t.eng.Now() }

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.done }

// WaitUntil suspends the thread until absolute time tm.
func (t *Thread) WaitUntil(tm Time) {
	if tm < t.eng.now {
		panic(fmt.Sprintf("sim: thread %s waiting for past time %v (now %v)", t.name, tm, t.eng.now))
	}
	if tm == t.eng.now {
		return
	}
	t.eng.AtEvent(tm, &t.wake)
	t.park()
}

// Sleep suspends the thread for duration d.
func (t *Thread) Sleep(d Time) { t.WaitUntil(t.eng.now + d) }

// SleepCycles suspends the thread for n rising edges of clk: the thread
// resumes at the n-th edge strictly after the current time. n <= 0 aligns
// to the next edge at or after now.
func (t *Thread) SleepCycles(clk *Clock, n int64) {
	t.WaitUntil(clk.EdgesAfter(t.eng.now, n))
}

// AlignTo suspends the thread until the next rising edge of clk at or after
// the current time.
func (t *Thread) AlignTo(clk *Clock) { t.WaitUntil(clk.NextEdge(t.eng.now)) }

// LiveThreads reports the number of spawned threads that have not finished.
// A nonzero value after Run returns usually means the model deadlocked.
func (e *Engine) LiveThreads() int { return e.liveThreads }

// Cond is a wait queue for threads. Waiters are woken in FIFO order, always
// via the event queue (never inline), at the simulation time of the signal.
type Cond struct {
	eng     *Engine
	waiters []*Thread
	bcast   Event // pre-built deferred-broadcast record for BroadcastAt
}

// condBroadcast is the trampoline behind Cond.BroadcastAt events.
func condBroadcast(a any) { a.(*Cond).Broadcast() }

// NewCond returns a condition bound to engine e.
func NewCond(e *Engine) *Cond {
	c := &Cond{eng: e}
	c.bcast = Event{Fn: condBroadcast, Arg: c}
	return c
}

// Wait suspends t until a Signal or Broadcast wakes it. As with sync.Cond,
// callers should re-check their predicate in a loop.
func (c *Cond) Wait(t *Thread) {
	c.waiters = append(c.waiters, t)
	t.park()
}

// Signal wakes the oldest waiter, if any. Removal shifts the FIFO in
// place (rather than re-slicing) so the queue's capacity is kept and the
// wait/signal steady state allocates nothing.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.eng.AtEvent(c.eng.now, &t.wake)
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	for _, t := range c.waiters {
		c.eng.AtEvent(c.eng.now, &t.wake)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// BroadcastAt schedules a Broadcast at absolute time tm by rescheduling the
// condition's pre-built record: the deferred-wakeup idiom (CDC visibility,
// credit return) without a per-call closure. Waiters are collected when the
// broadcast fires, not when it is scheduled.
func (c *Cond) BroadcastAt(tm Time) {
	c.eng.AtEvent(tm, &c.bcast)
}

// Waiters reports the number of threads currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }
