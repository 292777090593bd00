package sched

import (
	"math/rand"
	"slices"
	"testing"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// fakeTimeline is a settable clock with no event queue: the tests below
// drive every completion by hand.
type fakeTimeline struct{ now sim.Time }

func (t *fakeTimeline) Now() sim.Time                     { return t.now }
func (t *fakeTimeline) AfterArg(sim.Time, func(any), any) {}

// fakeBackend is a zero-cost Backend: Dispatch records the job and
// finish completes it, so a test controls exactly when workers free up.
type fakeBackend struct {
	kind     BackendKind
	capacity efpga.Resources
	resident string
	done     func(*Job, error)
	running  *Job
}

func (b *fakeBackend) Kind() BackendKind               { return b.kind }
func (b *fakeBackend) Name() string                    { return "fake-" + b.kind.String() }
func (b *fakeBackend) Capacity() efpga.Resources       { return b.capacity }
func (b *fakeBackend) Register(*efpga.Bitstream) error { return nil }
func (b *fakeBackend) Resident() string                { return b.resident }
func (b *fakeBackend) Bind(_ int64, done func(*Job, error)) {
	b.done = done
}

func (b *fakeBackend) ServiceTime(app *App, n int) sim.Time {
	t := sim.Time(app.Cycles(n)) * app.Period()
	if b.kind == BackendCPU {
		t *= 4
	}
	return t
}

func (b *fakeBackend) ReconfigCost(app *App) sim.Time {
	if b.kind == BackendCPU || b.resident == app.BS.Name {
		return 0
	}
	return 10 * sim.US
}

func (b *fakeBackend) Dispatch(j *Job, app *App) {
	if b.kind != BackendCPU {
		j.Reprogrammed = b.resident != app.BS.Name
		b.resident = app.BS.Name
	}
	b.running = j
}

// finish completes the running job successfully.
func (b *fakeBackend) finish() {
	j := b.running
	b.running = nil
	b.done(j, nil)
}

// referencePick is the placement step as it was before the idle list
// was filtered by usable and residents were resolved to catalog
// pointers: every queue entry × idle worker pair re-tests usable and
// compares Resident() by name. It is the oracle pick must agree with.
func referencePick(s *Scheduler, now sim.Time) (*worker, int) {
	if len(s.queue) == 0 {
		return nil, -1
	}
	var idle []*worker
	for _, w := range s.workers {
		if !w.busy {
			idle = append(idle, w)
		}
	}
	if len(idle) == 0 {
		return nil, -1
	}
	firstFit := func(j *Job) *worker {
		for _, w := range idle {
			if s.usable(w) && j.app.BS.Res.Fits(w.be.Capacity()) {
				return w
			}
		}
		return nil
	}
	preferResident := func(j *Job) *worker {
		var first *worker
		for _, w := range idle {
			if !s.usable(w) || !j.app.BS.Res.Fits(w.be.Capacity()) {
				continue
			}
			if w.be.Resident() == j.App {
				return w
			}
			if first == nil {
				first = w
			}
		}
		return first
	}
	switch s.cfg.Policy {
	case SJF:
		best := -1
		for i, j := range s.queue {
			if firstFit(j) == nil {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			di, db := s.predict(j), s.predict(s.queue[best])
			if di < db || (di == db && j.Priority > s.queue[best].Priority) {
				best = i
			}
		}
		if best == -1 {
			return nil, -1
		}
		return preferResident(s.queue[best]), best
	case Affinity:
		for i, j := range s.queue {
			for _, w := range idle {
				if s.usable(w) && w.be.Resident() == j.App {
					return w, i
				}
			}
		}
		for i, j := range s.queue {
			if w := firstFit(j); w != nil {
				return w, i
			}
		}
		return nil, -1
	case Hybrid:
		return referencePickHybrid(s, idle, now)
	default:
		w := firstFit(s.queue[0])
		if w == nil {
			return nil, -1
		}
		return w, 0
	}
}

func referencePickHybrid(s *Scheduler, idle []*worker, now sim.Time) (*worker, int) {
	for i, j := range s.queue {
		for _, w := range idle {
			if !w.quarantined && w.be.Kind() != BackendCPU && w.be.Resident() == j.App {
				return w, i
			}
		}
	}
	for i, j := range s.queue {
		for _, w := range idle {
			if !w.quarantined && w.be.Kind() != BackendCPU && j.app.BS.Res.Fits(w.be.Capacity()) {
				return w, i
			}
		}
	}
	var cpu *worker
	for _, w := range idle {
		if !w.quarantined && w.be.Kind() == BackendCPU {
			cpu = w
			break
		}
	}
	if cpu == nil {
		return nil, -1
	}
	free := make([]sim.Time, len(s.workers))
	for wi, w := range s.workers {
		free[wi] = w.estFree
		if !w.busy || free[wi] < now {
			free[wi] = now
		}
	}
	for i, j := range s.queue {
		best := -1
		for wi, w := range s.workers {
			if w.quarantined || w.be.Kind() == BackendCPU || !j.app.BS.Res.Fits(w.be.Capacity()) {
				continue
			}
			if best == -1 || free[wi] < free[best] {
				best = wi
			}
		}
		cpuFinish := now + cpu.be.ServiceTime(j.app, j.InputSize)
		if best == -1 || cpuFinish < free[best]+s.predict(j) {
			return cpu, i
		}
		free[best] += s.predict(j)
	}
	return nil, -1
}

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once
// it runs out, so every input decodes to some scheduler state.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzScheduler decodes data into a scheduler state: policy, a catalog
// of differently sized apps, fabric and CPU workers of mixed capacities
// in every busy/quarantined/repair-pending combination with resident
// bitstreams that are scrubbed, foreign or catalog entries, and a queue
// whose window has moved within its backing array.
func fuzzScheduler(data []byte) (*Scheduler, sim.Time) {
	in := fuzzBytes(data)
	policy := Policy(in.next() % int(NumPolicies))
	nApps := 1 + in.next()%4
	var bss []*efpga.Bitstream
	for a := 0; a < nApps; a++ {
		bss = append(bss, &efpga.Bitstream{
			Name:    string(rune('a' + a)),
			Res:     efpga.Resources{LUTs: 100 * (1 + in.next()%4)},
			FmaxMHz: float64(50 + in.next()),
		})
	}
	nWorkers := 1 + in.next()%6
	var backends []Backend
	for w := 0; w < nWorkers; w++ {
		b := &fakeBackend{kind: BackendModel, capacity: efpga.Resources{LUTs: 100 * (1 + in.next()%4)}}
		if in.next()%4 == 0 {
			b.kind, b.capacity = BackendCPU, UnboundedResources
		}
		backends = append(backends, b)
	}
	tl := &fakeTimeline{now: sim.Time(in.next()) * sim.US}
	s := New(tl, backends, Config{Policy: policy})
	for _, bs := range bss {
		if err := s.RegisterApp(App{BS: bs, FixedCycles: int64(in.next()), CyclesPerItem: int64(in.next() % 8)}); err != nil {
			panic(err)
		}
	}
	for _, w := range s.workers {
		flags := in.next()
		w.busy = flags&1 != 0
		w.quarantined = flags&2 != 0
		w.repairPending = w.quarantined && flags&4 != 0
		w.estFree = sim.Time(in.next()) * sim.US
		switch r := in.next() % (nApps + 2); r {
		case nApps:
			w.be.(*fakeBackend).resident = "" // scrubbed or never programmed
		case nApps + 1:
			w.be.(*fakeBackend).resident = "foreign" // not in the catalog
		default:
			w.be.(*fakeBackend).resident = bss[r].Name
		}
	}
	newJob := func() *Job {
		name := bss[in.next()%nApps].Name
		return &Job{App: name, InputSize: in.next(), Priority: in.next() % 3, app: s.apps[name]}
	}
	for n := in.next() % 24; n > 0; n-- {
		s.enqueue(newJob())
	}
	for n := in.next() % 24; n > 0 && len(s.queue) > 0; n-- {
		s.dequeue(in.next() % len(s.queue))
	}
	for n := in.next() % 24; n > 0; n-- {
		s.enqueue(newJob())
	}
	return s, tl.now
}

// FuzzPickMatchesReference checks that pick returns the same (worker,
// queue index) as the pre-optimisation oracle on decoded scheduler
// states, for all four policies. The seed corpus mixes hand-picked
// shapes with pseudo-random inputs, so the tier-1 run covers each policy
// across busy, quarantined and CPU workers.
func FuzzPickMatchesReference(f *testing.F) {
	f.Add([]byte{0})                                     // FIFO, empty queue
	f.Add([]byte{2, 1, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 8}) // Affinity, quarantined idle worker
	f.Add([]byte{3, 2, 0, 0, 3, 0, 1, 0, 0, 0})          // Hybrid with a CPU worker
	f.Add([]byte{1, 3, 1, 9, 2, 5, 3, 7, 2, 0, 1, 0})    // SJF, heterogeneous sizes
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		data := make([]byte, 48+rng.Intn(80))
		rng.Read(data)
		data[0] = byte(i % int(NumPolicies))
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, now := fuzzScheduler(data)
		wantW, wantI := referencePick(s, now)
		gotW, gotI := s.pick(now)
		if gotW != wantW || gotI != wantI {
			t.Fatalf("%v: pick = (%v, %d), reference = (%v, %d)",
				s.cfg.Policy, workerID(gotW), gotI, workerID(wantW), wantI)
		}
	})
}

func workerID(w *worker) int {
	if w == nil {
		return -1
	}
	return w.id
}

// checkQueue fails unless s.queue holds want (by ID) in order over a
// clean backing array (see checkBacking).
func checkQueue(t *testing.T, s *Scheduler, want []int) {
	t.Helper()
	var got []int
	for _, j := range s.queue {
		got = append(got, j.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("queue = %v, want %v", got, want)
	}
	checkBacking(t, s)
}

// checkBacking fails unless the queue window lies inside qbuf and every
// backing slot outside the window is nil.
func checkBacking(t *testing.T, s *Scheduler) {
	t.Helper()
	off := len(s.qbuf) - cap(s.queue)
	if cap(s.queue) > 0 && &s.queue[:1][0] != &s.qbuf[off] {
		t.Fatalf("queue window is not inside its backing array")
	}
	for i, j := range s.qbuf {
		if (i < off || i >= off+len(s.queue)) && j != nil {
			t.Fatalf("backing slot %d (live window [%d, %d)) retains job %d", i, off, off+len(s.queue), j.ID)
		}
	}
}

// TestQueueHelpersKeepOrder drives enqueue/dequeue against a plain slice
// model: head, tail and middle removals, and slides back to the start of
// the backing array, must all keep arrival order and leave no stale job
// pointer behind.
func TestQueueHelpersKeepOrder(t *testing.T) {
	s := &Scheduler{}
	var model []int
	id := 0
	push := func() {
		id++
		s.enqueue(&Job{ID: id})
		model = append(model, id)
	}
	pop := func(i int) {
		if got := s.dequeue(i); got.ID != model[i] {
			t.Fatalf("dequeue(%d) = job %d, want %d", i, got.ID, model[i])
		}
		model = slices.Delete(model, i, i+1)
	}
	for i := 0; i < 8; i++ {
		push()
	}
	buf := &s.qbuf[0]
	pop(0)              // head
	pop(len(model) - 1) // tail
	pop(2)              // middle, front side shorter
	pop(3)              // middle, back side shorter
	checkQueue(t, s, model)
	for len(model) < 8 {
		push() // fills the tail room, then slides back to the start
		checkQueue(t, s, model)
	}
	if &s.qbuf[0] != buf {
		t.Fatal("enqueue grew a new array while front slots were free")
	}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5000; step++ {
		if len(model) == 0 || (len(model) < 64 && rng.Intn(2) == 0) {
			push()
		} else {
			switch rng.Intn(3) {
			case 0:
				pop(0)
			case 1:
				pop(len(model) - 1)
			default:
				pop(rng.Intn(len(model)))
			}
		}
		checkQueue(t, s, model)
	}
}

// newFakeScheduler builds a scheduler over fake backends of the given
// LUT capacities, with apps "small" (100 LUTs) and "big" (300 LUTs).
func newFakeScheduler(t *testing.T, cfg Config, luts ...int) (*Scheduler, *fakeTimeline, []*fakeBackend) {
	t.Helper()
	tl := &fakeTimeline{}
	var bes []*fakeBackend
	var backends []Backend
	for _, l := range luts {
		b := &fakeBackend{kind: BackendModel, capacity: efpga.Resources{LUTs: l}}
		bes = append(bes, b)
		backends = append(backends, b)
	}
	s := New(tl, backends, cfg)
	for _, a := range []struct {
		name string
		luts int
	}{{"small", 100}, {"big", 300}} {
		bs := &efpga.Bitstream{Name: a.name, Res: efpga.Resources{LUTs: a.luts}, FmaxMHz: 100}
		if err := s.RegisterApp(App{BS: bs, FixedCycles: 100}); err != nil {
			t.Fatal(err)
		}
	}
	return s, tl, bes
}

// queueIDs lists the queued job IDs in order.
func queueIDs(s *Scheduler) []int {
	var ids []int
	for _, j := range s.queue {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestQueueFiltersClearVacatedSlots: the in-place queue filters —
// deadline purge, quarantine triage and the shard-outage kill — keep
// arrival order and nil the slots their removals vacate.
func TestQueueFiltersClearVacatedSlots(t *testing.T) {
	s, tl, bes := newFakeScheduler(t, Config{Policy: FIFO, QueueCap: 32}, 400, 100)
	bes[0].resident = "big"
	s.workers[0].busy, s.workers[1].busy = true, true // hold everything queued
	for i := 0; i < 12; i++ {
		j := &Job{App: "small", InputSize: 1}
		if i%3 == 0 {
			j.App = "big" // fits only worker 0
		}
		if i%4 == 1 {
			j.Deadline = 5 * sim.US
		}
		if !s.Submit(j) {
			t.Fatalf("job %d not admitted", i)
		}
	}
	s.dequeue(0) // move the window off the array's start
	tl.now = 10 * sim.US
	want := slices.DeleteFunc(queueIDs(s), func(id int) bool { return (id-1)%4 == 1 })
	s.purgeExpired(tl.now)
	checkQueue(t, s, want)

	s.quarantine(s.workers[0], tl.now) // no repair: big jobs fit nothing left
	want = slices.DeleteFunc(want, func(id int) bool { return (id-1)%3 == 0 })
	checkQueue(t, s, want)

	s.failQueued(tl.now, Downtime{From: tl.now, To: 2 * tl.now})
	checkQueue(t, s, nil)
}

// TestQueueSteadyStateAllocFree: at a full admission queue, the
// Submit → complete → dispatch cycle allocates nothing — in particular
// the queue never grows a new backing array, whether removals come from
// the head (FIFO) or the middle (Affinity over two alternating apps).
func TestQueueSteadyStateAllocFree(t *testing.T) {
	for _, p := range []Policy{FIFO, Affinity} {
		t.Run(p.String(), func(t *testing.T) {
			const queueCap = 16
			s, tl, bes := newFakeScheduler(t, Config{Policy: p, QueueCap: queueCap, Stats: StatsStreaming}, 400)
			var jobs []*Job
			for i := 0; i <= queueCap; i++ {
				j := &Job{App: "small", InputSize: 4}
				if i%3 == 0 {
					j.App = "big"
				}
				jobs = append(jobs, j)
				if !s.Submit(j) {
					t.Fatalf("job %d not admitted", i)
				}
			}
			step := func() {
				tl.now += sim.US
				j := bes[0].running
				bes[0].finish()
				*j = Job{App: j.App, InputSize: j.InputSize}
				if !s.Submit(j) {
					t.Fatal("resubmission rejected")
				}
			}
			for i := 0; i < 1000; i++ {
				step()
			}
			buf := &s.qbuf[0]
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Fatalf("steady state allocates %.1f times per Submit/complete/dispatch", allocs)
			}
			if &s.qbuf[0] != buf {
				t.Fatal("queue grew a new backing array in steady state")
			}
			if len(s.queue) != queueCap {
				t.Fatalf("queue depth %d, want %d", len(s.queue), queueCap)
			}
			checkBacking(t, s)
		})
	}
}
