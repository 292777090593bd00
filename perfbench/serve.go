package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"time"

	"duet"
	"duet/internal/cluster"
	"duet/internal/efpga"
	"duet/internal/faults"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
	"duet/internal/workload"
)

// capacityConfig is the capacity-planning shape of BenchmarkServeModel100M:
// model backend, 4 shards, round-robin, FIFO, streaming digests, no
// faults, no telemetry, and a gap the pool serves without queueing up.
func capacityConfig(seed int64, jobs int) workload.ClusterConfig {
	return workload.ClusterConfig{
		ServeConfig: workload.ServeConfig{
			Policy: sched.FIFO, EFPGAs: 2, MemHubs: 1, Jobs: jobs, Seed: seed,
			MeanGapUS: 30, QueueCap: 4096, Stats: sched.StatsStreaming,
			Backend: workload.BackendModel,
		},
		Shards:   4,
		FrontEnd: cluster.RoundRobin,
	}
}

// chaosGapUS saturates a 4-shard, 2-fabric cycle pool: the 1024-deep
// admission queues fill, so placement scans long queues; with the outage
// about one offer in six bounces or dies.
const (
	chaosGapUS    = 5.0
	chaosQueueCap = 1024
)

// chaosConfig is the fault-heavy cycle-level shape: health-weighted
// front end, Affinity, wedge-on-reprogram with repair, and a rack outage
// (shards 0 and 1) over the middle fifth of the arrival span, with hedging
// and a recovery hold. Telemetry windows are on and stats are exact.
func chaosConfig(seed int64, jobs int) workload.ClusterConfig {
	span := sim.Time(float64(jobs) * chaosGapUS * float64(sim.US))
	return workload.ClusterConfig{
		ServeConfig: workload.ServeConfig{
			Policy: sched.Affinity, EFPGAs: 2, MemHubs: 1, Jobs: jobs, Seed: seed,
			MeanGapUS: chaosGapUS, QueueCap: chaosQueueCap, Stats: sched.StatsExact,
			Backend: workload.BackendCycle, Windows: 32,
			Faults: &faults.Plan{
				Seed: seed, WedgeProb: 0.05, MaxRetries: 2,
				RepairDelay: 500 * sim.US,
				Domains: []faults.Domain{{
					Name: "rack0", Shards: []int{0, 1},
					Down: []sched.Downtime{{From: span * 2 / 5, To: span * 3 / 5}},
				}},
				Hedge:       300 * sim.US,
				RecoverHold: 2 * sim.MS,
			},
		},
		Shards:   4,
		FrontEnd: cluster.HealthWeighted,
	}
}

// serveOutcome is the simulated-time part of one cluster run: everything
// the sim digest covers and the output checks read.
type serveOutcome struct {
	Offered  int
	Merged   sched.Stats
	PerShard []shardOutcome
	Rerouted int
	Hedged   int
	Windows  []telemetry.WindowRow
}

type shardOutcome struct {
	Shard    int
	Seed     int64
	Assigned int
	Stats    sched.Stats
}

func outcomeOf(offered int, merged sched.Stats, per []cluster.ShardResult, rerouted, hedged int, windows []telemetry.WindowRow) serveOutcome {
	o := serveOutcome{Offered: offered, Merged: merged, Rerouted: rerouted, Hedged: hedged, Windows: windows}
	for _, s := range per {
		o.PerShard = append(o.PerShard, shardOutcome{s.Shard, s.Seed, s.Assigned, s.Stats})
	}
	return o
}

// digest hashes the outcome's JSON encoding.
func (o serveOutcome) digest() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // every field is a plain value; only a bug gets here
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// check is job conservation: every offer, hedged duplicates included,
// ends completed, failed or rejected.
func (o serveOutcome) check() error {
	m := o.Merged
	if got := m.Completed + m.Failed + m.Rejected; got != o.Offered {
		return fmt.Errorf("conservation: offered %d, completed %d + failed %d + rejected %d = %d",
			o.Offered, m.Completed, m.Failed, m.Rejected, got)
	}
	return nil
}

// Jobs per iteration. A cycle-level replica leaves its System's daemon
// threads parked when it is discarded (an open defect), so every
// chaos-cycle iteration leaks 4 Systems; large iterations keep that leak a
// small part of the heap the GC scans.
const (
	capacityJobs = 250_000
	chaosJobs    = 100_000
)

// subSeeds is how many inputs a serve run cycles through: iteration i
// plays sub-seed i mod subSeeds. A saturated cluster's cost depends on
// its input (queue dynamics, fault draws), so a run times many inputs
// instead of one.
const subSeeds = 16

func subSeed(seed int64, i int) int64 { return seed*subSeeds + int64(i) + 1 }

func setupCapacity(seed int64) (runner, error) {
	return setupServe(seed, capacityConfig, capacityJobs)
}

func setupChaos(seed int64) (runner, error) {
	return setupServe(seed, chaosConfig, chaosJobs)
}

// setupServe builds every sub-seed's config and warms the pipeline up on
// one full iteration (a smaller warm-up made setup_s mostly scheduling
// noise).
func setupServe(seed int64, config func(int64, int) workload.ClusterConfig, jobs int) (runner, error) {
	res, err := workload.ServeCluster(config(subSeed(seed, 0), jobs))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	o := outcomeOf(res.Offered, res.Merged, res.PerShard, res.Rerouted, res.Hedged, res.Windows)
	if err := o.check(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r := &serveRunner{}
	for i := 0; i < subSeeds; i++ {
		r.cfgs = append(r.cfgs, config(subSeed(seed, i), jobs))
	}
	return r, nil
}

// serveRunner drives one serve workload. traced replays the input of the
// latest untraced iteration, so the two can be compared digest to digest.
type serveRunner struct {
	cfgs    []workload.ClusterConfig
	i, last int
}

func (r *serveRunner) iterate() (iterResult, error) {
	r.last = r.i % len(r.cfgs)
	r.i++
	res, err := workload.ServeCluster(r.cfgs[r.last])
	if err != nil {
		return iterResult{}, err
	}
	o := outcomeOf(res.Offered, res.Merged, res.PerShard, res.Rerouted, res.Hedged, res.Windows)
	return o.result(r.last), nil
}

func (o serveOutcome) result(input int) iterResult {
	return iterResult{
		key:       strconv.Itoa(input),
		units:     int64(o.Offered),
		attempted: int64(o.Offered),
		failed:    int64(o.Offered - o.Merged.Completed),
		digest:    o.digest(),
		checkErr:  o.check(),
	}
}

func (r *serveRunner) traced() (iterResult, map[string]float64, error) {
	p := &pipeline{cfg: r.cfgs[r.last]}
	o, err := p.run()
	if err != nil {
		return iterResult{}, nil, err
	}
	return o.result(r.last), p.layers(o), nil
}

func (r *serveRunner) close() {}

// pipeline is workload.ServeCluster assembled from the public pieces it
// is made of, with timing wrappers on every seam the program exposes:
// the arrival source, each replica (Predict, PlayStream), each shard's
// arrival feed, the backend below and above the fault injector, and the
// scheduler observer in front of the telemetry recorder. It must give
// ServeCluster's sim digest exactly.
type pipeline struct {
	cfg    workload.ClusterConfig
	src    *timedSource
	clones []*timedSource
	shards []*shardTrace

	spanGen, build, finish, merge, series time.Duration
}

// shardTrace is one shard's timing state. tr and dispatches belong to the
// shard goroutine; predict belongs to the routing goroutine.
type shardTrace struct {
	tr         tracker
	predict    stopwatch
	dispatches int64
}

func (p *pipeline) run() (serveOutcome, error) {
	sc := p.cfg.ServeConfig
	gen := workload.NewArrivalSource(sc)
	var width sim.Time
	if sc.Windows > 0 {
		t0 := time.Now()
		width = spanWidth(gen.Span(), sc.Windows)
		p.spanGen = time.Since(t0)
	}
	p.src = &timedSource{src: gen, clones: &p.clones}
	ccfg := cluster.Config{
		Shards: p.cfg.Shards, FrontEnd: p.cfg.FrontEnd, Seed: sc.Seed, Handoff: p.cfg.Handoff,
		NewReplica: func(shard int, _ int64) (cluster.Replica, error) {
			t0 := time.Now()
			defer func() { p.build += time.Since(t0) }()
			return p.newReplica(shard, width)
		},
	}
	if sc.Faults != nil {
		ccfg.Faults = &cluster.FaultSpec{
			ShardDown:   sc.Faults.EffectiveShardDown(p.cfg.Shards),
			Hedge:       sc.Faults.Hedge,
			RecoverHold: sc.Faults.RecoverHold,
		}
	}
	res, err := cluster.RunSource(ccfg, p.src)
	end := time.Now()
	if err != nil {
		return serveOutcome{}, err
	}
	var last time.Time
	for _, s := range p.shards {
		if s.tr.end.After(last) {
			last = s.tr.end
		}
	}
	p.finish = end.Sub(last)

	t0 := time.Now()
	merged := cluster.Merge(res.PerShard)
	p.merge = time.Since(t0)
	if !reflect.DeepEqual(merged, res.Merged) {
		return serveOutcome{}, fmt.Errorf("extra cluster.Merge disagrees with the run's own merge")
	}
	var windows []telemetry.WindowRow
	if res.Windows != nil {
		t0 = time.Now()
		windows = res.Windows.Series()
		p.series = time.Since(t0)
	}
	return outcomeOf(res.Offered, res.Merged, res.PerShard, res.Rerouted, res.Hedged, windows), nil
}

// spanWidth mirrors the window width ServeCluster derives from the
// arrival span: the smallest width at which n windows cover it.
func spanWidth(last sim.Time, n int) sim.Time {
	w := (int64(last) + int64(n)) / int64(n)
	if w < 1 {
		w = 1
	}
	return sim.Time(w)
}

// newReplica builds shard's replica the way workload.ServeCluster does,
// with the timing wrappers in place.
func (p *pipeline) newReplica(shard int, width sim.Time) (cluster.Replica, error) {
	sc := p.cfg.ServeConfig
	st := &shardTrace{}
	p.shards = append(p.shards, st)
	var inj *faults.Injector
	if sc.Faults != nil {
		inj = faults.NewInjector(sc.Faults, shard)
	}
	wrap := func(tl faults.Timeline, worker int, be sched.Backend) sched.Backend {
		if inj == nil {
			return &timedBackend{be: be, tr: &st.tr, in: lBackend, done: lSched, dispatches: &st.dispatches}
		}
		inner := &timedBackend{be: be, tr: &st.tr, in: lBackend, done: lFaults}
		return &timedBackend{be: inj.Wrap(tl, worker, inner), tr: &st.tr, in: lFaults, done: lSched, dispatches: &st.dispatches}
	}
	var rep cluster.Replica
	var sch *sched.Scheduler
	switch sc.Backend {
	case workload.BackendModel:
		mcfg := model.Config{
			EFPGAs: sc.EFPGAs, SoftCPUs: sc.SoftCPUs, MemHubs: sc.MemHubs,
			Policy: sc.Policy, QueueCap: sc.QueueCap, Stats: sc.Stats,
			CPUSlowdown: sc.CPUSlowdown,
			Wrap: func(tl model.Timeline, worker int, be sched.Backend) sched.Backend {
				return wrap(tl, worker, be)
			},
		}
		if inj != nil {
			mcfg.Faults = sc.Faults.FaultConfig(shard)
		}
		m := model.NewReplica(mcfg)
		rep, sch = m, m.Scheduler()
	case workload.BackendCycle:
		sys := duet.New(duet.Config{Cores: 1, MemHubs: sc.MemHubs, EFPGAs: sc.EFPGAs, Style: duet.StyleDuet})
		scfg := sched.Config{Policy: sc.Policy, QueueCap: sc.QueueCap, Stats: sc.Stats}
		if inj != nil {
			scfg.Faults = sc.Faults.FaultConfig(shard)
		}
		sch = sys.SchedulerWrapped(scfg, func(worker int, be sched.Backend) sched.Backend {
			return wrap(sys.Eng, worker, be)
		})
		run := func() error {
			_, err := sys.RunChecked()
			return err
		}
		rep = &cluster.EngineReplica{Eng: sys.Eng, Sch: sch, Run: run}
	default:
		return nil, fmt.Errorf("traced pipeline: backend %v not supported", sc.Backend)
	}
	if err := workload.RegisterServeApps(sch); err != nil {
		return nil, err
	}
	tr := &timedReplica{inner: rep, sch: sch, st: st}
	if width > 0 {
		tr.rec = telemetry.NewRecorder(width, sch.WorkerKinds())
	}
	return tr, nil
}

// layers turns one traced iteration into per-layer metrics. The shard
// phase (first shard start to last shard end) is split between layers in
// proportion to the time goroutines spent in each: the shard trackers'
// layer times plus, for the stateful front ends, the routing goroutine's
// loop. Waiting (hand-off) is a share like any other. Everything else in
// the traced wall time is timed directly, and other_s is the rest, so
// the rows that feed the sum, with other_s, add up to the traced wall.
func (p *pipeline) layers(o serveOutcome) map[string]float64 {
	var first, last time.Time
	var sum [numLayers]int64
	var spans, maxSpan, predictNS, predictCalls, dispatches int64
	for i, s := range p.shards {
		if i == 0 || s.tr.start.Before(first) {
			first = s.tr.start
		}
		if s.tr.end.After(last) {
			last = s.tr.end
		}
		for l := range sum {
			sum[l] += s.tr.ns[l]
		}
		sp := s.tr.span().Nanoseconds()
		spans += sp
		maxSpan = max(maxSpan, sp)
		predictNS += s.predict.ns
		predictCalls += s.predict.calls
		dispatches += s.dispatches
	}
	var genNS, genCalls, route, handoff, loop int64
	for _, c := range p.clones {
		genNS += c.sw.ns
		genCalls += c.sw.calls
	}
	if len(p.clones) > 0 {
		// Index-free front end: each shard filters its own clone inside
		// its feed, so the feed time minus generation is the filter.
		route = sum[lFeed] - genNS
	} else {
		// Stateful front end: the routing goroutine generates, predicts
		// and routes; the shards' feed time is waiting for its batches.
		genNS, genCalls = p.src.sw.ns, p.src.sw.calls
		loop = p.src.sw.last.Sub(p.src.sw.first).Nanoseconds()
		route = loop - genNS - predictNS
		handoff = sum[lFeed]
	}
	phase := last.Sub(first).Seconds()
	scale := 0.0
	if total := spans + loop; total > 0 {
		scale = phase / float64(total)
	}
	sec := func(ns int64) float64 { return float64(ns) * scale }
	m := map[string]float64{
		"workload.gen_s":          sec(genNS) + p.spanGen.Seconds(),
		"workload.gen_calls":      float64(genCalls),
		"cluster.route_s":         sec(route),
		"cluster.predict_s":       sec(predictNS),
		"cluster.predict_calls":   float64(predictCalls),
		"cluster.handoff_wait_s":  sec(handoff),
		"cluster.build_s":         p.build.Seconds(),
		"cluster.finish_s":        p.finish.Seconds(),
		"cluster.merge_s":         p.merge.Seconds(),
		"cluster.shard_s":         float64(maxSpan) / 1e9,
		"sched.self_s":            sec(sum[lSched]),
		"sched.backend_s":         sec(sum[lBackend]),
		"faults.wrap_s":           sec(sum[lFaults]),
		"telemetry.observe_s":     sec(sum[lObserve]),
		"telemetry.series_s":      p.series.Seconds(),
		"sched.dispatches":        float64(dispatches),
		"sched.retries":           float64(o.Merged.Retries),
		"faults.wedges":           float64(o.Merged.Wedges),
		"faults.repairs":          float64(o.Merged.Repairs),
		"trace.threads":           0,
		"cluster.shard_skew":      0,
		"sched.reconfig_pct":      0,
		"sched.reject_pct":        0,
		"sched.backend_calls":     0,
		"telemetry.observe_calls": 0,
	}
	for _, s := range p.shards {
		m["sched.backend_calls"] += float64(s.tr.calls[lBackend])
		m["telemetry.observe_calls"] += float64(s.tr.calls[lObserve])
	}
	if phase > 0 {
		m["trace.threads"] = float64(spans+loop) / 1e9 / phase
	}
	if n := len(p.shards); n > 0 && spans > 0 {
		m["cluster.shard_skew"] = float64(maxSpan) / (float64(spans) / float64(n))
	}
	if dispatches > 0 {
		m["sched.reconfig_pct"] = 100 * float64(o.Merged.Reconfigs) / float64(dispatches)
	}
	if o.Offered > 0 {
		m["sched.reject_pct"] = 100 * float64(o.Merged.Rejected) / float64(o.Offered)
	}
	return m
}

// timedSource times generation. Clones register themselves with the
// pipeline; RunSource clones on its own goroutine before any shard
// starts, and each clone is then read by one shard goroutine only.
type timedSource struct {
	src    cluster.Source
	sw     stopwatch
	clones *[]*timedSource
}

func (s *timedSource) Next(a *cluster.Arrival) bool {
	t0 := s.sw.start()
	ok := s.src.Next(a)
	s.sw.stop(t0)
	return ok
}

func (s *timedSource) Len() int { return s.src.Len() }

func (s *timedSource) Clone() cluster.Source {
	c := &timedSource{src: s.src.Clone(), clones: s.clones}
	*s.clones = append(*s.clones, c)
	return c
}

// timedReplica wraps a shard: Predict on the routing goroutine, the whole
// PlayStream span on the shard goroutine.
type timedReplica struct {
	inner cluster.Replica
	sch   *sched.Scheduler
	rec   *telemetry.Recorder
	st    *shardTrace
}

func (r *timedReplica) Predict(app string, inputSize int) (sim.Time, bool) {
	t0 := r.st.predict.start()
	est, ok := r.inner.Predict(app, inputSize)
	r.st.predict.stop(t0)
	return est, ok
}

func (r *timedReplica) Workers() int { return r.inner.Workers() }

func (r *timedReplica) Play(stream []cluster.Arrival, mine []int32) (cluster.ShardResult, error) {
	return r.inner.Play(stream, mine)
}

// PlayStream installs the observer tee itself (the inner replica has no
// recorder of its own, so it leaves the observer alone) and hands the
// recorder back in the result, as the inner replica would have.
func (r *timedReplica) PlayStream(feed cluster.ArrivalFeed) (cluster.ShardResult, error) {
	if r.rec != nil {
		r.sch.SetObserver(&timedObserver{rec: r.rec, tr: &r.st.tr})
	}
	r.st.tr.begin()
	sr, err := r.inner.PlayStream(&timedFeed{feed: feed, tr: &r.st.tr})
	r.st.tr.finish()
	if r.rec != nil {
		sr.Windows = r.rec
	}
	return sr, err
}

type timedFeed struct {
	feed cluster.ArrivalFeed
	tr   *tracker
}

func (f *timedFeed) Next(a *cluster.Arrival) bool {
	p := f.tr.enter(lFeed)
	ok := f.feed.Next(a)
	f.tr.leave(p)
	return ok
}

// timedBackend charges a backend's working calls to layer in, and the
// completion callback it hands up to layer done (the caller's layer).
// Accessors (Kind, Name, Capacity, Resident) pass straight through:
// placement scans call them per queued job and worker, and two clock
// reads would cost far more than the field read they time.
type timedBackend struct {
	be         sched.Backend
	tr         *tracker
	in, done   layer
	dispatches *int64 // set on the scheduler-facing wrapper only
}

func (b *timedBackend) Kind() sched.BackendKind   { return b.be.Kind() }
func (b *timedBackend) Name() string              { return b.be.Name() }
func (b *timedBackend) Capacity() efpga.Resources { return b.be.Capacity() }
func (b *timedBackend) Resident() string          { return b.be.Resident() }

func (b *timedBackend) Register(bs *efpga.Bitstream) error {
	p := b.tr.enter(b.in)
	err := b.be.Register(bs)
	b.tr.leave(p)
	return err
}

func (b *timedBackend) ServiceTime(app *sched.App, inputSize int) sim.Time {
	p := b.tr.enter(b.in)
	t := b.be.ServiceTime(app, inputSize)
	b.tr.leave(p)
	return t
}

func (b *timedBackend) ReconfigCost(app *sched.App) sim.Time {
	p := b.tr.enter(b.in)
	t := b.be.ReconfigCost(app)
	b.tr.leave(p)
	return t
}

func (b *timedBackend) Bind(settleCycles int64, done func(*sched.Job, error)) {
	b.be.Bind(settleCycles, func(j *sched.Job, err error) {
		p := b.tr.enter(b.done)
		done(j, err)
		b.tr.leave(p)
	})
}

func (b *timedBackend) Dispatch(j *sched.Job, app *sched.App) {
	if b.dispatches != nil {
		*b.dispatches++
	}
	p := b.tr.enter(b.in)
	b.be.Dispatch(j, app)
	b.tr.leave(p)
}

// Scrub forwards to scrub-capable backends; for the others a no-op is
// what the scheduler's type check would have done.
func (b *timedBackend) Scrub() {
	if sc, ok := b.be.(sched.Scrubber); ok {
		p := b.tr.enter(b.in)
		sc.Scrub()
		b.tr.leave(p)
	}
}

// timedObserver tees the scheduler's observer hooks into the recorder.
type timedObserver struct {
	rec *telemetry.Recorder
	tr  *tracker
}

func (o *timedObserver) ObserveArrival(at sim.Time, queueDepth int) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveArrival(at, queueDepth)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveReject(at sim.Time) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveReject(at)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveDispatch(at sim.Time, worker int, kind sched.BackendKind, reprogrammed bool) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveDispatch(at, worker, kind, reprogrammed)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveRetire(j *sched.Job) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveRetire(j)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveBusy(worker int, from, to sim.Time) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveBusy(worker, from, to)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveWedge(at sim.Time, worker int) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveWedge(at, worker)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveRetry(at sim.Time) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveRetry(at)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveTimeout(at sim.Time) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveTimeout(at)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveQuarantine(at sim.Time, worker int) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveQuarantine(at, worker)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveRepair(at sim.Time, worker int, quarantined sim.Time) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveRepair(at, worker, quarantined)
	o.tr.leave(p)
}

func (o *timedObserver) ObserveProbationFail(at sim.Time, worker int) {
	p := o.tr.enter(lObserve)
	o.rec.ObserveProbationFail(at, worker)
	o.tr.leave(p)
}
