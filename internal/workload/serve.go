package workload

import (
	"encoding/json"
	"fmt"

	"duet"
	"duet/internal/accel"
	"duet/internal/cluster"
	"duet/internal/efpga"
	"duet/internal/faults"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/study"
	"duet/internal/telemetry"
)

// This file implements the accelerator-as-a-service study behind
// `duetsim serve`: an open-loop, seeded arrival process over the paper's
// application accelerators, played through internal/sched on a serve
// replica. The arrival stream is a deterministic function of the seed,
// so repeated runs at the same seed produce identical results under
// every policy and execution backend.

// BackendMode selects the execution backend a serve replica runs on.
type BackendMode int

// Backend modes.
const (
	// BackendCycle is the cycle-level path: a full Dolly instance
	// (cores, NoC, coherence, adapters) with sched.CycleBackend workers.
	BackendCycle BackendMode = iota
	// BackendModel is internal/model's calibrated analytic fast path:
	// the same scheduler and the same App service/reprogram charges with
	// no Dolly instance and no event engine behind them.
	BackendModel
	// BackendHybrid is the cycle-level path plus CPU soft-path fallback
	// workers (SoftCPUs of them) the scheduler can spill to — pair it
	// with sched.Hybrid for the dynamic hardware/software partitioning
	// scenario.
	BackendHybrid
	NumBackendModes
)

func (m BackendMode) String() string {
	names := [...]string{"cycle", "model", "hybrid"}
	if m < 0 || int(m) >= len(names) {
		return "unknown"
	}
	return names[m]
}

// MarshalJSON encodes the mode as its String name for machine-readable
// study output.
func (m BackendMode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// BackendModeByName parses a backend mode as printed by String.
func BackendModeByName(name string) (BackendMode, error) {
	for m := BackendMode(0); m < NumBackendModes; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown backend %q", name)
}

// ServeConfig parameterizes one serve run.
type ServeConfig struct {
	Policy    sched.Policy
	EFPGAs    int     // fabrics to serve across (default 2)
	MemHubs   int     // memory hubs per adapter (default 1)
	Jobs      int     // offered jobs (default 240)
	Seed      int64   // arrival-process seed (default 1)
	MeanGapUS float64 // mean inter-arrival gap in microseconds (default 25)
	QueueCap  int     // admission-queue bound (default sched's 64)

	// Stats selects the scheduler's aggregation mode: exact per-job
	// ledgers (default) or fixed-memory streaming digests for
	// million-job runs (see sched.StatsMode).
	Stats sched.StatsMode

	// Backend selects the execution backend (default BackendCycle; the
	// cycle and model backends produce matching statistics — see the
	// cross-validation study in xval.go).
	Backend BackendMode
	// SoftCPUs is the number of CPU soft-path workers appended after the
	// fabrics (hybrid and model backends; defaults to 1 under
	// BackendHybrid).
	SoftCPUs int
	// CPUSlowdown calibrates the soft path (defaults to
	// model.DefaultCPUSlowdown, the paper's Fig. 12 geomean speedup).
	CPUSlowdown float64

	// Faults, when non-nil, is the run's deterministic fault plan: the
	// backend wrappers and scheduler fault config are installed on every
	// replica (internal/faults). A non-nil but empty plan still installs
	// the injection seam — inert, which is what the fault-free overhead
	// benchmark measures. Nil leaves the stack exactly as before.
	Faults *faults.Plan

	// Windows, when positive, turns on the windowed flight recorder:
	// the arrival stream's span is divided into Windows fixed-width
	// simulated-time buckets and every replica records per-window
	// telemetry (internal/telemetry). Completions landing after the
	// last arrival extend the series a few windows past Windows. The
	// width is a pure function of (seed, jobs, mean gap, Windows), so
	// shard series align and the recorded series inherits the study's
	// determinism contract. 0 disables telemetry.
	Windows int

	// Progress, when set, receives coarse jobs-done counts and the
	// simulated-time high-water mark as the run consumes its arrival
	// stream — the sensor behind `duetsim -progress`. Nil (the default)
	// disables all updates; the field never affects results.
	Progress *cluster.Progress
}

// ServeResult is the outcome of one serve run.
type ServeResult struct {
	Policy  sched.Policy
	Backend BackendMode
	Offered int
	sched.Stats

	// Windows is the flight-recorder series (nil unless
	// ServeConfig.Windows > 0).
	Windows []telemetry.WindowRow `json:"Windows,omitempty"`
}

// serveStub is the inert fabric-side model behind each catalog bitstream:
// the scheduler models service time analytically, so the accelerator
// spawns no behavioural threads.
type serveStub struct{}

func (serveStub) Start(*efpga.Env) {}

// ServeApp is one entry of the multi-tenant catalog: a Table II
// accelerator plus its per-job cycle model (fixed setup + cycles per
// input item on the fabric clock at the bitstream's Fmax).
type ServeApp struct {
	Name    string
	Fixed   int64
	PerItem int64
}

// ServeApps is the serve study's application mix.
var ServeApps = []ServeApp{
	{"Tangent", 32, 1},
	{"Popcount", 64, 4},
	{"Sort (32)", 96, 6},
	{"Dijkstra", 128, 10},
	{"BFS", 64, 3},
}

// withDefaults returns cfg with the study's default parameters applied.
func (cfg ServeConfig) withDefaults() ServeConfig {
	if cfg.EFPGAs <= 0 {
		cfg.EFPGAs = 2
	}
	if cfg.MemHubs <= 0 {
		cfg.MemHubs = 1
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 240
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MeanGapUS <= 0 {
		cfg.MeanGapUS = 25
	}
	if cfg.Backend == BackendHybrid && cfg.SoftCPUs <= 0 {
		cfg.SoftCPUs = 1
	}
	return cfg
}

// RegisterServeApps installs the full serve catalog on a scheduler —
// the same apps batch serve studies run, so the daemon's live catalog
// matches the offline one.
func RegisterServeApps(sch *sched.Scheduler) error { return registerServeApps(sch) }

// registerServeApps installs the full serve catalog on a scheduler.
func registerServeApps(sch *sched.Scheduler) error {
	for _, a := range ServeApps {
		bs := accel.Synthesize(a.Name, func() efpga.Accelerator { return serveStub{} })
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: a.Fixed, CyclesPerItem: a.PerItem}); err != nil {
			return err
		}
	}
	return nil
}

// newServeReplica builds one serve replica for cfg's backend mode:
// a cycle-level Dolly instance, the analytic model replica, or a hybrid
// Dolly + CPU-soft-path pool. cfg must have defaults applied. shard is
// the replica's cluster shard index (0 for single-replica runs) — the
// fault plan's draw site and outage-schedule key. checked selects
// RunChecked (coherence validation) for engine-backed replicas; harvest
// keeps the exact-mode per-job samples (cluster shards need them for
// exact merged quantiles; single-replica Serve reads Stats only and
// skips the duplicate O(jobs) copy). windowWidth, when positive,
// attaches a flight recorder over windows of that width — every shard
// of one run must get the same width so its series merge.
func newServeReplica(cfg ServeConfig, shard int, checked, harvest bool, windowWidth sim.Time) (cluster.Replica, error) {
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(cfg.Faults, shard)
	}
	if cfg.Backend == BackendModel {
		mcfg := model.Config{
			EFPGAs: cfg.EFPGAs, SoftCPUs: cfg.SoftCPUs, MemHubs: cfg.MemHubs,
			Policy: cfg.Policy, QueueCap: cfg.QueueCap, Stats: cfg.Stats,
			CPUSlowdown: cfg.CPUSlowdown, DiscardSamples: !harvest,
		}
		if inj != nil {
			mcfg.Wrap = func(tl model.Timeline, worker int, be sched.Backend) sched.Backend {
				return inj.Wrap(tl, worker, be)
			}
			mcfg.Faults = cfg.Faults.FaultConfig(shard)
		}
		rep := model.NewReplica(mcfg)
		if err := registerServeApps(rep.Scheduler()); err != nil {
			return nil, err
		}
		if windowWidth > 0 {
			rep.SetRecorder(telemetry.NewRecorder(windowWidth, rep.Scheduler().WorkerKinds()))
		}
		return rep, nil
	}
	sys := duet.New(duet.Config{
		Cores: 1, MemHubs: cfg.MemHubs, EFPGAs: cfg.EFPGAs, Style: duet.StyleDuet,
	})
	var soft []sched.Backend
	if cfg.Backend == BackendHybrid {
		for i := 0; i < cfg.SoftCPUs; i++ {
			soft = append(soft, model.NewCPU(sys.Eng, fmt.Sprintf("cpu%d", i), cfg.CPUSlowdown))
		}
	}
	scfg := sched.Config{
		Policy: cfg.Policy, QueueCap: cfg.QueueCap, Stats: cfg.Stats,
	}
	var wrap func(worker int, be sched.Backend) sched.Backend
	if inj != nil {
		scfg.Faults = cfg.Faults.FaultConfig(shard)
		wrap = func(worker int, be sched.Backend) sched.Backend {
			return inj.Wrap(sys.Eng, worker, be)
		}
	}
	sch := sys.SchedulerWrapped(scfg, wrap, soft...)
	if err := registerServeApps(sch); err != nil {
		return nil, err
	}
	run := func() error {
		sys.Run()
		return nil
	}
	if checked {
		run = func() error {
			_, err := sys.RunChecked()
			return err
		}
	}
	rep := &cluster.EngineReplica{Eng: sys.Eng, Sch: sch, Run: run, DiscardSamples: !harvest}
	if windowWidth > 0 {
		rep.Rec = telemetry.NewRecorder(windowWidth, sch.WorkerKinds())
	}
	return rep, nil
}

// spanWidth derives the flight recorder's window width from the arrival
// stream's final instant: the smallest width at which n windows cover
// every arrival (ceil((last+1)/n)). The span is a pure function of the
// serve config, so the width — and with it the window keying of every
// shard — is too. Generator runs compute last with ArrivalSource.Span
// (O(1) memory); runs over a pre-drawn stream read stream[len-1].At —
// identical values, so both key windows the same way.
func spanWidth(last sim.Time, n int) sim.Time {
	if n <= 0 {
		return 0
	}
	w := (int64(last) + int64(n)) / int64(n)
	if w < 1 {
		w = 1
	}
	return sim.Time(w)
}

// windowWidth is spanWidth over a materialized stream. Zero (telemetry
// off) when n <= 0 or the stream is empty.
func windowWidth(stream []cluster.Arrival, n int) sim.Time {
	if n <= 0 || len(stream) == 0 {
		return 0
	}
	return spanWidth(stream[len(stream)-1].At, n) // arrivals are generated in ascending order
}

// Arrivals generates cfg's open-loop arrival stream (defaults applied) —
// the exact stream Serve and ServeCluster play. Exported so benchmarks
// and studies can pre-generate the stream outside their timed region.
func Arrivals(cfg ServeConfig) []cluster.Arrival {
	return serveArrivals(cfg.withDefaults())
}

// serveArrivals materializes the study's open-loop arrival stream from
// ArrivalSource — the single home of the draw sequence, so a pre-drawn
// stream and the generator are the same stream by construction (a
// property test pins it). cfg must have defaults applied.
func serveArrivals(cfg ServeConfig) []cluster.Arrival {
	src := NewArrivalSource(cfg)
	arrivals := make([]cluster.Arrival, 0, cfg.Jobs)
	var a cluster.Arrival
	for src.Next(&a) {
		arrivals = append(arrivals, a)
	}
	return arrivals
}

// Serve plays a seeded open-loop workload through the scheduler and
// reports its statistics. The arrival stream is pulled straight from
// the generator — never materialized — so memory stays flat at any job
// count.
func Serve(cfg ServeConfig) ServeResult {
	cfg = cfg.withDefaults()
	src := NewArrivalSource(cfg)
	var width sim.Time
	if cfg.Windows > 0 {
		width = spanWidth(src.Span(), cfg.Windows)
	}
	rep, err := newServeReplica(cfg, 0, false, false, width)
	if err != nil {
		panic(err)
	}
	sr, err := rep.PlayStream(cluster.NewSourceFeed(src, cfg.Progress))
	if err != nil {
		panic(err)
	}
	res := ServeResult{Policy: cfg.Policy, Backend: cfg.Backend, Offered: cfg.Jobs, Stats: sr.Stats}
	if sr.Windows != nil {
		res.Windows = sr.Windows.Series()
	}
	return res
}

// ServeStudy runs one Serve per config on a parallel-wide study pool
// (<= 0 selects GOMAXPROCS), results in config order — the sweep behind
// `duetsim serve`'s policy table.
func ServeStudy(parallel int, cfgs []ServeConfig) []ServeResult {
	return study.Map(parallel, cfgs, Serve)
}
