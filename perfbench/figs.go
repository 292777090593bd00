package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"duet/internal/apps"
	"duet/internal/workload"
)

// The figure grids duetsim fig9, fig10 and fig11 print.
var (
	fig9Freqs   = []float64{100, 200, 500}
	fig10Freqs  = []float64{20, 50, 100, 200, 500}
	fig11Counts = []int{1, 2, 4, 8, 16}
)

// fig12Set is the Fig. 12 set at the sizes bench_test.go pins for its
// BenchmarkFig12_* functions (the full sizes take ~32 s per pass, longer
// than a run). The seed moves every benchmark's input seed by the same
// offset; DefaultSeed gives the pinned seeds.
func fig12Set(seed int64) []apps.Benchmark {
	off := uint64(seed - DefaultSeed)
	set := []apps.Benchmark{
		{Name: "tangent", Run: func(v apps.Variant) apps.Result {
			return apps.RunTangent(v, apps.TangentConfig{Calls: 96, Seed: 3 + off})
		}},
		{Name: "popcount", Run: func(v apps.Variant) apps.Result {
			return apps.RunPopcount(v, apps.PopcountConfig{Vectors: 48, Seed: 5 + off})
		}},
		{Name: "sort/32", Run: func(v apps.Variant) apps.Result {
			return apps.RunSort(v, apps.SortConfig{N: 32, Rounds: 4, Seed: 7 + off})
		}},
		{Name: "sort/64", Run: func(v apps.Variant) apps.Result {
			return apps.RunSort(v, apps.SortConfig{N: 64, Rounds: 3, Seed: 8 + off})
		}},
		{Name: "sort/128", Run: func(v apps.Variant) apps.Result {
			return apps.RunSort(v, apps.SortConfig{N: 128, Rounds: 2, Seed: 9 + off})
		}},
		{Name: "dijkstra", Run: func(v apps.Variant) apps.Result {
			return apps.RunDijkstra(v, apps.DijkstraConfig{Nodes: 128, AvgDegree: 4, Queries: 3, Seed: 17 + off})
		}},
		{Name: "barnes-hut", Run: func(v apps.Variant) apps.Result {
			return apps.RunBarnesHut(v, apps.BHConfig{Particles: 48, Theta: 0.5, Seed: 21 + off})
		}},
		{Name: "pdes/4", Run: func(v apps.Variant) apps.Result {
			return apps.RunPDES(v, apps.PDESConfig{Cores: 4, Population: 24, Horizon: 250, Seed: 11 + off})
		}},
		{Name: "pdes/16", Run: func(v apps.Variant) apps.Result {
			return apps.RunPDES(v, apps.PDESConfig{Cores: 16, Population: 24, Horizon: 250, Seed: 11 + off})
		}},
		{Name: "bfs/4", Run: func(v apps.Variant) apps.Result {
			return apps.RunBFS(v, apps.BFSConfig{Cores: 4, Nodes: 256, AvgDegree: 4, Seed: 13 + off})
		}},
		{Name: "bfs/16", Run: func(v apps.Variant) apps.Result {
			return apps.RunBFS(v, apps.BFSConfig{Cores: 16, Nodes: 256, AvgDegree: 4, Seed: 13 + off})
		}},
	}
	paradigm := map[string]string{}
	for _, b := range apps.All() {
		paradigm[b.Name] = b.Paradigm
	}
	for i := range set {
		set[i].Paradigm = paradigm[set[i].Name]
	}
	return set
}

// figsRunner reproduces Fig. 9–12 through the calls duetsim makes:
// Fig9P/Fig10P/Fig11P on a GOMAXPROCS-wide pool, then apps.RunOne per
// benchmark, one after another.
type figsRunner struct {
	set []apps.Benchmark
}

// figsOutcome is every simulated result of one pass, with Fig. 12 errors
// as text so they hash.
type figsOutcome struct {
	Fig9  []workload.Fig9Row
	Fig10 []workload.Fig10Row
	Fig11 []workload.Fig11Row
	Fig12 []fig12Point
}

type fig12Point struct {
	apps.Fig12Row
	Err      string
	Paradigm string `json:"-"`
}

// figsPass runs every figure once; timeOp wraps each call so the traced
// pass can time it.
func figsPass(set []apps.Benchmark, timeOp func(name string, op func())) figsOutcome {
	par := runtime.GOMAXPROCS(0)
	var o figsOutcome
	timeOp("fig9", func() { o.Fig9 = workload.Fig9P(par, fig9Freqs) })
	timeOp("fig10", func() { o.Fig10 = workload.Fig10P(par, fig10Freqs) })
	timeOp("fig11", func() { o.Fig11 = workload.Fig11P(par, fig11Counts) })
	for _, b := range set {
		timeOp(b.Name, func() {
			row := apps.RunOne(b)
			p := fig12Point{Fig12Row: row, Paradigm: b.Paradigm}
			if row.Err != nil {
				p.Err = row.Err.Error()
			}
			o.Fig12 = append(o.Fig12, p)
		})
	}
	return o
}

// result hashes every point except the hardware-augmentation (HA)
// benchmarks' Fig. 12 rows: pdes and bfs runtimes vary from run to run
// (an open defect: coherence invalidation lists are built by ranging over
// a map), so they are named with their spread instead of hashed.
func (o figsOutcome) result() iterResult {
	stable := o
	stable.Fig12 = nil
	for _, p := range o.Fig12 {
		if p.Paradigm != "HA" {
			stable.Fig12 = append(stable.Fig12, p)
		}
	}
	b, err := json.Marshal(stable)
	if err != nil {
		panic(err) // plain values only; only a bug gets here
	}
	h := sha256.Sum256(b)
	it := iterResult{
		units:     int64(len(o.Fig9) + len(o.Fig10) + len(o.Fig11) + len(o.Fig12)),
		attempted: int64(len(o.Fig9) + len(o.Fig10) + len(o.Fig11) + len(o.Fig12)),
		digest:    hex.EncodeToString(h[:8]),
		points:    map[string]int64{},
	}
	for _, r := range o.Fig9 {
		it.points[fmt.Sprintf("fig9/%s/%g", r.Mechanism, r.FreqMHz)] = int64(r.Total)
	}
	for _, r := range o.Fig10 {
		it.points[fmt.Sprintf("fig10/%s/%g", r.Mechanism, r.FreqMHz)] = int64(math.Round(r.MBps * 1e3))
	}
	for _, r := range o.Fig11 {
		it.points[fmt.Sprintf("fig11/%s/%d", r.Kind, r.Procs)] = int64(math.Round(r.PerProcMBps * 1e3))
	}
	for _, p := range o.Fig12 {
		it.points["fig12/"+p.Name+"/CPU"] = int64(p.CPURuntime)
		it.points["fig12/"+p.Name+"/Duet"] = int64(p.DuetRuntime)
		it.points["fig12/"+p.Name+"/FPSoC"] = int64(p.FPSoCRuntime)
		if p.Err != "" {
			it.failed++
		}
	}
	it.checkErr = o.check()
	return it
}

// check asks for every row of every figure and an error-free Fig. 12.
func (o figsOutcome) check() error {
	want9 := int(workload.NumMechanisms) * len(fig9Freqs)
	want10 := int(workload.NumMechanisms) * len(fig10Freqs)
	want11 := int(workload.NumContentionKinds) * len(fig11Counts)
	if len(o.Fig9) != want9 || len(o.Fig10) != want10 || len(o.Fig11) != want11 {
		return fmt.Errorf("figure rows: fig9 %d/%d, fig10 %d/%d, fig11 %d/%d",
			len(o.Fig9), want9, len(o.Fig10), want10, len(o.Fig11), want11)
	}
	for _, p := range o.Fig12 {
		if p.Err != "" {
			return fmt.Errorf("fig12 %s: %s", p.Name, p.Err)
		}
	}
	return nil
}

// iterate runs one pass; the pass is the operation p50/p99 describe (the
// figure calls differ too much in size for their mixture to have a
// meaningful median).
func (r *figsRunner) iterate() (iterResult, error) {
	return figsPass(r.set, func(_ string, op func()) { op() }).result(), nil
}

// traced times each Fig. 9/10/11 call and each Benchmark.Run(variant)
// inside apps.RunOne.
func (r *figsRunner) traced() (iterResult, map[string]float64, error) {
	m := map[string]float64{}
	set := make([]apps.Benchmark, len(r.set))
	for i, b := range r.set {
		run := b.Run
		set[i] = b
		set[i].Run = func(v apps.Variant) apps.Result {
			t0 := time.Now()
			res := run(v)
			d := time.Since(t0).Seconds()
			m["apps."+variantRow[v]+"_s"] += d
			m["apps."+paradigmRow[b.Paradigm]+"_s"] += d
			return res
		}
	}
	o := figsPass(set, func(name string, op func()) {
		t0 := time.Now()
		op()
		if row, ok := figRow[name]; ok {
			m[row] += time.Since(t0).Seconds()
		}
	})
	return o.result(), m, nil
}

var (
	variantRow  = map[apps.Variant]string{apps.VariantCPU: "cpu", apps.VariantDuet: "duet", apps.VariantFPSoC: "fpsoc"}
	paradigmRow = map[string]string{"FG": "fg", "HA": "ha"}
	figRow      = map[string]string{"fig9": "workload.fig9_s", "fig10": "workload.fig10_s", "fig11": "workload.fig11_s"}
)

func (r *figsRunner) close() {}

// setupFigs builds the benchmark set and warms the simulator up on Fig.
// 9–11 and the first Fig. 12 benchmark.
func setupFigs(seed int64) (runner, error) {
	r := &figsRunner{set: fig12Set(seed)}
	par := runtime.GOMAXPROCS(0)
	workload.Fig9P(par, fig9Freqs)
	workload.Fig10P(par, fig10Freqs)
	workload.Fig11P(par, fig11Counts)
	if row := apps.RunOne(r.set[0]); row.Err != nil {
		return nil, fmt.Errorf("warm-up: %w", row.Err)
	}
	return r, nil
}
