package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"duet/internal/workload"
)

// The traced composition must be the same program: for both serve
// workloads it has to hash to ServeCluster's sim digest, and the layer
// counters must show which layers each workload bypasses.
func TestTracedPipelineMatchesServeCluster(t *testing.T) {
	cases := []struct {
		name   string
		runner *serveRunner
		used   bool // stateful front end, telemetry and faults in use
	}{
		{"capacity-stream", &serveRunner{cfgs: []workload.ClusterConfig{capacityConfig(3, 20_000)}}, false},
		{"chaos-cycle", &serveRunner{cfgs: []workload.ClusterConfig{chaosConfig(3, 4_000)}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.runner.iterate()
			if err != nil {
				t.Fatal(err)
			}
			traced, m, err := c.runner.traced()
			if err != nil {
				t.Fatal(err)
			}
			if plain.checkErr != nil || traced.checkErr != nil {
				t.Fatalf("output checks: %v / %v", plain.checkErr, traced.checkErr)
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced sim digest %s, ServeCluster %s", traced.digest, plain.digest)
			}
			for _, row := range []string{"cluster.predict_calls", "telemetry.observe_calls", "faults.wedges"} {
				if got := m[row] > 0; got != c.used {
					t.Errorf("%s = %v, want nonzero %v", row, m[row], c.used)
				}
			}
			for _, row := range []string{"workload.gen_calls", "sched.dispatches", "sched.backend_calls"} {
				if m[row] <= 0 {
					t.Errorf("%s = %v, want > 0", row, m[row])
				}
			}
		})
	}
}

// The rows marked as shares, plus other_s, must add up to the traced wall
// time, with no share negative.
func TestLayersAddUpToTracedWall(t *testing.T) {
	runners := map[string]runner{
		"capacity-stream": &serveRunner{cfgs: []workload.ClusterConfig{capacityConfig(5, 20_000)}},
		"chaos-cycle":     &serveRunner{cfgs: []workload.ClusterConfig{chaosConfig(5, 4_000)}},
		"paper-figs":      &figsRunner{set: fig12Set(DefaultSeed)[:1]},
	}
	d, err := setupDaemon(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	runners["daemon-http"] = d
	for name, r := range runners {
		t.Run(name, func(t *testing.T) {
			res, err := tracedRun(r, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatal("traced run failed its output checks")
			}
			sum := 0.0
			for _, row := range perLayerRows {
				v := res.Metrics[row.name].Value
				if row.sum {
					if v < 0 {
						t.Errorf("%s = %v < 0", row.name, v)
					}
					sum += v
				}
			}
			other := res.Metrics["other_s"].Value
			wall := res.Metrics["trace.wall_s"].Value
			if other < 0 {
				t.Errorf("other_s = %v < 0", other)
			}
			if math.Abs(sum+other-wall) > 1e-9*wall {
				t.Errorf("shares %v + other_s %v = %v, traced wall %v", sum, other, sum+other, wall)
			}
		})
	}
}

// BENCHMARK.json must name exactly the metrics the two kinds of run print.
func TestBenchmarkJSONMatchesRows(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	r := &figsRunner{set: fig12Set(DefaultSeed)[:1]}
	e2e, err := timedRun(r, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := tracedRun(r, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{spec.EndToEnd, e2e.Metrics}, {spec.PerLayer, layers.Metrics}} {
		var names []string
		for _, m := range c.listed {
			names = append(names, m.Name)
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: listed with unit %q, run prints %+v", m.Name, m.Unit, got)
			}
		}
		for name := range c.got {
			if !slices.Contains(names, name) {
				t.Errorf("%s printed but not listed in BENCHMARK.json", name)
			}
		}
	}
}

// A tracker's layer times partition its span exactly, whatever was
// charged before begin and however calls nest.
func TestTrackerPartitionsSpan(t *testing.T) {
	var tr tracker
	tr.leave(tr.enter(lBackend)) // registration while the replica is built
	time.Sleep(time.Millisecond)
	tr.begin()
	p := tr.enter(lFeed)
	time.Sleep(time.Millisecond)
	q := tr.enter(lObserve)
	time.Sleep(time.Millisecond)
	tr.leave(q)
	tr.leave(p)
	tr.finish()
	var sum int64
	for _, ns := range tr.ns {
		sum += ns
	}
	if sum != tr.span().Nanoseconds() {
		t.Errorf("layer times sum to %d ns, span %d ns", sum, tr.span().Nanoseconds())
	}
	if tr.calls[lBackend] != 0 || tr.calls[lFeed] != 1 || tr.calls[lObserve] != 1 {
		t.Errorf("calls %v", tr.calls)
	}
	if tr.ns[lObserve] < int64(time.Millisecond) || tr.ns[lFeed] < int64(time.Millisecond) {
		t.Errorf("nested time misattributed: %v", tr.ns)
	}
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"duet/internal/sched.(*Scheduler).pick":   "sched",
		"duet/internal/coherence.(*Home).handle":  "coherence",
		"duet/internal/efpga.(*Fabric).Register":  "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"internal/runtime/syscall.Syscall6":       "syscall",
		"net/http.(*conn).serve":                  "http",
		"encoding/json.(*decodeState).object":     "json",
		"math/rand.(*Rand).Int63":                 "rand",
		"main.(*tracker).enter":                   "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A profile of a busy loop in this package decodes to samples, all of
// them outside the program's packages.
func TestProfileSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x ^= i * i
		}
	}
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := profileSamples(buf.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 || counts["other"]+counts["runtime"] != total {
		t.Fatalf("samples %v (x %d)", counts, x)
	}
}
