package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/daemon"
	"duet/internal/workload"
)

const (
	// daemonConns is the closed loop's client count: one per CPU here.
	daemonConns = 2
	// daemonBatch is the requests one client sends per iteration.
	daemonBatch = 1000
	// daemonWarmup is the requests per client set-up sends.
	daemonWarmup = 200
	// tickInterval is duetsim daemon's ticker period.
	tickInterval = 2 * time.Millisecond
)

// daemonRunner is an in-process duetsim daemon (model backend, timescale
// 1, 2 ms ticker) on a loopback listener, driven by the benchmark's own
// closed-loop clients with sync POST /v1/jobs requests.
type daemonRunner struct {
	srv     *daemon.Server
	srvHTTP *http.Server
	served  chan error
	url     string
	client  *http.Client
	bodies  [daemonConns][][]byte

	// tracing selects the timing middleware; handlerNS accumulates the
	// handler time of traced requests.
	tracing   atomic.Bool
	handlerNS atomic.Int64

	tickStop chan struct{}
	tickDone chan struct{}
	tickNS   int64 // written by the traced ticker goroutine, read after it stops
	ticks    int64
}

func setupDaemon(seed int64) (runner, error) {
	srv, err := daemon.NewServer(daemon.Config{Backend: workload.BackendModel, Timescale: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &daemonRunner{
		srv:    srv,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: daemonConns, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
	plain := srv.Handler()
	r.srvHTTP = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.tracing.Load() {
			plain.ServeHTTP(w, req)
			return
		}
		t0 := time.Now()
		plain.ServeHTTP(w, req)
		r.handlerNS.Add(time.Since(t0).Nanoseconds())
	})}
	go func() { r.served <- r.srvHTTP.Serve(ln) }()
	r.startTicker(false)
	r.makeBodies(seed, srv.Apps())
	if err := r.waitHealthy(); err != nil {
		r.close()
		return nil, err
	}
	if _, err := r.batch(daemonWarmup); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// makeBodies draws each client's request bodies from the seed: a
// uniform app over the daemon's catalog, input size and priority drawn
// like the serve study's arrivals.
func (r *daemonRunner) makeBodies(seed int64, apps []string) {
	rng := rand.New(rand.NewSource(seed))
	for c := range r.bodies {
		r.bodies[c] = make([][]byte, daemonBatch)
		for i := range r.bodies[c] {
			b, _ := json.Marshal(daemon.JobRequest{ // a struct of plain fields cannot fail
				App: apps[rng.Intn(len(apps))], InputSize: 64 + rng.Intn(2048),
				Priority: rng.Intn(4), Wait: true,
			})
			r.bodies[c][i] = b
		}
	}
}

func (r *daemonRunner) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get(r.url + "/healthz")
		if err == nil {
			var h daemon.Health
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && h.Status == "healthy" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startTicker runs the daemon's heartbeat: Server.RunTicker as duetsim
// daemon runs it, or, when traced, the benchmark's own ticker timing
// each Server.Tick.
func (r *daemonRunner) startTicker(traced bool) {
	r.tickStop, r.tickDone = make(chan struct{}), make(chan struct{})
	stop, done := r.tickStop, r.tickDone
	if !traced {
		go func() {
			defer close(done)
			r.srv.RunTicker(tickInterval, stop)
		}()
		return
	}
	r.tickNS, r.ticks = 0, 0
	go func() {
		defer close(done)
		t := time.NewTicker(tickInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				t0 := time.Now()
				r.srv.Tick()
				r.tickNS += time.Since(t0).Nanoseconds()
				r.ticks++
			}
		}
	}()
}

func (r *daemonRunner) stopTicker() {
	close(r.tickStop)
	<-r.tickDone
}

// batchResult is one closed-loop batch as the clients saw it.
type batchResult struct {
	rtt       []float64 // ms, every request
	rttNS     int64
	loopNS    int64 // summed over clients
	ok, bad   int64
	firstFail error
}

// batch sends n sync requests from each client, each client waiting for
// its previous reply.
func (r *daemonRunner) batch(n int) (batchResult, error) {
	var out [daemonConns]batchResult
	var wg sync.WaitGroup
	for c := 0; c < daemonConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &out[c]
			t0 := time.Now()
			for i := 0; i < n; i++ {
				s := time.Now()
				err := r.post(r.bodies[c][i%len(r.bodies[c])])
				d := time.Since(s)
				o.rtt = append(o.rtt, d.Seconds()*1e3)
				o.rttNS += d.Nanoseconds()
				if err != nil {
					o.bad++
					if o.firstFail == nil {
						o.firstFail = err
					}
				} else {
					o.ok++
				}
			}
			o.loopNS = time.Since(t0).Nanoseconds()
		}(c)
	}
	wg.Wait()
	var b batchResult
	for _, o := range out {
		b.rtt = append(b.rtt, o.rtt...)
		b.rttNS += o.rttNS
		b.loopNS += o.loopNS
		b.ok += o.ok
		b.bad += o.bad
		if b.firstFail == nil {
			b.firstFail = o.firstFail
		}
	}
	if b.ok == 0 {
		return b, fmt.Errorf("no request succeeded: %w", b.firstFail)
	}
	return b, nil
}

// post sends one sync job and checks that a 2xx reply is a finished,
// successful job.
func (r *daemonRunner) post(body []byte) error {
	resp, err := r.client.Post(r.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse; the status is the failure
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var res daemon.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if res.ID == 0 || res.Status != "ok" {
		return fmt.Errorf("2xx reply without a finished job: id %d status %q %s", res.ID, res.Status, res.Error)
	}
	return nil
}

func (b batchResult) result() iterResult {
	it := iterResult{
		units:     b.ok,
		attempted: b.ok + b.bad,
		failed:    b.bad,
		opLatency: b.rtt,
	}
	if b.bad > 0 {
		it.checkErr = fmt.Errorf("%d of %d requests failed, first: %v", b.bad, b.ok+b.bad, b.firstFail)
	}
	return it
}

func (r *daemonRunner) iterate() (iterResult, error) {
	b, err := r.batch(daemonBatch)
	if err != nil {
		return iterResult{}, err
	}
	return b.result(), nil
}

// traced splits the batch's wall time between the handler, the network
// path (round trip minus handler) and the clients, in proportion to the
// time the clients spent in each; the ticker runs beside them and is
// reported on its own.
func (r *daemonRunner) traced() (iterResult, map[string]float64, error) {
	r.stopTicker()
	r.startTicker(true)
	r.handlerNS.Store(0)
	r.tracing.Store(true)
	t0 := time.Now()
	b, err := r.batch(daemonBatch)
	wall := time.Since(t0).Seconds()
	r.tracing.Store(false)
	r.stopTicker()
	tickNS, ticks := r.tickNS, r.ticks
	r.startTicker(false)
	if err != nil {
		return iterResult{}, nil, err
	}
	scale := wall / float64(b.loopNS)
	handler := r.handlerNS.Load()
	m := map[string]float64{
		"daemon.handler_s":  float64(handler) * scale,
		"daemon.net_s":      float64(b.rttNS-handler) * scale,
		"daemon.rtt_s":      float64(b.rttNS) * scale,
		"daemon.tick_s":     float64(tickNS) / 1e9,
		"daemon.tick_calls": float64(ticks),
		"daemon.reject_pct": 100 * float64(b.bad) / float64(b.ok+b.bad),
		"trace.threads":     float64(b.loopNS) / 1e9 / wall,
	}
	return b.result(), m, nil
}

func (r *daemonRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.srv.Drain()
	if err := r.srvHTTP.Shutdown(ctx); err != nil {
		_ = r.srvHTTP.Close() // shutdown timed out; force the listener and connections closed
	}
	<-r.served
	r.stopTicker()
	r.client.CloseIdleConnections()
}
