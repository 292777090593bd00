package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"duet/internal/daemon"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/workload"
)

// daemonOpts carries the daemon command's flag values.
type daemonOpts struct {
	listen      string
	backend     workload.BackendMode
	efpgas      int
	softCPUs    int
	policy      string
	queueCap    int
	maxInflight int
	timescale   float64
	windowMS    float64
	// Fault-injection knobs (see internal/faults): a nonzero wedge
	// probability installs a seeded fault plan below the backend seam,
	// so a live daemon can rehearse degraded operation — /healthz flips
	// to degraded/down and /metrics carries the fault counters. A
	// repair delay (simulated µs) makes quarantine transient, and a
	// domain spec (faults.ParseDomains syntax) adds correlated
	// rack/power outages.
	wedgeProb     float64
	retries       int
	faultSeed     int64
	repairDelayUS int64
	domains       string
}

// daemonCmd boots the HTTP ingest server and blocks until SIGINT/SIGTERM
// (graceful drain: stop admitting, finish every in-flight job, flush a
// final stats line) or a listener error.
func daemonCmd(o daemonOpts) error {
	pol, err := sched.PolicyByName(o.policy)
	if err != nil {
		return err
	}
	var plan *faults.Plan
	if o.wedgeProb > 0 || o.repairDelayUS > 0 || strings.TrimSpace(o.domains) != "" {
		plan = &faults.Plan{
			Seed: o.faultSeed, WedgeProb: o.wedgeProb, MaxRetries: o.retries,
			RepairDelay: sim.Time(o.repairDelayUS) * sim.US,
		}
		if strings.TrimSpace(o.domains) != "" {
			doms, err := faults.ParseDomains(o.domains)
			if err != nil {
				return err
			}
			plan.Domains = doms
		}
	}
	srv, err := daemon.NewServer(daemon.Config{
		Backend:        o.backend,
		EFPGAs:         o.efpgas,
		SoftCPUs:       o.softCPUs,
		Policy:         pol,
		QueueCap:       o.queueCap,
		MaxOutstanding: o.maxInflight,
		Timescale:      o.timescale,
		WindowWidth:    sim.Time(o.windowMS * float64(sim.MS)),
		Faults:         plan,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	go srv.RunTicker(2*time.Millisecond, stop)
	// ReadHeaderTimeout bounds how long a client may dribble request
	// headers before the connection is dropped.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	fmt.Fprintf(os.Stderr, "duetsim daemon: listening on %s (%s backend, %d eFPGAs, policy %s, timescale %g)\n",
		ln.Addr(), o.backend, o.efpgas, pol, o.timescale)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		close(stop)
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "duetsim daemon: %v: draining in-flight jobs\n", s)
	}

	// Drain first (every admitted job retires, sync waiters unblock),
	// then shut the listener down so those responses still go out.
	srv.Drain()
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "duetsim daemon: drained; completed %d, failed %d, queue-rejected %d, p50 %v, p99 %v\n",
		st.Completed, st.Failed, st.Rejected, st.P50, st.P99)
	return nil
}

// loadgenOpts carries the loadgen command's flag values.
type loadgenOpts struct {
	target      string
	mode        string
	concurrency int
	rateHz      float64
	duration    time.Duration
	requests    int
	apps        string
	tenants     string
	seed        int64
	timeout     time.Duration
	jsonOut     bool
}

// loadgenCmd drives a running daemon and prints the final report.
func loadgenCmd(o loadgenOpts) error {
	tenants, err := daemon.ParseTenants(o.tenants)
	if err != nil {
		return err
	}
	var apps []string
	if strings.TrimSpace(o.apps) != "" {
		apps = strings.Split(o.apps, ",")
	}
	rep, err := daemon.RunLoadgen(context.Background(), daemon.LoadgenConfig{
		Target:      o.target,
		Mode:        o.mode,
		Concurrency: o.concurrency,
		RateHz:      o.rateHz,
		Duration:    o.duration,
		Jobs:        o.requests,
		Apps:        apps,
		Tenants:     tenants,
		Seed:        o.seed,
		Timeout:     o.timeout,
	})
	if err != nil {
		return err
	}
	if o.jsonOut {
		emitJSON(struct {
			Loadgen daemon.LoadgenReport `json:"loadgen"`
		}{rep})
		return nil
	}
	header(fmt.Sprintf("Loadgen: %s loop against %s (%v)", rep.Mode, o.target, rep.Elapsed.Round(time.Millisecond)))
	fmt.Printf("  sent %d: %d completed, %d failed, %d queue-rejected (429), %d unavailable (503), %d errors, %d retried\n",
		rep.Sent, rep.Completed, rep.Failed, rep.Rejected429, rep.Unavailable503, rep.OtherErrors, rep.Retried)
	fmt.Printf("  throughput %.1f jobs/s\n", rep.ThroughputHz)
	if rep.Completed > 0 {
		fmt.Printf("  wall latency mean %v, p50 %v, p95 %v, p99 %v\n",
			rep.WallMean.Round(time.Microsecond), rep.WallP50.Round(time.Microsecond),
			rep.WallP95.Round(time.Microsecond), rep.WallP99.Round(time.Microsecond))
	}
	return nil
}
