package sched

import (
	"encoding/json"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// Timeline is the scheduler's scheduling surface: the current simulated
// time, plus deferred-callback scheduling for the repair process (see
// faults.go — a quarantined worker's return to service is the one
// scheduler-owned timeline event). sim.Engine implements it;
// internal/model substitutes a lightweight analytic timeline for
// engine-free fast-model runs.
type Timeline interface {
	Now() sim.Time
	// AfterArg schedules fn(arg) d after the current instant. Same-instant
	// callbacks run in scheduling order on every implementation, which is
	// what keeps cycle-backed and model-backed runs byte-identical.
	AfterArg(d sim.Time, fn func(any), arg any)
}

// BackendKind names an execution-backend implementation class.
type BackendKind int

// Backend kinds.
const (
	// BackendCycle is the cycle-level core.Adapter + efpga.Fabric
	// pairing: reprogramming runs through the adapter's real quiesce →
	// programming-engine → resume flow.
	BackendCycle BackendKind = iota
	// BackendModel is the calibrated analytic fast model
	// (internal/model): the same App service/reprogram charges without a
	// Dolly instance behind them.
	BackendModel
	// BackendCPU is the processor soft path: jobs execute as software at
	// a calibrated slowdown, with no bitstream and no reconfiguration.
	// CPU workers are spill capacity: whenever fabric-class workers
	// exist, only the Hybrid policy places on them (a pool with no
	// fabric workers serves under every policy).
	BackendCPU
	NumBackendKinds
)

func (k BackendKind) String() string {
	names := [...]string{"cycle", "model", "cpu"}
	if k < 0 || int(k) >= len(names) {
		return "unknown"
	}
	return names[k]
}

// MarshalJSON encodes the kind as its String name for machine-readable
// study output.
func (k BackendKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Backend is one execution engine behind a scheduler worker. The
// scheduler owns admission, policy and accounting; a backend owns how a
// placed job actually executes — the cycle-level adapter path, the
// calibrated analytic fast model, or the CPU soft path — including any
// reconfiguration the placement implies.
type Backend interface {
	// Kind reports the implementation class (placement policies use it
	// to tell spill-only CPU workers from fabric-class workers).
	Kind() BackendKind
	// Name is the display name used in per-worker statistics.
	Name() string
	// Capacity is the reconfigurable resource budget jobs are checked
	// against. Software backends report an unbounded budget.
	Capacity() efpga.Resources
	// Register adds an application bitstream to the backend's image
	// library. Registration is idempotent per bitstream.
	Register(bs *efpga.Bitstream) error
	// Resident reports the name of the installed bitstream ("" when
	// unprogrammed, or for backends with no configuration state).
	Resident() string
	// ServiceTime is the backend's analytic occupancy for one job of app
	// with the given input size — what placement estimates charge.
	ServiceTime(app *App, inputSize int) sim.Time
	// ReconfigCost estimates the cost of making app resident at this
	// instant: zero when it already is (or when the backend has no
	// configuration state).
	ReconfigCost(app *App) sim.Time
	// Bind attaches the backend to its scheduler: the post-configuration
	// settle time and the completion callback Dispatch must invoke
	// exactly once per job at its finish instant. Called once, before
	// any Dispatch.
	Bind(settleCycles int64, done func(*Job, error))
	// Dispatch occupies the backend with job j of app: it models any
	// reconfiguration (setting j.Reprogrammed) and the service time,
	// then invokes the bound done callback at the completion instant.
	Dispatch(j *Job, app *App)
}

// Scrubber is the optional backend surface the repair process uses for
// its probationary re-reprogram: Scrub discards the backend's resident
// configuration state, so the first placement after a repair pays the
// full reconfiguration cost (and can wedge again — a flapping fabric).
// Backends with no configuration state simply don't implement it.
type Scrubber interface {
	Scrub()
}

// unboundedCap is the capacity software backends report: every bitstream
// "fits" a processor.
const unboundedInt = int(^uint(0) >> 1)

// UnboundedResources is the capacity reported by backends with no
// reconfigurable fabric (the CPU soft path): any bitstream fits.
var UnboundedResources = efpga.Resources{LUTs: unboundedInt, FFs: unboundedInt, BRAMKb: unboundedInt, DSPs: unboundedInt}
