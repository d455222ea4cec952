package netsim

import (
	"fmt"

	"sublinear/internal/metrics"
	"sublinear/internal/rng"
)

// Engine executes a set of machines under the synchronous crash-fault
// model. Construct with NewEngine and call Run once.
type Engine struct {
	cfg      Config
	machines []Machine
	adv      Adversary

	envs      []*Env
	crashedAt []int
	ports     *Ports // nil: the clique's arithmetic wiring

	counters   metrics.Counters
	violations []Violation
	bitBudget  int
	digest     digest

	// Concurrent selects the Parallel run mode; Mode overrides it when
	// set. Semantics are identical across modes; tests assert
	// equivalence.
	Concurrent bool
	// Mode selects the run mode: Sequential (default, a pure
	// single-threaded reference pipeline) or Parallel (the sharded
	// worker-pool pipeline). Actors is a compatibility alias for
	// Parallel; see the RunMode docs.
	Mode RunMode
}

// NewEngine validates the configuration and prepares an engine. machines
// must have length cfg.N. adv may be nil, meaning no faults.
func NewEngine(cfg Config, machines []Machine, adv Adversary) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(machines) != cfg.N {
		return nil, fmt.Errorf("netsim: %d machines for N=%d", len(machines), cfg.N)
	}
	for u, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("netsim: machine %d is nil", u)
		}
	}
	if adv == nil {
		adv = NoFaults{}
	}
	e := &Engine{
		cfg:       cfg,
		machines:  machines,
		adv:       adv,
		envs:      make([]*Env, cfg.N),
		crashedAt: make([]int, cfg.N),
		bitBudget: cfg.bitBudget(),
		digest:    newDigest(),
	}
	e.counters.ReserveRounds(cfg.MaxRounds)
	e.counters.ReserveKinds(metrics.KindCount())
	root := rng.New(cfg.Seed)
	// One backing array for all Envs: at large n the per-node environments
	// are a noticeable slice of construction cost, and a single contiguous
	// block both halves the allocation count and keeps the step phase's
	// env loads local.
	envs := make([]Env, cfg.N)
	for u := 0; u < cfg.N; u++ {
		envs[u] = Env{N: cfg.N, ID: u, Alpha: cfg.Alpha, Rand: root.Split(uint64(u)), Deg: cfg.N - 1, tracing: cfg.Tracer != nil}
		e.envs[u] = &envs[u]
	}
	return e, nil
}

// ExecuteOn runs one execution routed through a compiled port table
// instead of the clique wiring: node u's ports are 1..ports.Degree(u),
// Env.Deg reports that degree, and a validated port resolves through
// the table. It runs the Parallel pipeline at cfg.Workers; everything
// but the routing — round structure, adversary calls, CONGEST checks,
// digest folds and the Tracer stream — is the clique's. A nil table is
// the clique itself, the same run as Execute(Parallel, ...).
func ExecuteOn(ports *Ports, cfg Config, machines []Machine, adv Adversary) (*Result, error) {
	if ports != nil && ports.N() != cfg.N {
		return nil, fmt.Errorf("netsim: port table has %d nodes for N=%d", ports.N(), cfg.N)
	}
	e, err := NewEngine(cfg, machines, adv)
	if err != nil {
		return nil, err
	}
	if ports != nil {
		e.ports = ports
		for u, env := range e.envs {
			env.Deg = ports.Degree(u)
		}
	}
	e.Mode = Parallel
	return e.Run()
}

// Run executes rounds until every live machine is done and no messages
// are in flight, or MaxRounds elapses. It returns an error only for
// model violations in strict mode.
//
// Every round delivers the previous round's messages, steps each live
// machine that is awake (see Sleeper), decides crashes, and processes
// the new outboxes — all on the sharded pipeline (see shard.go).
// Adversary calls stay on the coordination thread in node order, the
// per-message work fans out over the worker pool, and everything
// order-sensitive folds back in node order at the round barrier, so
// results are identical across modes and worker counts. In rounds
// where no crash can occur — no live faulty node remains, a
// CrashLister lists no node for the round, or a CrashPlanner adversary
// has published a crash-free window — the three pipeline stages fuse
// into a single dispatch, so the steady state pays one barrier per
// round instead of three. Every stage visits only the round's awake
// nodes — those with deliveries, machines that do not implement Sleeper,
// and sleepers whose wake round has come — so a round costs time in
// proportion to its activity rather than to n.
func (e *Engine) Run() (*Result, error) {
	n := e.cfg.N
	mode := e.Mode
	if mode == Sequential && e.Concurrent {
		mode = Parallel
	}
	if mode == Actors {
		// The one-goroutine-per-node actors engine is retired; Actors is a
		// compatibility alias for the sharded pipeline (see RunMode).
		mode = Parallel
	}
	workers := e.cfg.workerCount()
	if mode == Sequential {
		// The sequential engine stays a pure single-threaded reference
		// implementation: same pipeline, one inline shard, no goroutines.
		workers = 1
	}
	pipe := newPipeline(e, workers)
	defer pipe.close()

	// The faulty set is static (see Adversary), so it is consulted once
	// up front. liveFaulty tracks how many faulty nodes have yet to
	// crash: when it reaches zero no adversary call can change the
	// execution and every remaining round runs on the fused path.
	for u := 0; u < n; u++ {
		if e.adv.Faulty(u) {
			pipe.faulty[u] = true
			pipe.liveFaulty = append(pipe.liveFaulty, int32(u))
		}
	}
	liveFaulty := len(pipe.liveFaulty)
	lister, _ := e.adv.(CrashLister)
	planner, _ := e.adv.(CrashPlanner)
	windowEnd := 0 // first round that needs a crash pass; recompute when reached

	for round := 1; round <= e.cfg.MaxRounds; round++ {
		e.counters.BeginRound(round)
		e.digest.words(digestRound, uint64(round))
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.TraceRound(round)
		}

		crashPossible := liveFaulty > 0
		var listed []int
		switch {
		case !crashPossible:
		case lister != nil:
			listed = lister.CrashesIn(round)
			crashPossible = len(listed) > 0
		case planner != nil:
			if round >= windowEnd {
				windowEnd = planner.NextCrashRound(round)
				if windowEnd < round {
					windowEnd = round
				}
			}
			crashPossible = round >= windowEnd
		}

		if crashPossible {
			pipe.deliverStep(round)
			liveFaulty -= pipe.crashPass(round, listed)
			pipe.senders(round)
		} else {
			pipe.fusedRound(round)
		}

		inFlight, err := pipe.merge(round)
		if err != nil {
			return nil, err
		}
		if !inFlight && pipe.quiet() {
			break
		}
	}
	return e.result(), nil
}

// emptyOutbox distinguishes "stepped, sent nothing" from "did not step".
var emptyOutbox = make([]Send, 0)

func (e *Engine) result() *Result {
	e.digest.words(digestOutcome, uint64(e.counters.Rounds()), uint64(e.counters.Messages()), uint64(e.counters.Bits()))
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.TraceFinish(e.counters.Rounds(), e.counters.Messages(), e.counters.Bits(), e.digest.h)
	}
	res := &Result{
		Digest:     e.digest.h,
		Outputs:    make([]any, e.cfg.N),
		CrashedAt:  append([]int(nil), e.crashedAt...),
		Faulty:     make([]bool, e.cfg.N),
		Rounds:     e.counters.Rounds(),
		Counters:   &e.counters,
		Violations: e.violations,
	}
	for u, m := range e.machines {
		res.Outputs[u] = m.Output()
		res.Faulty[u] = e.adv.Faulty(u)
	}
	return res
}
