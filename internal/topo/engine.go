package topo

import (
	"fmt"

	"sublinear/internal/netsim"
)

// Config parameterises a topology-general run. It mirrors netsim.Config
// with the node count replaced by a Topology; semantics of every shared
// field are identical, including the default CONGEST factor of 8, so the
// clique instance reproduces netsim executions bit-for-bit.
type Config struct {
	// Topology is the compiled network. Required.
	Topology *Topology
	// Alpha is the guaranteed non-faulty fraction, exposed via Env.
	Alpha float64
	// Seed derives every node's private coins (rng.New(Seed).Split(id),
	// the same derivation as every other engine).
	Seed uint64
	// MaxRounds caps the execution. Required, >= 1.
	MaxRounds int
	// CongestFactor c sets the per-message budget to c*ceil(log2 n) bits;
	// zero selects netsim's default of 8.
	CongestFactor int
	// Strict aborts the run on CONGEST violations instead of recording
	// them.
	Strict bool
	// Workers sizes the sharded pipeline. Zero selects
	// runtime.GOMAXPROCS(0); 1 runs the whole pipeline inline on the
	// calling goroutine. Digests are identical at every worker count.
	Workers int
	// Tracer, when non-nil, receives the run's typed event stream under
	// the netsim.Tracer contract (deterministic order, coordination
	// thread only).
	Tracer netsim.Tracer
}

// Run executes machines on cfg.Topology under the adversary (nil means
// no faults) on netsim's delivery pipeline, routed through the
// topology's port table (netsim.ExecuteOn). The Result's Digest follows
// the shared schema: for a clique topology it is byte-equal to the
// netsim engines' digest of the same (n, seed, machines, adversary) run.
func Run(cfg Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	t := cfg.Topology
	if t == nil {
		return nil, fmt.Errorf("topo: config Topology is required")
	}
	return netsim.ExecuteOn(t.ports, netsim.Config{
		N:             t.n,
		Alpha:         cfg.Alpha,
		Seed:          cfg.Seed,
		MaxRounds:     cfg.MaxRounds,
		CongestFactor: cfg.CongestFactor,
		Strict:        cfg.Strict,
		Workers:       cfg.Workers,
		Tracer:        cfg.Tracer,
	}, machines, adv)
}
