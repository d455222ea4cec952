package topo

import (
	"sublinear/internal/graph"
	"sublinear/internal/netsim"
)

// CliqueMode is the netsim.RunMode of the compiled clique:
// Execute(CliqueMode, cfg, ...) runs cfg.N nodes on
// Compile(graph.CliquePorts(cfg.N)) — the clique's wiring, routed
// through a CSR port table instead of the arithmetic router. Registered
// here (import this package to enable it) so every mode-parameterised
// caller — core, baseline, and above all the dst differential, which
// diffs it against the Sequential reference on every system — checks
// the table router against the arithmetic one. Digest byte-equality
// with the clique engines is the registration contract, pinned by the
// tests in this package and internal/dst. The table holds n(n-1) ports,
// so this mode is for differential sizes, not large n.
const CliqueMode netsim.RunMode = 4

func init() {
	netsim.RegisterEngine(CliqueMode, "topo", runClique)
}

func runClique(cfg netsim.Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	g, err := graph.CliquePorts(cfg.N)
	if err != nil {
		return nil, err
	}
	tp, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return netsim.ExecuteOn(tp.ports, cfg, machines, adv)
}
