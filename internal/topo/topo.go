// Package topo runs protocols on arbitrary connected graphs (the
// paper's open problem 2 and the setting of the diameter-two and
// well-connected election papers in PAPERS.md).
//
// A graph.Graph is compiled once into a Topology — a compressed-sparse-
// row (CSR) port table, netsim.Ports — and Run executes on netsim's one
// delivery pipeline, which routes through the table instead of the
// clique's arithmetic wiring. Round structure, adversary contract,
// CONGEST accounting, digest schema and Tracer event stream are
// therefore the clique simulator's by construction. The clique itself
// is the Topology with no table (Clique); its compiled twin,
// graph.CliquePorts through Compile, is registered as a netsim.RunMode
// (CliqueMode), so the dst harness checks the table router against the
// arithmetic one on every system: byte-identical digests or the
// differential fails.
//
// The only model difference from netsim is the port space: node u has
// ports 1..Degree(u) following the topology instead of 1..n-1. Per-edge
// CONGEST is enforced identically — one message per port per round, a
// per-message budget of CongestFactor*ceil(log2 n) bits.
package topo

import (
	"fmt"

	"sublinear/internal/graph"
	"sublinear/internal/netsim"
)

// Topology is a compiled, immutable port-numbered adjacency: a named
// netsim.Ports table, or no table at all for the clique, which routes
// by arithmetic (peer = (u+p) mod n, arrival = n-p).
type Topology struct {
	n     int
	name  string
	ports *netsim.Ports // nil for the arithmetic clique
}

// Compile builds the CSR port table of g. Ports keep the graph's own
// numbering, so a protocol's execution on the compiled topology is
// identical to one driven through graph.Graph directly. Every port must
// have a reverse port leading back to its own node: replies travel on
// arrival ports, so a one-sided edge would deliver them elsewhere.
func Compile(g graph.Graph) (*Topology, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("topo: graph has %d nodes, need >= 2", n)
	}
	row := make([]int32, n+1)
	total := 0
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		if d < 1 {
			return nil, fmt.Errorf("topo: node %d has degree 0", u)
		}
		total += d
		row[u+1] = int32(total)
	}
	peer := make([]int32, total)
	aport := make([]int32, total)
	for u := 0; u < n; u++ {
		base := row[u]
		for i := base; i < row[u+1]; i++ {
			p := int(i-base) + 1
			v := g.Neighbor(u, p)
			if v < 0 || v >= n || v == u {
				return nil, fmt.Errorf("topo: Neighbor(%d,%d) = %d is invalid", u, p, v)
			}
			ap := g.PortOf(v, u)
			if ap < 1 || ap > int(row[v+1]-row[v]) || g.Neighbor(v, ap) != u {
				return nil, fmt.Errorf("topo: edge (%d,%d) has no reverse port", u, v)
			}
			peer[i] = int32(v)
			aport[i] = int32(ap)
		}
	}
	ports, err := netsim.NewPorts(row, peer, aport)
	if err != nil {
		return nil, err
	}
	return &Topology{n: n, name: g.Name(), ports: ports}, nil
}

// Clique returns the complete topology on n nodes with netsim's fixed
// port wiring (port p of u leads to (u+p) mod n). It stores no table:
// routing is pure arithmetic, the very code path of the clique
// simulator.
func Clique(n int) *Topology {
	return &Topology{n: n, name: "clique"}
}

// N returns the number of nodes.
func (t *Topology) N() int { return t.n }

// Name returns the topology's table label.
func (t *Topology) Name() string { return t.name }

// MaxDegree returns the maximum node degree.
func (t *Topology) MaxDegree() int {
	if t.ports == nil {
		return t.n - 1
	}
	return t.ports.MaxDegree()
}

// Degree returns the degree of node u — the number of its local ports.
func (t *Topology) Degree(u int) int {
	if t.ports == nil {
		return t.n - 1
	}
	return t.ports.Degree(u)
}

// Ports returns the total directed port count (twice the edge count).
func (t *Topology) Ports() int64 {
	if t.ports == nil {
		return int64(t.n) * int64(t.n-1)
	}
	return int64(t.ports.Len())
}

// Edge resolves port p of node u: the peer node and the arrival port the
// peer receives on. p must be in 1..Degree(u).
func (t *Topology) Edge(u, p int) (peer, arrival int) {
	if t.ports != nil {
		return t.ports.Edge(u, p)
	}
	if p < 1 || p > t.n-1 {
		panic(fmt.Sprintf("topo: port %d out of range [1,%d] at node %d", p, t.n-1, u))
	}
	v := u + p
	if v >= t.n {
		v -= t.n
	}
	return v, t.n - p
}

// Diameter returns the topology's diameter by breadth-first search from
// every node. It is an O(n * m) preprocessing helper for protocols whose
// round budget depends on the diameter (the well-connected election);
// compile-time, never on the per-round path.
func (t *Topology) Diameter() int {
	if t.ports == nil {
		return min(t.n-1, 1)
	}
	dist := make([]int32, t.n)
	queue := make([]int32, 0, t.n)
	diam := 0
	for s := 0; s < t.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := int(queue[head])
			diam = max(diam, int(dist[u]))
			for p := 1; p <= t.ports.Degree(u); p++ {
				v, _ := t.ports.Edge(u, p)
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, int32(v))
				}
			}
		}
	}
	return diam
}

// ResolveTopology builds a named topology at size n: the shared lookup
// for sweeps, benchmarks, and service job specs. Known names: "clique"
// (or empty), "cluster-d2", "star", "ring", "wellconnected", and
// "random-regular". seed parameterises the randomized families; the same
// (name, n, seed) always yields the same topology.
func ResolveTopology(name string, n int, seed uint64) (*Topology, error) {
	var (
		g   graph.Graph
		err error
	)
	switch name {
	case "", "clique":
		if n < 2 {
			return nil, fmt.Errorf("topo: n = %d, need >= 2", n)
		}
		return Clique(n), nil
	case "cluster-d2":
		g, err = graph.ClusterD2(n)
	case "star":
		g, err = graph.Star(n)
	case "ring":
		g, err = graph.Ring(n)
	case "wellconnected":
		g, err = graph.WellConnected(n, seed)
	case "random-regular":
		g, err = graph.RandomRegular(n, 4, seed)
	default:
		return nil, fmt.Errorf("topo: unknown topology %q", name)
	}
	if err != nil {
		return nil, err
	}
	return Compile(g)
}

// TopologyNames lists the names ResolveTopology accepts, in table order.
func TopologyNames() []string {
	return []string{"clique", "cluster-d2", "star", "ring", "wellconnected", "random-regular"}
}
