package netsim

import "fmt"

// Ports is a compiled port table: the routing of an arbitrary network,
// in compressed-sparse-row form. For every node u
// and local port p in 1..Degree(u) it stores the peer behind the port
// and the arrival port on which the peer receives, both resolved ahead
// of the run, so routing a message costs two int32 loads.
//
// The delivery pipeline routes through a table when one is given
// (ExecuteOn) and through the clique's arithmetic wiring otherwise —
// one pipeline serves both. internal/topo compiles and validates tables
// from graphs; a Ports is immutable once built.
type Ports struct {
	row    []int32 // len n+1; node u's entries occupy [row[u], row[u+1])
	peer   []int32 // peer[row[u]+p-1] is the node behind port p of u
	aport  []int32 // aport[row[u]+p-1] is the arrival port at that peer
	maxDeg int
}

// NewPorts wraps CSR arrays as a port table and takes ownership of
// them. The arrays must describe a symmetric numbering: if port p of u
// leads to v arriving on port a, then port a of v leads back to u.
// NewPorts checks only the shape; topo.Compile builds checked tables.
func NewPorts(row, peer, aport []int32) (*Ports, error) {
	if len(row) < 2 || row[0] != 0 || int(row[len(row)-1]) != len(peer) || len(aport) != len(peer) {
		return nil, fmt.Errorf("netsim: malformed port table (%d rows, %d peers, %d arrival ports)",
			len(row)-1, len(peer), len(aport))
	}
	t := &Ports{row: row, peer: peer, aport: aport}
	for u := 0; u+1 < len(row); u++ {
		t.maxDeg = max(t.maxDeg, t.Degree(u))
	}
	return t, nil
}

// N returns the number of nodes.
func (t *Ports) N() int { return len(t.row) - 1 }

// MaxDegree returns the largest port count of any node.
func (t *Ports) MaxDegree() int { return t.maxDeg }

// Degree returns the number of local ports of node u.
func (t *Ports) Degree(u int) int { return int(t.row[u+1] - t.row[u]) }

// Edge resolves port p of node u: the peer node and the arrival port
// the peer receives on. It panics on out-of-range ports.
func (t *Ports) Edge(u, p int) (peer, arrival int) {
	if p < 1 || p > t.Degree(u) {
		panic(fmt.Sprintf("netsim: port %d out of range [1,%d] at node %d", p, t.Degree(u), u))
	}
	i := t.row[u] + int32(p) - 1
	return int(t.peer[i]), int(t.aport[i])
}

// Len returns the total directed port count (twice the edge count).
func (t *Ports) Len() int { return len(t.peer) }
