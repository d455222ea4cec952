// Package cloud implements the communication-graph machinery of the
// paper's lower-bound proofs (Sections IV-B and V-B): initiators,
// influence clouds, cloud disjointness, and deciding trees.
//
// The lower bounds say that any algorithm sending o(sqrt(n)/alpha^{3/2})
// messages leaves, with constant probability, at least two influence
// clouds that never touch — and by a symmetry argument each such cloud is
// equally likely to elect a leader or decide a value, so the algorithm
// errs with constant probability. This package lets the experiments
// observe exactly that structure on real (message-starved) executions:
// E6 crushes the referee sample size and watches disjoint clouds appear
// as success probability collapses.
package cloud

import (
	"sort"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// Recorder captures the communication pattern of a clique run for the
// analysis: per ordered node pair, the first round a message crossed
// that edge, plus each node's first send and first receive rounds. It
// is a netsim.Tracer — pass it as Config.Tracer (core.RunConfig.Tracer,
// sublinear.Options.Tracer) — and like every tracer it sees the same
// event stream at every worker count, so the analysis does not depend
// on how the run was scheduled.
//
// Only delivered messages count: a message lost to its sender's crash
// neither marks a send nor crosses an edge. A message sent in round r
// is received in round r+1, so a receive is credited when round r+1
// opens, and only to a receiver that did not crash in any round <= r. A
// run cut off after round r therefore credits no receive for round r's
// messages.
type Recorder struct {
	n         int
	firstSend []int // 0 = never
	firstRecv []int // 0 = never
	crashed   []bool
	pending   []int // receivers of the current round's deliveries
	edges     map[[2]int]int
	order     [][2]int // edges in first-crossing order
}

// NewRecorder returns a recorder for an n-node clique run.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		n:         n,
		firstSend: make([]int, n),
		firstRecv: make([]int, n),
		crashed:   make([]bool, n),
		edges:     make(map[[2]int]int),
	}
}

// TraceRound credits the previous round's deliveries as receives.
func (r *Recorder) TraceRound(round int) {
	for _, v := range r.pending {
		if !r.crashed[v] && r.firstRecv[v] == 0 {
			r.firstRecv[v] = round
		}
	}
	r.pending = r.pending[:0]
}

// TraceCrash marks node as crashed: it steps in no later round.
func (r *Recorder) TraceCrash(node, _ int) { r.crashed[node] = true }

// TraceMessage records a delivered message's send and edge crossing.
func (r *Recorder) TraceMessage(sender, round, port int, _ metrics.Kind, _ int, dropped bool) {
	if dropped {
		return
	}
	v := netsim.Peer(r.n, sender, port)
	if r.firstSend[sender] == 0 {
		r.firstSend[sender] = round
	}
	key := [2]int{sender, v}
	if _, seen := r.edges[key]; !seen {
		r.edges[key] = round
		r.order = append(r.order, key)
	}
	if r.firstRecv[v] == 0 {
		r.pending = append(r.pending, v)
	}
}

// TraceViolation is ignored: a violating send is either dropped by the
// engine (bad port) or reported through TraceMessage as well.
func (r *Recorder) TraceViolation(int, int, string) {}

// TraceAnnotation is ignored.
func (r *Recorder) TraceAnnotation(int, int, string) {}

// TraceFinish is ignored: messages of the last round are never received.
func (r *Recorder) TraceFinish(int, int64, int64, uint64) {}

// N returns the number of nodes in the traced network.
func (r *Recorder) N() int { return r.n }

// FirstSend returns the round node u first sent a message, or 0 if never.
func (r *Recorder) FirstSend(u int) int { return r.firstSend[u] }

// FirstReceive returns the round node u first received a message (the
// round the message was in its inbox), or 0 if never.
func (r *Recorder) FirstReceive(u int) int { return r.firstRecv[u] }

// Edges calls fn for every directed edge (u, v) over which at least one
// message was delivered, with the round of the first crossing, in
// first-crossing order. Returning false stops the iteration.
func (r *Recorder) Edges(fn func(u, v, round int) bool) {
	for _, key := range r.order {
		if !fn(key[0], key[1], r.edges[key]) {
			return
		}
	}
}

// EdgeCount returns the number of distinct directed communication edges.
func (r *Recorder) EdgeCount() int { return len(r.edges) }

// Analysis summarises the communication structure of one traced run.
type Analysis struct {
	// Initiators are the nodes that sent a message before receiving any
	// ("not influenced before sending its first message").
	Initiators []int
	// Clouds holds one influence cloud per initiator, as sorted node
	// sets. Clouds[i] is the set reachable from Initiators[i] in the
	// directed communication graph.
	Clouds [][]int
	// Components is the number of weakly connected components of the
	// communication graph that contain at least one edge, plus isolated
	// senders.
	Components int
	// DisjointClouds is the number of clouds that share no node with any
	// other cloud — the event N of Lemma 5.
	DisjointClouds int
	// SmallestCloud is the size of the smallest cloud (0 if none).
	SmallestCloud int
	// TouchedNodes is the number of nodes that sent or received at least
	// one message.
	TouchedNodes int
}

// Analyze builds the influence-cloud structure from a recorded run.
func Analyze(t *Recorder) *Analysis {
	n := t.N()
	adj := make(map[int][]int)
	touched := make(map[int]bool)
	t.Edges(func(u, v, _ int) bool {
		adj[u] = append(adj[u], v)
		touched[u] = true
		touched[v] = true
		return true
	})

	a := &Analysis{TouchedNodes: len(touched)}
	for u := 0; u < n; u++ {
		fs := t.FirstSend(u)
		if fs == 0 {
			continue
		}
		fr := t.FirstReceive(u)
		if fr == 0 || fs < fr {
			a.Initiators = append(a.Initiators, u)
		}
	}

	for _, init := range a.Initiators {
		a.Clouds = append(a.Clouds, reach(adj, init))
	}

	// Disjointness: count clouds sharing no node with any other cloud.
	owner := make(map[int]int) // node -> count of clouds containing it
	for _, c := range a.Clouds {
		for _, v := range c {
			owner[v]++
		}
	}
	smallest := 0
	for _, c := range a.Clouds {
		disjoint := true
		for _, v := range c {
			if owner[v] > 1 {
				disjoint = false
				break
			}
		}
		if disjoint {
			a.DisjointClouds++
		}
		if smallest == 0 || len(c) < smallest {
			smallest = len(c)
		}
	}
	a.SmallestCloud = smallest
	a.Components = weakComponents(adj, touched)
	return a
}

// reach returns the sorted set of nodes reachable from start (inclusive)
// along directed edges.
func reach(adj map[int][]int, start int) []int {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// weakComponents counts weakly connected components among touched nodes.
func weakComponents(adj map[int][]int, touched map[int]bool) int {
	und := make(map[int][]int, len(adj))
	for u, vs := range adj {
		for _, v := range vs {
			und[u] = append(und[u], v)
			und[v] = append(und[v], u)
		}
	}
	seen := make(map[int]bool, len(touched))
	count := 0
	for u := range touched {
		if seen[u] {
			continue
		}
		count++
		stack := []int{u}
		seen[u] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range und[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	return count
}
