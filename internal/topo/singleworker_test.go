package topo

import (
	"strings"
	"testing"

	"sublinear/internal/graph"
	"sublinear/internal/netsim"
)

// The tests in this file run general graphs on a single worker, the
// configuration internal/walks uses. Workers: 1 steps every machine on
// the calling goroutine, so machines may share state across nodes; the
// machines below do (a shared counter or a slice of per-node records).

// runSingle compiles g and runs the machines on one worker.
func runSingle(g graph.Graph, cfg Config, machines []netsim.Machine, adv netsim.Adversary) (*netsim.Result, error) {
	tp, err := Compile(g)
	if err != nil {
		return nil, err
	}
	cfg.Topology, cfg.Workers = tp, 1
	return Run(cfg, machines, adv)
}

type idPayload struct{ id int }

func (idPayload) Bits(int) int { return 4 }
func (idPayload) Kind() string { return "p" }

// funcMachine runs step every round and is done as soon as it is asked.
type funcMachine struct {
	step func(*netsim.Env, int, []netsim.Delivery) []netsim.Send
}

func (m *funcMachine) Step(env *netsim.Env, round int, in []netsim.Delivery) []netsim.Send {
	return m.step(env, round, in)
}
func (m *funcMachine) Done() bool  { return true }
func (m *funcMachine) Output() any { return nil }

// crashAt crashes node in every round from round on, delivering only
// outbox index 0 of the crash round.
type crashAt struct{ node, round int }

func (c crashAt) Faulty(u int) bool                              { return u == c.node }
func (c crashAt) CrashNow(u, r int, _ []netsim.Send) bool        { return u == c.node && r >= c.round }
func (c crashAt) DeliverOnCrash(_, _, i int, _ netsim.Send) bool { return i == 0 }

func TestSingleWorkerDeliversAlongTopology(t *testing.T) {
	g, err := graph.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	// seen[u] records node u's arrival ports.
	seen := make([][]int, 6)
	machines := make([]netsim.Machine, 6)
	for u := range machines {
		u := u
		machines[u] = &funcMachine{step: func(env *netsim.Env, round int, in []netsim.Delivery) []netsim.Send {
			if u == 3 && round == 1 {
				var out []netsim.Send
				for p := 1; p <= env.Deg; p++ {
					out = append(out, netsim.Send{Port: p, Payload: idPayload{id: env.ID}})
				}
				return out
			}
			for _, d := range in {
				seen[u] = append(seen[u], d.Port)
			}
			return nil
		}}
	}
	res, err := runSingle(g, Config{Alpha: 1, MaxRounds: 4}, machines, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3's flood reaches exactly its two ring neighbors, 2 and 4.
	if res.Counters.Messages() != 2 {
		t.Fatalf("messages = %d, want 2 (ring degree)", res.Counters.Messages())
	}
	for u, ports := range seen {
		wantRecv := u == 2 || u == 4
		if (len(ports) == 1) != wantRecv {
			t.Fatalf("node %d received %d messages", u, len(ports))
		}
		// The arrival port must lead back to node 3.
		if wantRecv && g.Neighbor(u, ports[0]) != 3 {
			t.Fatalf("node %d arrival port %d does not lead to 3", u, ports[0])
		}
	}
}

func TestSingleWorkerEnvDegree(t *testing.T) {
	g, err := graph.Torus(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	degSeen := make([]int, g.N())
	machines := make([]netsim.Machine, g.N())
	for u := range machines {
		u := u
		machines[u] = &funcMachine{step: func(env *netsim.Env, _ int, _ []netsim.Delivery) []netsim.Send {
			degSeen[u] = env.Deg
			return nil
		}}
	}
	if _, err := runSingle(g, Config{Alpha: 1, MaxRounds: 1}, machines, nil); err != nil {
		t.Fatal(err)
	}
	for u, d := range degSeen {
		if d != 4 {
			t.Fatalf("node %d saw Deg=%d, want 4", u, d)
		}
	}
}

func TestSingleWorkerPortValidation(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	machines := func() []netsim.Machine {
		ms := make([]netsim.Machine, 4)
		for u := range ms {
			ms[u] = &funcMachine{step: func(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
				if env.ID == 0 && round == 1 {
					return []netsim.Send{{Port: 3, Payload: idPayload{}}} // degree is 2
				}
				return nil
			}}
		}
		return ms
	}
	_, err = runSingle(g, Config{Alpha: 1, MaxRounds: 2, Strict: true}, machines(), nil)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
	// Non-strict records it instead.
	res, err := runSingle(g, Config{Alpha: 1, MaxRounds: 2}, machines(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations: %+v", res.Violations)
	}
}

func TestSingleWorkerCrashFiltering(t *testing.T) {
	g, err := graph.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	machines := make([]netsim.Machine, 5)
	for u := range machines {
		machines[u] = &funcMachine{step: func(env *netsim.Env, round int, in []netsim.Delivery) []netsim.Send {
			received += len(in)
			if env.ID == 0 && round == 1 {
				out := make([]netsim.Send, env.Deg)
				for p := 1; p <= env.Deg; p++ {
					out[p-1] = netsim.Send{Port: p, Payload: idPayload{}}
				}
				return out
			}
			return nil
		}}
	}
	res, err := runSingle(g, Config{Alpha: 0.5, MaxRounds: 3}, machines, crashAt{node: 0, round: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashedAt[0] != 1 {
		t.Fatalf("CrashedAt = %v", res.CrashedAt)
	}
	// All 4 sends counted, only outbox index 0 delivered.
	if res.Counters.Messages() != 4 {
		t.Fatalf("messages = %d", res.Counters.Messages())
	}
	if received != 1 {
		t.Fatalf("received = %d, want 1", received)
	}
}

func TestSingleWorkerValidation(t *testing.T) {
	g, err := graph.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSingle(g, Config{MaxRounds: 1}, make([]netsim.Machine, 3), nil); err == nil {
		t.Error("machine count mismatch accepted")
	}
	if _, err := runSingle(g, Config{}, make([]netsim.Machine, 4), nil); err == nil {
		t.Error("MaxRounds 0 accepted")
	}
	if _, err := Run(Config{MaxRounds: 1, Workers: 1}, nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
}
