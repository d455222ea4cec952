package cloud

import (
	"fmt"
	"hash/fnv"
	"testing"

	"sublinear"
	"sublinear/internal/netsim"
)

// starMachine broadcasts to a fixed set of ports in round 1 if it is a
// hub; everyone else is silent.
type starMachine struct {
	hub   bool
	ports []int
	last  int
}

func (m *starMachine) Step(_ *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.last = round
	if !m.hub || round != 1 {
		return nil
	}
	out := make([]netsim.Send, 0, len(m.ports))
	for _, p := range m.ports {
		out = append(out, netsim.Send{Port: p, Payload: pl{}})
	}
	return out
}

func (m *starMachine) Done() bool  { return m.last >= 2 }
func (m *starMachine) Output() any { return nil }

type pl struct{}

func (pl) Bits(int) int { return 1 }
func (pl) Kind() string { return "p" }

// runStars builds an n-node network where each listed hub sends to the
// given ports, and returns the trace analysis.
func runStars(t *testing.T, n int, hubs map[int][]int) *Analysis {
	t.Helper()
	machines := make([]netsim.Machine, n)
	for u := range machines {
		machines[u] = &starMachine{hub: hubs[u] != nil, ports: hubs[u]}
	}
	return Analyze(record(t, netsim.Config{N: n, Alpha: 1, MaxRounds: 3}, machines))
}

// record runs the machines on the clique with a Recorder attached.
func record(t *testing.T, cfg netsim.Config, machines []netsim.Machine) *Recorder {
	t.Helper()
	rec := NewRecorder(cfg.N)
	cfg.Tracer = rec
	eng, err := netsim.NewEngine(cfg, machines, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestTwoDisjointStars(t *testing.T) {
	// Node 0 -> nodes 1,2 (ports 1,2); node 5 -> nodes 6,7 (ports 1,2).
	an := runStars(t, 10, map[int][]int{0: {1, 2}, 5: {1, 2}})
	if len(an.Initiators) != 2 {
		t.Fatalf("initiators = %v, want [0 5]", an.Initiators)
	}
	if an.DisjointClouds != 2 {
		t.Fatalf("disjoint clouds = %d, want 2", an.DisjointClouds)
	}
	if an.Components != 2 {
		t.Fatalf("components = %d, want 2", an.Components)
	}
	if an.SmallestCloud != 3 {
		t.Fatalf("smallest cloud = %d, want 3", an.SmallestCloud)
	}
	if an.TouchedNodes != 6 {
		t.Fatalf("touched = %d, want 6", an.TouchedNodes)
	}
}

func TestOverlappingClouds(t *testing.T) {
	// Node 0 -> node 2 (port 2); node 1 -> node 2 (port 1). Clouds {0,2}
	// and {1,2} intersect at 2.
	an := runStars(t, 5, map[int][]int{0: {2}, 1: {1}})
	if len(an.Initiators) != 2 {
		t.Fatalf("initiators = %v", an.Initiators)
	}
	if an.DisjointClouds != 0 {
		t.Fatalf("disjoint clouds = %d, want 0 (they share node 2)", an.DisjointClouds)
	}
	if an.Components != 1 {
		t.Fatalf("components = %d, want 1", an.Components)
	}
}

func TestSilentNetwork(t *testing.T) {
	an := runStars(t, 4, nil)
	if len(an.Initiators) != 0 || an.TouchedNodes != 0 || an.Components != 0 {
		t.Fatalf("silent network analysis: %+v", an)
	}
	if an.SmallestCloud != 0 {
		t.Fatalf("smallest cloud = %d, want 0", an.SmallestCloud)
	}
}

// chainMachine forwards the token: node 0 sends in round 1; any receiver
// forwards to its successor port in the next round.
type chainMachine struct {
	initiator bool
	last      int
	fired     bool
}

func (m *chainMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.last = round
	if m.initiator && round == 1 {
		m.fired = true
		return []netsim.Send{{Port: 1, Payload: pl{}}}
	}
	if len(inbox) > 0 && !m.fired && env.ID < env.N-1 {
		m.fired = true
		return []netsim.Send{{Port: 1, Payload: pl{}}}
	}
	return nil
}

func (m *chainMachine) Done() bool  { return m.last >= 1 && m.fired || m.last >= 8 }
func (m *chainMachine) Output() any { return nil }

func TestChainIsOneCloud(t *testing.T) {
	const n = 6
	machines := make([]netsim.Machine, n)
	for u := range machines {
		machines[u] = &chainMachine{initiator: u == 0}
	}
	an := Analyze(record(t, netsim.Config{N: n, Alpha: 1, MaxRounds: 10}, machines))
	// Only node 0 initiates; its influence cloud is the whole chain.
	if len(an.Initiators) != 1 || an.Initiators[0] != 0 {
		t.Fatalf("initiators = %v", an.Initiators)
	}
	if got := len(an.Clouds[0]); got != n {
		t.Fatalf("cloud size = %d, want %d", got, n)
	}
	if an.DisjointClouds != 1 {
		t.Fatalf("disjoint clouds = %d, want 1", an.DisjointClouds)
	}
}

func TestInitiatorDetectionWithReplies(t *testing.T) {
	// Node 0 pings node 1; node 1 replies (sends only after receiving),
	// so node 1 is NOT an initiator.
	machines := []netsim.Machine{
		&starMachine{hub: true, ports: []int{1}},
		&replyMachine{},
		&starMachine{},
	}
	an := Analyze(record(t, netsim.Config{N: 3, Alpha: 1, MaxRounds: 4}, machines))
	if len(an.Initiators) != 1 || an.Initiators[0] != 0 {
		t.Fatalf("initiators = %v, want [0]", an.Initiators)
	}
}

type replyMachine struct{ last int }

func (m *replyMachine) Step(_ *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.last = round
	var out []netsim.Send
	for _, d := range inbox {
		out = append(out, netsim.Send{Port: d.Port, Payload: pl{}})
	}
	return out
}

func (m *replyMachine) Done() bool  { return m.last >= 3 }
func (m *replyMachine) Output() any { return nil }

// fingerprint summarises a recording: the analysis figures plus a hash
// over every node's first send and first receive and the edges in
// first-crossing order.
func fingerprint(r *Recorder) string {
	h := fnv.New64a()
	for u := 0; u < r.N(); u++ {
		fmt.Fprintf(h, "%d:%d,%d;", u, r.FirstSend(u), r.FirstReceive(u))
	}
	r.Edges(func(u, v, round int) bool {
		fmt.Fprintf(h, "%d>%d@%d;", u, v, round)
		return true
	})
	an := Analyze(r)
	return fmt.Sprintf("edges=%d init=%d disjoint=%d smallest=%d touched=%d comps=%d fp=%#x",
		r.EdgeCount(), len(an.Initiators), an.DisjointClouds, an.SmallestCloud, an.TouchedNodes, an.Components, h.Sum64())
}

// TestRecorderGoldenValues pins the recordings of message-starved E6
// agreement runs, crashing DropHalf elections and runs cut off by
// MaxRounds. The values were first checked equal, field by field, to
// the engine's former built-in message trace; each protocol run is
// recorded on one worker and at the GOMAXPROCS default, which must
// agree.
func TestRecorderGoldenValues(t *testing.T) {
	both := func(t *testing.T, n int, run func(opts *sublinear.Options) error, opts sublinear.Options) string {
		t.Helper()
		var got [2]string
		for i, concurrent := range []bool{false, true} {
			rec := NewRecorder(n)
			opts.Tracer, opts.Concurrent = rec, concurrent
			if err := run(&opts); err != nil {
				t.Fatal(err)
			}
			got[i] = fingerprint(rec)
		}
		if got[0] != got[1] {
			t.Errorf("one worker %s, GOMAXPROCS %s", got[0], got[1])
		}
		return got[0]
	}
	const n = 512
	for _, tc := range []struct {
		s    float64
		seed uint64
		want string
	}{
		{0.5, 2049, "edges=4939 init=31 disjoint=0 smallest=509 touched=509 comps=1 fp=0x1e3142e32e215f50"},
		{0.5, 8200, "edges=6580 init=42 disjoint=0 smallest=512 touched=512 comps=1 fp=0xf953e432ec0e7801"},
		{0.125, 513, "edges=560 init=14 disjoint=0 smallest=234 touched=234 comps=1 fp=0xfe1b7068366bcdf"},
		{0.125, 6664, "edges=400 init=10 disjoint=0 smallest=180 touched=180 comps=1 fp=0xcb2dd7f721a83891"},
		{0.125, 12815, "edges=279 init=7 disjoint=0 smallest=129 touched=129 comps=1 fp=0x88ec0b95e9a8b48a"},
	} {
		// E6's agreement configuration (internal/experiment, runE6).
		opts := sublinear.Options{
			N: n, Alpha: 0.5, Seed: tc.seed,
			Tuning: sublinear.Tuning{CandidateFactor: 6 * tc.s, RefereeFactor: 2 * tc.s},
			Faults: &sublinear.FaultModel{Faulty: n / 2, Policy: sublinear.DropHalf},
		}
		inputs := sublinear.RandomInputs(n, 0.5, tc.seed^0xfeed)
		got := both(t, n, func(o *sublinear.Options) error { _, err := sublinear.Agree(*o, inputs); return err }, opts)
		if got != tc.want {
			t.Errorf("E6 s=%v seed=%d: %s, want %s", tc.s, tc.seed, got, tc.want)
		}
	}
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{1, "edges=41593 init=88 disjoint=0 smallest=1024 touched=1024 comps=1 fp=0x5478bdadfba75b94"},
		{2, "edges=35079 init=74 disjoint=0 smallest=1024 touched=1024 comps=1 fp=0x53f35c46aaf3cefd"},
	} {
		opts := sublinear.Options{N: 1024, Alpha: 0.5, Seed: tc.seed,
			Faults: &sublinear.FaultModel{Faulty: 512, Policy: sublinear.DropHalf}}
		got := both(t, 1024, func(o *sublinear.Options) error { _, err := sublinear.Elect(*o); return err }, opts)
		if got != tc.want {
			t.Errorf("crashing election seed=%d: %s, want %s", tc.seed, got, tc.want)
		}
	}
	// A chain cut off after round r leaves round r's message unreceived.
	for _, tc := range []struct {
		rounds int
		want   string
	}{
		{2, "edges=2 init=1 disjoint=1 smallest=3 touched=3 comps=1 fp=0x76a422363e3a6bdc"},
		{3, "edges=3 init=1 disjoint=1 smallest=4 touched=4 comps=1 fp=0x5cb07221e46319b5"},
		{4, "edges=4 init=1 disjoint=1 smallest=5 touched=5 comps=1 fp=0x9ac30d9364b0f7f5"},
	} {
		machines := make([]netsim.Machine, 6)
		for u := range machines {
			machines[u] = &chainMachine{initiator: u == 0}
		}
		rec := record(t, netsim.Config{N: 6, Alpha: 1, MaxRounds: tc.rounds}, machines)
		if got := fingerprint(rec); got != tc.want {
			t.Errorf("chain MaxRounds=%d: %s, want %s", tc.rounds, got, tc.want)
		}
		if rec.FirstReceive(tc.rounds) != 0 {
			t.Errorf("chain MaxRounds=%d: node %d credited a receive in a round that never ran", tc.rounds, tc.rounds)
		}
	}
}
