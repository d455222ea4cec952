package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sublinear"
	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/simsvc"
	"sublinear/internal/topo"
)

func TestQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median(nil) = %v, want NaN", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{999, 99, false, 0},      // 9.99 samples beyond p99
		{1000, 99, true, 990.01}, // exactly 10 beyond
		{99, 90, false, 0},
		{100, 90, true, 90.1},
		{5000, 99, true, 4950.01},
	} {
		got, ok := tailPercentile(seq(tc.n), tc.p)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%v of 1..%d = (%v, %v), want (%v, %v)", tc.p, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	m := map[string]float64{}
	tail(m, "x", seq(500), 99)
	if _, ok := m["x"]; ok || m["x.count"] != 500 {
		t.Errorf("tail on 500 samples set %v; want only x.count=500", m)
	}
}

func TestClassifyRounds(t *testing.T) {
	durs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		lastCrash    int
		split, fused int
	}{
		{0, 0, 5}, // fault-free: every round fused
		{2, 2, 3}, // crash pass through round 2
		{5, 5, 0},
		{9, 5, 0}, // a crash round past the end cannot split more than ran
	} {
		s, f := classifyRounds(durs, tc.lastCrash)
		if len(s) != tc.split || len(f) != tc.fused {
			t.Errorf("lastCrash %d: %d split, %d fused; want %d, %d", tc.lastCrash, len(s), len(f), tc.split, tc.fused)
		}
		if len(s) > 0 && s[len(s)-1] != float64(len(s)) {
			t.Errorf("lastCrash %d: split ends with round %v", tc.lastCrash, s[len(s)-1])
		}
	}
}

// token is the scripted machines' payload.
type token struct{}

func (token) Bits(int) int { return 1 }
func (token) Kind() string { return "token" }

// scripted sends to fixed target nodes in fixed rounds; port resolves a
// target to the sender's port on the router under test.
type scripted struct {
	u     int
	sends map[int][]int // round -> targets
	port  func(u, v int) int
	last  int
}

func (m *scripted) Step(_ *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	var out []netsim.Send
	for _, v := range m.sends[round] {
		out = append(out, netsim.Send{Port: m.port(m.u, v), Payload: token{}})
	}
	m.last = round
	return out
}
func (m *scripted) Done() bool  { return m.last >= 2 }
func (m *scripted) Output() any { return nil }

// The hand-checked scenario on 4 nodes, possible on both the clique and
// the 4-ring 0-1-2-3-0:
//
//	round 1: 2 -> 1
//	round 2: 0 -> 1, 1 -> 2 (node 1 also receives 2's message)
//	round 3: 1 and 2 receive
//
// Active node-rounds: (2,1); (0,2), (1,2) counted once although node 1
// both receives and sends; (1,3), (2,3). That is 5 of 4 nodes x 3
// rounds. Node 1's receive mark for round 3 lands before its own round-2
// send is traced, which a single last-round stamp would double count.
func scenario(port func(u, v int) int) []netsim.Machine {
	sends := []map[int][]int{
		0: {2: {1}},
		1: {2: {2}},
		2: {1: {1}},
		3: {},
	}
	ms := make([]netsim.Machine, 4)
	for u := range ms {
		ms[u] = &scripted{u: u, sends: sends[u], port: port}
	}
	return ms
}

func checkActive(t *testing.T, tr *roundTracer) {
	t.Helper()
	if tr.rounds != 3 || tr.msgs != 3 {
		t.Fatalf("run had %d rounds and %d messages, want 3 and 3", tr.rounds, tr.msgs)
	}
	if got := tr.activeNodeRounds(); got != 5 {
		t.Errorf("active node-rounds = %d, want 5 (per round %v)", got, tr.active)
	}
	m := map[string]float64{}
	activeFrac(m, []*roundTracer{tr})
	if got := m["netsim.active_node_frac"]; got != 5.0/12 {
		t.Errorf("active_node_frac = %v, want 5/12", got)
	}
}

func TestActiveNodesThroughPeer(t *testing.T) {
	const n = 4
	tr := newRoundTracer(n, func(u, p int) int { return netsim.Peer(n, u, p) }, nil, 0, "")
	port := func(u, v int) int { return (v - u + n) % n }
	_, err := netsim.Execute(netsim.Sequential, netsim.Config{N: n, Alpha: 1, Seed: 1, MaxRounds: 10, Tracer: tr}, scenario(port), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkActive(t, tr)
}

func TestActiveNodesThroughEdge(t *testing.T) {
	tp, err := topo.ResolveTopology("ring", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newRoundTracer(4, func(u, p int) int { v, _ := tp.Edge(u, p); return v }, nil, 0, "")
	port := func(u, v int) int {
		for p := 1; p <= tp.Degree(u); p++ {
			if w, _ := tp.Edge(u, p); w == v {
				return p
			}
		}
		t.Fatalf("no edge %d-%d on the ring", u, v)
		return 0
	}
	_, err = topo.Run(topo.Config{Topology: tp, Alpha: 1, Seed: 1, MaxRounds: 10, Workers: 1, Tracer: tr}, scenario(port), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkActive(t, tr)
}

func TestWrapAdversaryForwardsCrashPlanner(t *testing.T) {
	plan, err := crashPlan(256, 64, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped, _ := wrapAdversary(plan); isPlanner(wrapped) {
		t.Error("wrapper of a fault.Plan (no CrashPlanner) exposes NextCrashRound")
	}
	sched, err := fault.Schedule{N: 8, Crashes: []fault.Crash{{Node: 1, Round: 4, Policy: fault.DropAll}}}.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _ := wrapAdversary(sched)
	p, ok := wrapped.(netsim.CrashPlanner)
	if !ok {
		t.Fatal("wrapper of a ScheduleAdversary hides its CrashPlanner")
	}
	if got, want := p.NextCrashRound(1), sched.NextCrashRound(1); got != want {
		t.Errorf("NextCrashRound(1) = %d, inner says %d", got, want)
	}
}

func isPlanner(a netsim.Adversary) bool {
	_, ok := a.(netsim.CrashPlanner)
	return ok
}

// TestCrashPlanMatchesElect pins the faithful-wrapper argument at a small
// size: the benchmark's crash plan is the adversary sublinear.Elect
// builds for FaultModel{Faulty: f}, and wrapping it and tracing the run
// changes nothing the digest sees.
func TestCrashPlanMatchesElect(t *testing.T) {
	const n, f, alpha, seed = 1024, 512, 0.5, 7
	want, err := sublinear.Elect(sublinear.Options{N: n, Alpha: alpha, Seed: seed, Faults: &sublinear.FaultModel{Faulty: f}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := crashPlan(n, f, alpha, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunElection(core.RunConfig{N: n, Alpha: alpha, Seed: seed, Adversary: plan, Mode: netsim.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != want.Digest {
		t.Fatalf("crash plan digest %x, sublinear.Elect %x", got.Digest, want.Digest)
	}

	plan, err = crashPlan(n, f, alpha, seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, counts := wrapAdversary(plan)
	tr := newRoundTracer(n, func(u, p int) int { return netsim.Peer(n, u, p) }, nil, 0, "test")
	traced, err := core.RunElection(core.RunConfig{N: n, Alpha: alpha, Seed: seed, Adversary: adv, Tracer: tr, Mode: netsim.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Digest != want.Digest {
		t.Errorf("traced digest %x, untraced %x", traced.Digest, want.Digest)
	}
	if err := tr.check(traced.Counters.Messages(), traced.Rounds, traced.Digest); err != nil {
		t.Error(err)
	}
	if counts.crashes == 0 || counts.crashes != tr.crashes {
		t.Errorf("adversary decided %d crashes, tracer saw %d", counts.crashes, tr.crashes)
	}
	if counts.calls <= counts.crashes {
		t.Errorf("%d adversary calls for %d crashes", counts.calls, counts.crashes)
	}
}

// TestSpanTree checks the traced run's hierarchy on the scripted run:
// workload, repetition, layer call, then one span per round, all closed
// and all sharing the repetition's trace ID below the workload.
func TestSpanTree(t *testing.T) {
	const n = 4
	l := newSpanLog(time.Now())
	root := l.begin("workload", 0, "workload")
	rep := l.begin("rep 0", root, "workload/rep0")
	call := l.begin("call", rep, "workload/rep0")
	tr := newRoundTracer(n, func(u, p int) int { return netsim.Peer(n, u, p) }, l, call, "workload/rep0")
	port := func(u, v int) int { return (v - u + n) % n }
	if _, err := netsim.Execute(netsim.Sequential, netsim.Config{N: n, Alpha: 1, Seed: 1, MaxRounds: 10, Tracer: tr}, scenario(port), nil); err != nil {
		t.Fatal(err)
	}
	l.end(call)
	l.end(rep)
	l.end(root)
	if len(l.spans) != 3+3 {
		t.Fatalf("%d spans, want workload, rep, call and 3 rounds", len(l.spans))
	}
	for _, s := range l.spans {
		if s.End < s.Start || s.End == 0 {
			t.Errorf("span %q not closed: %d..%d", s.Name, s.Start, s.End)
		}
		if strings.HasPrefix(s.Name, "round") && (s.Parent != call || s.Trace != "workload/rep0") {
			t.Errorf("span %q has parent %d trace %q", s.Name, s.Parent, s.Trace)
		}
	}
}

// TestSimdRepetition runs one simd-jobs repetition untraced and one
// traced against fresh services on the replayed journal: both clients at
// once, every check passing, the pinned digests reproduced, and the
// per-layer metrics scraped.
func TestSimdRepetition(t *testing.T) {
	chdirTemp(t)
	s := &simdJobs{}
	defer s.close()
	open := func() {
		t.Helper()
		if err := s.stage(defaultSeed); err != nil {
			t.Fatal(err)
		}
		if err := s.setup(defaultSeed); err != nil {
			t.Fatal(err)
		}
	}
	open()
	untraced := s.rep(0, nil, 0, "")
	s.close()
	open()
	l := newSpanLog(time.Now())
	traced := s.rep(0, l, 0, "rep0")
	for _, rr := range []repResult{untraced, traced} {
		if len(rr.failures) > 0 {
			t.Fatalf("failures: %v", rr.failures)
		}
		if !equalDigests(rr.digests, pins["simd-jobs"]) {
			t.Errorf("digests %x, pinned %x", rr.digests, pins["simd-jobs"])
		}
	}
	if want := int64(interactiveJobs + fleetBatches*fleetBatchSize); untraced.attempted != want {
		t.Errorf("attempted %d jobs, want %d", untraced.attempted, want)
	}
	m, bad := s.perLayer([]repResult{untraced}, []repResult{traced})
	if len(bad) > 0 {
		t.Fatalf("per-layer checks: %v", bad)
	}
	if m["simsvc.cache_hit_frac"] <= 0 || m["simsvc.rejected"] != 0 {
		t.Errorf("cache_hit_frac %v, rejected %v", m["simsvc.cache_hit_frac"], m["simsvc.rejected"])
	}
	if f := m["simsvc.overlap_frac"]; f <= 0 || f > 1 {
		t.Errorf("overlap_frac %v", f)
	}
	byID := map[int]span{}
	for _, sp := range l.spans {
		byID[sp.ID] = sp
	}
	for _, sp := range l.spans {
		if p, ok := byID[sp.Parent]; ok && p.Name == "job" && p.Trace != sp.Trace {
			t.Errorf("span %q of job %q carries trace %q", sp.Name, p.Trace, sp.Trace)
		}
		if sp.End < sp.Start {
			t.Errorf("span %q not closed", sp.Name)
		}
	}
}

// TestSimdResubmissionChecks: a spec marked as a resubmission must come
// back from the cache, and one not marked must not, on both the single
// and the batch path.
func TestSimdResubmissionChecks(t *testing.T) {
	chdirTemp(t)
	s := &simdJobs{}
	defer s.close()
	if err := s.stage(defaultSeed); err != nil {
		t.Fatal(err)
	}
	if err := s.setup(defaultSeed); err != nil {
		t.Fatal(err)
	}
	pass := &simdPass{}
	spec := func(seed uint64) simsvc.JobSpec {
		return simsvc.JobSpec{Tenant: "interactive", Protocol: "kutten", N: simdN, Seed: seed}
	}
	for _, tc := range []struct {
		name  string
		run   func(c *client)
		fails int
	}{
		{"single fresh then resubmitted", func(c *client) { c.single(spec(1), false); c.single(spec(1), true) }, 0},
		{"single hit not marked", func(c *client) { c.single(spec(2), false); c.single(spec(2), false) }, 1},
		{"single miss marked", func(c *client) { c.single(spec(3), true) }, 1},
		{"batch hit not marked", func(c *client) {
			c.batch([]simsvc.JobSpec{spec(4)}, []bool{false})
			c.batch([]simsvc.JobSpec{spec(4)}, []bool{false})
		}, 1},
		{"batch miss marked", func(c *client) { c.batch([]simsvc.JobSpec{spec(5)}, []bool{true}) }, 1},
	} {
		c := newClient("interactive", s.base, pass, nil, 0, "")
		tc.run(c)
		if got := len(c.res.failures); got != tc.fails {
			t.Errorf("%s: %d failures, want %d: %v", tc.name, got, tc.fails, c.res.failures)
		}
		c.http.CloseIdleConnections()
	}
}

// TestFrameNSRejectsNoSizes: frameNS with no recorded message sizes is a
// failed check, not a zero.
func TestFrameNSRejectsNoSizes(t *testing.T) {
	if _, err := frameNS(nil); err == nil {
		t.Error("frameNS(nil) succeeded")
	}
	ns, err := frameNS(map[int]int64{64: 1, 300: 2})
	if err != nil || ns <= 0 {
		t.Errorf("frameNS = %v, %v", ns, err)
	}
}

// chdirTemp moves the test into a fresh directory, where simd-jobs puts
// its .bench_build journals.
func chdirTemp(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}
