package netsim

import (
	"fmt"
	"testing"

	"sublinear/internal/metrics"
)

// countingTracer is a no-op Tracer that only tallies calls: it isolates
// the engine-side cost of tracing (per-sender event buffering and the
// pass-D merge sweep) from any recorder backend.
type countingTracer struct {
	rounds, msgs, other int64
}

func (c *countingTracer) TraceRound(int)                                      { c.rounds++ }
func (c *countingTracer) TraceCrash(int, int)                                 { c.other++ }
func (c *countingTracer) TraceMessage(int, int, int, metrics.Kind, int, bool) { c.msgs++ }
func (c *countingTracer) TraceViolation(int, int, string)                     { c.other++ }
func (c *countingTracer) TraceAnnotation(int, int, string)                    { c.other++ }
func (c *countingTracer) TraceFinish(int, int64, int64, uint64)               {}

// pingRun executes the zero-alloc benchmark workload and returns the
// result. Shared by the steady-state allocation and workers-determinism
// tests below.
func pingRun(t *testing.T, n, rounds, workers int, mode RunMode, adv Adversary) *Result {
	t.Helper()
	machines := make([]Machine, n)
	for u := range machines {
		machines[u] = &pingMachine{}
	}
	eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds, Workers: workers}, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	eng.Mode = mode
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fixedPingMachine sends one message on port 1 every round: every inbox
// receives exactly one delivery per round, so buffer capacities stabilize
// after the first round and any further allocation is the engine's own.
type fixedPingMachine struct {
	last    int
	payload benchPayload
	out     [1]Send
}

func (m *fixedPingMachine) Step(_ *Env, round int, _ []Delivery) []Send {
	m.last = round
	m.payload.bits = 8
	m.out[0] = Send{Port: 1, Payload: &m.payload}
	return m.out[:]
}

func (m *fixedPingMachine) Done() bool  { return false }
func (m *fixedPingMachine) Output() any { return m.last }

// sleepyPeriod is the send period of sleepyPingMachine.
const sleepyPeriod = 4

// sleepyPingMachine is the Sleeper workload of the allocation pins: node
// u sends one message on port 1 in the rounds congruent to -u modulo
// sleepyPeriod and sleeps in between, so a quarter of the nodes send in
// each round, their receivers wake for the delivery, and every other
// node is skipped — the sparse round path with the wheel, the awake
// bitsets and the inbox offsets all in use.
type sleepyPingMachine struct {
	id, sent int
	payload  benchPayload
	out      [1]Send
}

func (m *sleepyPingMachine) Step(env *Env, round int, _ []Delivery) []Send {
	m.id = env.ID
	if (round+m.id)%sleepyPeriod != 0 {
		return nil
	}
	m.sent++
	m.payload.bits = 8
	m.out[0] = Send{Port: 1, Payload: &m.payload}
	return m.out[:]
}

func (m *sleepyPingMachine) NextWake(round int) int {
	return round + sleepyPeriod - (round+m.id)%sleepyPeriod
}

func (m *sleepyPingMachine) Done() bool  { return false }
func (m *sleepyPingMachine) Output() any { return m.sent }

// listAdv is a CrashLister for the allocation pins: node u = 16k+3
// crashes in round u+13, one crash every 16 rounds, and CrashesIn
// returns a window of a table built up front.
type listAdv struct{ nodes []int }

func newListAdv(n int) listAdv {
	a := listAdv{nodes: make([]int, n)}
	for u := range a.nodes {
		a.nodes[u] = u
	}
	return a
}

func (a listAdv) Faulty(u int) bool                       { return u%16 == 3 }
func (a listAdv) CrashNow(u, round int, _ []Send) bool    { return round >= u+13 }
func (a listAdv) DeliverOnCrash(_, _, i int, _ Send) bool { return i%2 == 0 }
func (a listAdv) CrashesIn(round int) []int {
	if u := round - 13; u >= 0 && u < len(a.nodes) && a.Faulty(u) {
		return a.nodes[u : u+1]
	}
	return nil
}

// allocWorkload builds the machines and adversary of one allocation-pin
// run: fixedPingMachine with no faults, or sleepyPingMachine under the
// listing adversary.
func allocWorkload(n int, sleepy bool) ([]Machine, Adversary) {
	machines := make([]Machine, n)
	for u := range machines {
		if sleepy {
			machines[u] = &sleepyPingMachine{}
		} else {
			machines[u] = &fixedPingMachine{}
		}
	}
	if sleepy {
		return machines, newListAdv(n)
	}
	return machines, nil
}

// marginalAllocs measures whole runs of a workload at two round counts
// and returns the extra allocations per extra message: construction
// cost cancels in the subtraction. The longer run must send more
// messages — exactly wantExtra more when wantExtra is nonzero — or the
// ratio would measure nothing.
func marginalAllocs(t *testing.T, runs, short, long int, wantExtra int64, run func(rounds int) *Result) float64 {
	t.Helper()
	var msgs [2]int64
	var allocs [2]float64
	for i, rounds := range []int{short, long} {
		allocs[i] = testing.AllocsPerRun(runs, func() {
			msgs[i] = run(rounds).Counters.Messages()
		})
	}
	extra := msgs[1] - msgs[0]
	if extra <= 0 || wantExtra != 0 && extra != wantExtra {
		t.Fatalf("%d rounds sent %d messages and %d rounds %d: %d extra, want %d",
			short, msgs[0], long, msgs[1], extra, wantExtra)
	}
	return (allocs[1] - allocs[0]) / float64(extra)
}

// extraMessages is the message difference marginalAllocs expects from
// allocWorkload between two round counts: every fixedPingMachine sends
// once per round; the sleepy workload's count is only required to grow.
func extraMessages(n, short, long int, sleepy bool) int64 {
	if sleepy {
		return 0
	}
	return int64((long - short) * n)
}

// TestSteadyStateAllocs pins the tentpole's zero-allocation claim: once a
// run's buffers warm up, extra rounds cost no allocations. It measures
// whole runs at two round counts and checks that the marginal
// allocations per extra message stay at zero — construction cost cancels
// in the subtraction. The workload has a fixed fanout so inbox
// capacities (owned by append's amortized-growth policy, not the engine)
// stabilize after round one.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		n     = 256
		short = 10
		long  = 210
	)
	for _, mode := range []struct {
		name   string
		mode   RunMode
		traced bool
		sleepy bool
	}{
		// Nil-Tracer cases pin the zero-overhead claim for tracing off:
		// Config.Tracer is nil here, so these bound the exact path every
		// untraced production run takes.
		{"sequential", Sequential, false, false},
		{"parallel", Parallel, false, false},
		// Traced cases bound the engine-side cost of tracing with a no-op
		// Tracer: the per-sender event buffers recycle across rounds, so
		// steady-state tracing adds no allocations either (a real recorder
		// backend adds only its own buffer growth and compression).
		{"sequential-traced", Sequential, true, false},
		{"parallel-traced", Parallel, true, false},
		// Sleeper cases pin the sparse round path: the wake wheel, the
		// awake bitsets and the CrashLister's lists recycle too.
		{"sequential-sleepers", Sequential, false, true},
		{"parallel-sleepers", Parallel, false, true},
		{"parallel-sleepers-traced", Parallel, true, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			marginal := marginalAllocs(t, 3, short, long, extraMessages(n, short, long, mode.sleepy), func(rounds int) *Result {
				machines, adv := allocWorkload(n, mode.sleepy)
				cfg := Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds}
				if mode.traced {
					cfg.Tracer = &countingTracer{}
				}
				eng, err := NewEngine(cfg, machines, adv)
				if err != nil {
					t.Fatal(err)
				}
				eng.Mode = mode.mode
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			// The engine itself is allocation-free per message; the budget
			// of 0.01 allocs/message (one alloc per ~100 messages) absorbs
			// runtime noise without hiding a real per-message allocation.
			if marginal > 0.01 {
				t.Errorf("marginal allocations = %.4f per message, want ~0", marginal)
			}
		})
	}
}

// TestTracerSeesEveryMessage cross-checks the Tracer hook against the
// counters: a counting tracer must observe exactly the counted messages
// and rounds, at any worker count, crashes included.
func TestTracerSeesEveryMessage(t *testing.T) {
	const n, rounds = 64, 20
	for _, workers := range []int{1, 4} {
		tr := &countingTracer{}
		machines := make([]Machine, n)
		for u := range machines {
			machines[u] = &pingMachine{}
		}
		eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds, Workers: workers, Tracer: tr},
			machines, crashAdv{node: 3, round: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng.Mode = Parallel
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if tr.msgs != res.Counters.Messages() {
			t.Errorf("workers=%d: tracer saw %d messages, counters %d", workers, tr.msgs, res.Counters.Messages())
		}
		if tr.rounds != int64(res.Rounds) {
			t.Errorf("workers=%d: tracer saw %d rounds, result %d", workers, tr.rounds, res.Rounds)
		}
	}
}

// TestWorkersOverrideDeterminism runs the same seed across worker-pool
// sizes and modes, with a mid-run crash in the mix, and requires
// identical digests and message counts: shard count must be invisible in
// every observable. Under -race this doubles as the concurrency check for
// the sharded delivery path.
func TestWorkersOverrideDeterminism(t *testing.T) {
	const n, rounds = 64, 20
	adv := crashAdv{node: 3, round: 7}
	ref := pingRun(t, n, rounds, 1, Sequential, adv)
	for _, mode := range []struct {
		name string
		mode RunMode
	}{{"sequential", Sequential}, {"parallel", Parallel}, {"actors", Actors}} {
		for _, workers := range []int{0, 1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/w%d", mode.name, workers), func(t *testing.T) {
				res := pingRun(t, n, rounds, workers, mode.mode, adv)
				if res.Digest != ref.Digest {
					t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
				}
				if res.Counters.Messages() != ref.Counters.Messages() {
					t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
				}
			})
		}
	}
}

// TestWorkersValidation pins the Config.Workers contract: zero means
// auto-size, negatives are rejected.
func TestWorkersValidation(t *testing.T) {
	cfg := Config{N: 4, Alpha: 1, MaxRounds: 1, Workers: -1}
	if err := cfg.validate(); err == nil {
		t.Error("negative Workers passed validation")
	}
	cfg.Workers = 0
	if err := cfg.validate(); err != nil {
		t.Errorf("Workers=0 rejected: %v", err)
	}
	if got := cfg.workerCount(); got < 1 {
		t.Errorf("workerCount() = %d, want >= 1", got)
	}
}

// TestSteadyStateAllocsLargeN repeats the zero-allocation pin at the
// tentpole scale (n = 65536): the SoA inbox arenas, routing buckets, and
// preallocated counters must hit their high-water marks in the warmup
// rounds and stop allocating, in both engine modes. Skipped under -short
// — each measurement runs a couple of million simulated messages.
func TestSteadyStateAllocsLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n allocation pin skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		n     = 65536
		short = 4
		long  = 16
	)
	for _, mode := range []struct {
		name   string
		mode   RunMode
		sleepy bool
	}{
		{"sequential", Sequential, false},
		{"parallel", Parallel, false},
		{"sequential-sleepers", Sequential, true},
		{"parallel-sleepers", Parallel, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			marginal := marginalAllocs(t, 2, short, long, extraMessages(n, short, long, mode.sleepy), func(rounds int) *Result {
				machines, adv := allocWorkload(n, mode.sleepy)
				eng, err := NewEngine(Config{N: n, Alpha: 1, Seed: 42, MaxRounds: rounds}, machines, adv)
				if err != nil {
					t.Fatal(err)
				}
				eng.Mode = mode.mode
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
			if marginal > 0.01 {
				t.Errorf("marginal allocations = %.4f per message, want ~0", marginal)
			}
		})
	}
}

// TestLargeNDigestIdentity pins digest byte-identity at tentpole scale:
// n = 65536 with mid-run crashes must produce the same digest and
// message count in every mode at every worker count. Skipped under
// -short; this is the long-form cousin of TestWorkersOverrideDeterminism.
func TestLargeNDigestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n digest pin skipped in -short mode")
	}
	const n, rounds = 65536, 8
	adv := crashAdv{node: 12345, round: 4}
	ref := pingRun(t, n, rounds, 1, Sequential, adv)
	for _, tc := range []struct {
		name    string
		mode    RunMode
		workers int
	}{
		{"parallel/w2", Parallel, 2},
		{"parallel/w8", Parallel, 8},
		{"parallel/w0", Parallel, 0},
		{"actors/w4", Actors, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := pingRun(t, n, rounds, tc.workers, tc.mode, adv)
			if res.Digest != ref.Digest {
				t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
			}
			if res.Counters.Messages() != ref.Counters.Messages() {
				t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
			}
		})
	}
}

// windowAdv is a CrashPlanner whose published windows are deliberately
// tight: it schedules two crashes and promises exactly the rounds
// between them crash-free. Used to pin that the engine's fused-window
// fast path is invisible in the digest.
type windowAdv struct {
	crashAdv
	extra int // second faulty node, crashes at round+3
}

func (a windowAdv) Faulty(u int) bool { return u == a.node || u == a.extra }
func (a windowAdv) CrashNow(u, round int, out []Send) bool {
	if u == a.node {
		return round >= a.round
	}
	return round >= a.round+3
}
func (a windowAdv) NextCrashRound(round int) int {
	if round <= a.round {
		return a.round
	}
	return a.round + 3
}

// TestCrashPlannerWindowDigest pins the batched-barrier contract at the
// netsim layer: an adversary that publishes crash-free windows via
// NextCrashRound must yield byte-identical digests, counters, and crash
// records to the same adversary with the planner hidden, in every mode
// and worker count.
func TestCrashPlannerWindowDigest(t *testing.T) {
	const n, rounds = 96, 20
	planned := windowAdv{crashAdv: crashAdv{node: 5, round: 6}, extra: 41}
	// hidden strips the CrashPlanner method by embedding the adversary in
	// a bare Adversary interface value.
	hidden := struct{ Adversary }{planned}
	ref := pingRun(t, n, rounds, 1, Sequential, hidden)
	for _, tc := range []struct {
		name    string
		adv     Adversary
		mode    RunMode
		workers int
	}{
		{"planner/sequential", planned, Sequential, 1},
		{"planner/parallel-w3", planned, Parallel, 3},
		{"planner/parallel-w8", planned, Parallel, 8},
		{"hidden/parallel-w3", hidden, Parallel, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := pingRun(t, n, rounds, tc.workers, tc.mode, tc.adv)
			if res.Digest != ref.Digest {
				t.Errorf("digest %#x, want %#x", res.Digest, ref.Digest)
			}
			if res.Counters.Messages() != ref.Counters.Messages() {
				t.Errorf("messages = %d, want %d", res.Counters.Messages(), ref.Counters.Messages())
			}
			if res.CrashedAt[5] != ref.CrashedAt[5] || res.CrashedAt[41] != ref.CrashedAt[41] {
				t.Errorf("crash rounds (%d,%d), want (%d,%d)",
					res.CrashedAt[5], res.CrashedAt[41], ref.CrashedAt[5], ref.CrashedAt[41])
			}
		})
	}
}
