package core

// The sparse = dense differential. The core machines implement
// netsim.Sleeper and the scheduled adversaries implement
// netsim.CrashLister, so the engine steps only the nodes that act in a
// round and consults only the nodes scheduled to crash in it. Both are
// promises the engine cannot check; this test checks them, by running
// every case twice — as is, and with the capabilities hidden, which
// forces the dense round (every live node stepped, every live faulty
// node consulted) — and requiring the two runs to be indistinguishable.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
	"sublinear/internal/trace"
)

// awake hides a machine's Sleeper method: the engine steps it every
// round.
type awake struct{ netsim.Machine }

// consultAll hides an adversary's CrashLister method, keeping its
// CrashPlanner when it has one: the engine then sweeps every live faulty
// node in each crash round.
func consultAll(a netsim.Adversary) netsim.Adversary {
	if p, ok := a.(netsim.CrashPlanner); ok {
		return struct {
			netsim.Adversary
			netsim.CrashPlanner
		}{a, p}
	}
	return struct{ netsim.Adversary }{a}
}

// sleepAlpha admits n = 64 (the paper needs alpha >= log^2 n / n);
// the adversaries crash up to the (1-alpha)n nodes it allows.
const sleepAlpha = 0.75

// sleepCase is one protocol configuration; machines builds a fresh set.
type sleepCase struct {
	name      string
	maxRounds int
	machines  func() []netsim.Machine
}

func sleepCases(t *testing.T, n int, seed uint64) []sleepCase {
	t.Helper()
	inputs := DeriveAgreementInputs(n, seed, 0.5)
	values := DeriveMinAgreementValues(n, seed)
	var cases []sleepCase
	for _, pv := range []struct {
		name string
		p    Params
	}{{"implicit", Params{}}, {"explicit", Params{Explicit: true}}, {"earlystop", Params{EarlyStop: true}}} {
		d, err := deriveParams(pv.p, n, sleepAlpha)
		if err != nil {
			t.Fatal(err)
		}
		build := func(mk func(u int) netsim.Machine) func() []netsim.Machine {
			return func() []netsim.Machine {
				ms := make([]netsim.Machine, n)
				for u := range ms {
					ms[u] = mk(u)
				}
				return ms
			}
		}
		cases = append(cases,
			sleepCase{"election/" + pv.name, electionRounds(d),
				build(func(int) netsim.Machine { return newElectionMachine(d) })},
			sleepCase{"agreement/" + pv.name, agreementRounds(d, 0),
				build(func(u int) netsim.Machine { return newAgreementMachine(d, inputs[u]) })},
			sleepCase{"minagree/" + pv.name, newMinAgreeMachine(d, 0).endRound,
				build(func(u int) netsim.Machine { return newMinAgreeMachine(d, values[u]) })},
		)
		if pv.name == "implicit" {
			// A mixed population: Byzantine hijackers do not sleep, so
			// the engine must keep stepping them every round.
			cases = append(cases, sleepCase{"election/byzantine", electionRounds(d),
				build(func(u int) netsim.Machine {
					if u < 2 {
						return newByzElectionHijacker(d)
					}
					return newElectionMachine(d)
				})})
		}
	}
	return cases
}

// namedAdversary builds a fresh adversary per run: a random drop policy
// consumes the adversary's coins.
type namedAdversary struct {
	name string
	make func() netsim.Adversary
}

func sleepAdversaries(n, horizon int, seed uint64) []namedAdversary {
	f := int(float64(n) * (1 - sleepAlpha))
	src := func(salt uint64) *rng.Source { return rng.New(seed ^ salt) }
	advs := []namedAdversary{
		{"nofaults", func() netsim.Adversary { return netsim.NoFaults{} }},
		{"hunter", func() netsim.Adversary {
			return fault.NewHunter(n, f, 3, fault.DropHalf, src(0x4a))
		}},
		{"schedule", func() netsim.Adversary {
			return fault.Must(fault.GenerateSchedule(n, f, horizon, src(0x5c)).Adversary())
		}},
	}
	for _, policy := range []fault.DropPolicy{fault.DropAll, fault.DropNone, fault.DropHalf, fault.DropRandom} {
		advs = append(advs, namedAdversary{"plan-" + policy.String(), func() netsim.Adversary {
			return fault.Must(fault.NewRandomPlan(n, f, horizon, policy, src(0x9a)))
		}})
	}
	return advs
}

// sleepRun is everything observable about one run.
type sleepRun struct {
	res     *netsim.Result
	outputs []any
	trace   []byte
}

func runSleepCase(t *testing.T, c sleepCase, n, workers int, seed uint64, adv netsim.Adversary, wrap func(netsim.Machine) netsim.Machine) sleepRun {
	t.Helper()
	machines := c.machines()
	for u, m := range machines {
		machines[u] = wrap(m)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.Header{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{N: n, Alpha: sleepAlpha, Seed: seed, MaxRounds: c.maxRounds,
		CongestFactor: DefaultCongestFactor, Strict: true, Workers: workers, Tracer: rec}
	res, err := netsim.ExecuteOn(nil, cfg, machines, adv)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return sleepRun{res: res, outputs: res.Outputs, trace: buf.Bytes()}
}

// sleepDiff reports the first observable difference between two runs,
// or "" when they are indistinguishable.
func sleepDiff(a, b sleepRun) string {
	switch {
	case a.res.Digest != b.res.Digest:
		return fmt.Sprintf("digest %#x vs %#x", a.res.Digest, b.res.Digest)
	case !reflect.DeepEqual(a.outputs, b.outputs):
		return "outputs differ"
	case !reflect.DeepEqual(a.res.CrashedAt, b.res.CrashedAt):
		return "crash rounds differ"
	case a.res.Rounds != b.res.Rounds:
		return fmt.Sprintf("rounds %d vs %d", a.res.Rounds, b.res.Rounds)
	case a.res.Counters.Messages() != b.res.Counters.Messages(),
		a.res.Counters.Bits() != b.res.Counters.Bits(),
		!reflect.DeepEqual(a.res.Counters.PerKind(), b.res.Counters.PerKind()),
		!reflect.DeepEqual(a.res.Counters.PerRound(), b.res.Counters.PerRound()):
		return "counters differ"
	case !bytes.Equal(a.trace, b.trace):
		return "trace streams differ"
	}
	return ""
}

func identity(m netsim.Machine) netsim.Machine  { return m }
func hideSleep(m netsim.Machine) netsim.Machine { return awake{m} }

// TestSleepersMatchDenseRounds is the sparse = dense differential: every
// protocol and parameter set, under every adversary kind, at two sizes,
// several seeds and worker counts 1-3, must be indistinguishable from
// the run that steps every node and consults every faulty node — same
// digest, outputs, crash rounds, counters and byte-identical trace.
// n = 64 runs three seeds at every worker count (one under -race,
// which slows it tenfold). At n = 1024 a run costs ~100 ms of message
// traffic, so it runs one seed against three workers only (uneven
// shards), and is skipped under -short and -race.
func TestSleepersMatchDenseRounds(t *testing.T) {
	for _, size := range []struct {
		n       int
		seeds   []uint64
		workers []int
	}{{64, []uint64{1, 2, 3}, []int{1, 2, 3}}, {1024, []uint64{1}, []int{3}}} {
		n := size.n
		if n > 64 && (testing.Short() || raceEnabled) {
			continue
		}
		seeds := size.seeds
		if raceEnabled {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			for _, c := range sleepCases(t, n, seed) {
				for _, adv := range sleepAdversaries(n, c.maxRounds, seed) {
					t.Run(fmt.Sprintf("n%d/s%d/%s/%s", n, seed, c.name, adv.name), func(t *testing.T) {
						dense := runSleepCase(t, c, n, 1, seed, consultAll(adv.make()), hideSleep)
						for _, workers := range size.workers {
							sparse := runSleepCase(t, c, n, workers, seed, adv.make(), identity)
							if d := sleepDiff(dense, sparse); d != "" {
								t.Fatalf("workers=%d: sparse run differs from dense: %s", workers, d)
							}
						}
					})
				}
			}
		}
	}
}

// lyingSleeper breaks the Sleeper contract the way a plausible bug
// would: a candidate sleeps through its proposal timer, waking only for
// deliveries and the schedule's end.
type lyingSleeper struct{ *electionMachine }

func (m lyingSleeper) NextWake(round int) int {
	if round == 1 {
		return 2
	}
	return m.endRound
}

// TestSleeperDifferentialCatchesALie proves the differential has teeth:
// a machine that sleeps through work it would have done must make the
// sparse run observably differ from the dense one.
func TestSleeperDifferentialCatchesALie(t *testing.T) {
	const n, seed = 256, 7
	d, err := deriveParams(Params{}, n, sleepAlpha)
	if err != nil {
		t.Fatal(err)
	}
	c := sleepCase{"election/lying", electionRounds(d), func() []netsim.Machine {
		ms := make([]netsim.Machine, n)
		for u := range ms {
			ms[u] = lyingSleeper{newElectionMachine(d)}
		}
		return ms
	}}
	dense := runSleepCase(t, c, n, 1, seed, netsim.NoFaults{}, hideSleep)
	lying := runSleepCase(t, c, n, 2, seed, netsim.NoFaults{}, identity)
	if d := sleepDiff(dense, lying); d == "" {
		t.Fatal("a candidate sleeping through its timer went unnoticed")
	}
}
