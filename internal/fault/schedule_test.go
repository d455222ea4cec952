package fault

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

func TestScheduleValidate(t *testing.T) {
	good := Schedule{N: 8, Crashes: []Crash{{Node: 1, Round: 2, Policy: DropHalf}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{N: 1},
		{N: 8, Crashes: []Crash{{Node: 8, Round: 1, Policy: DropAll}}},
		{N: 8, Crashes: []Crash{{Node: -1, Round: 1, Policy: DropAll}}},
		{N: 8, Crashes: []Crash{{Node: 1, Round: 0, Policy: DropAll}}},
		{N: 8, Crashes: []Crash{{Node: 1, Round: 1, Policy: DropPolicy(7)}}},
		{N: 8, Crashes: []Crash{{Node: 1, Round: 1, Policy: DropAll}, {Node: 1, Round: 2, Policy: DropAll}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
		if _, err := s.Adversary(); err == nil {
			t.Errorf("bad schedule %d built an adversary", i)
		}
	}
}

func TestScheduleAdversaryExecutes(t *testing.T) {
	s := Schedule{N: 6, Crashes: []Crash{
		{Node: 2, Round: 3, Policy: DropAll},
		{Node: 4, Round: 1, Policy: DropNone},
	}}
	adv, err := s.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Faulty(2) || !adv.Faulty(4) || adv.Faulty(0) {
		t.Fatal("faulty set wrong")
	}
	if adv.CrashNow(2, 2, nil) || !adv.CrashNow(2, 3, nil) || !adv.CrashNow(2, 9, nil) {
		t.Fatal("node 2 crash timing wrong")
	}
	if adv.DeliverOnCrash(2, 3, 0, netsim.Send{}) {
		t.Fatal("DropAll delivered")
	}
	if !adv.DeliverOnCrash(4, 1, 1, netsim.Send{}) {
		t.Fatal("DropNone dropped")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := GenerateSchedule(16, 8, 5, rng.New(11))
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded schedule invalid: %v", err)
	}
}

func TestDropPolicyJSONRejectsUnknown(t *testing.T) {
	var p DropPolicy
	if err := json.Unmarshal([]byte(`"sideways"`), &p); err == nil {
		t.Fatal("unknown policy decoded")
	}
	if err := json.Unmarshal([]byte(`3`), &p); err == nil {
		t.Fatal("numeric policy decoded")
	}
	if _, err := json.Marshal(DropPolicy(42)); err == nil {
		t.Fatal("invalid policy encoded")
	}
}

func TestGenerateScheduleBounds(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s := GenerateSchedule(12, 6, 4, rng.New(seed))
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid schedule: %v", seed, err)
		}
		if len(s.Crashes) > 6 {
			t.Fatalf("seed %d: %d crashes, maxF 6", seed, len(s.Crashes))
		}
		for _, c := range s.Crashes {
			if c.Round < 1 || c.Round > 4 {
				t.Fatalf("seed %d: crash round %d outside [1,4]", seed, c.Round)
			}
		}
	}
}

func TestShrinksAreSimpler(t *testing.T) {
	s := Schedule{N: 8, Crashes: []Crash{
		{Node: 1, Round: 2, Policy: DropHalf},
		{Node: 5, Round: 1, Policy: DropNone},
	}}
	shrinks := s.Shrinks(4)
	if len(shrinks) == 0 {
		t.Fatal("no shrink candidates")
	}
	for i, c := range shrinks {
		if err := c.Validate(); err != nil {
			t.Fatalf("shrink %d invalid: %v", i, err)
		}
		if reflect.DeepEqual(c, s) {
			t.Fatalf("shrink %d is not simpler: identical schedule", i)
		}
		if len(c.Crashes) > len(s.Crashes) {
			t.Fatalf("shrink %d grew the faulty set", i)
		}
	}
	// The first candidates remove whole crashes.
	if len(shrinks[0].Crashes) != 1 {
		t.Fatalf("first shrink kept %d crashes", len(shrinks[0].Crashes))
	}
	// An empty schedule has nothing simpler.
	if got := (Schedule{N: 8}).Shrinks(4); len(got) != 0 {
		t.Fatalf("empty schedule produced %d shrinks", len(got))
	}
}

func TestScheduleAdversaryReplaysIdentically(t *testing.T) {
	s := Schedule{N: 8, Seed: 77, Crashes: []Crash{{Node: 3, Round: 1, Policy: DropRandom}}}
	a := Must(s.Adversary())
	b := Must(s.Adversary())
	for i := 0; i < 64; i++ {
		if a.DeliverOnCrash(3, 1, i, netsim.Send{}) != b.DeliverOnCrash(3, 1, i, netsim.Send{}) {
			t.Fatal("DropRandom coins differ across fresh adversaries of one schedule")
		}
	}
}

func TestScheduleNextCrashRound(t *testing.T) {
	s := Schedule{N: 8, Crashes: []Crash{
		{Node: 1, Round: 3, Policy: DropNone},
		{Node: 5, Round: 7, Policy: DropAll},
	}}
	adv := Must(s.Adversary())
	if got := adv.NextCrashRound(1); got != 3 {
		t.Fatalf("NextCrashRound(1) = %d, want 3", got)
	}
	// A scheduled round already in the past clamps to the current round:
	// CrashNow would fire immediately.
	if got := adv.NextCrashRound(4); got != 4 {
		t.Fatalf("NextCrashRound(4) = %d, want 4 (clamped past round for node 1)", got)
	}
	// Firing node 1's crash spends it; the next crash is node 5's.
	if !adv.CrashNow(1, 3, nil) {
		t.Fatal("node 1 did not crash at its scheduled round")
	}
	if got := adv.NextCrashRound(4); got != 7 {
		t.Fatalf("NextCrashRound(4) after node 1 fired = %d, want 7", got)
	}
	if !adv.CrashNow(5, 7, nil) {
		t.Fatal("node 5 did not crash at its scheduled round")
	}
	// All crashes spent: the rest of the run is promised crash-free.
	if got := adv.NextCrashRound(8); got != math.MaxInt {
		t.Fatalf("NextCrashRound(8) with all crashes spent = %d, want math.MaxInt", got)
	}
}

// TestScheduleCrashIndex pins the per-round index behind both
// CrashesIn and NextCrashRound: nodes listed per round in ascending
// order whatever the schedule's order, fired crashes still listed (the
// engine skips crashed nodes) but spent for NextCrashRound even when
// they fire out of order, and nothing past the last scheduled round.
func TestScheduleCrashIndex(t *testing.T) {
	s := Schedule{N: 16, Crashes: []Crash{
		{Node: 9, Round: 4, Policy: DropAll},
		{Node: 2, Round: 6, Policy: DropNone},
		{Node: 3, Round: 4, Policy: DropHalf},
		{Node: 12, Round: 4, Policy: DropRandom},
	}}
	adv := Must(s.Adversary())
	want := map[int][]int{4: {3, 9, 12}, 6: {2}}
	for r := 0; r <= 10; r++ {
		got := adv.CrashesIn(r)
		if len(got) != len(want[r]) || (len(got) > 0 && !reflect.DeepEqual(got, want[r])) {
			t.Errorf("CrashesIn(%d) = %v, want %v", r, got, want[r])
		}
	}
	if got := adv.NextCrashRound(1); got != 4 {
		t.Fatalf("NextCrashRound(1) = %d, want 4", got)
	}
	// Fire the round-6 crash first, out of schedule order: it is spent,
	// but the unfired round-4 crashes still come first.
	if !adv.CrashNow(2, 6, nil) {
		t.Fatal("node 2 did not crash at its scheduled round")
	}
	if got := adv.NextCrashRound(2); got != 4 {
		t.Fatalf("NextCrashRound(2) after node 2 fired = %d, want 4", got)
	}
	for _, u := range []int{3, 12} {
		if !adv.CrashNow(u, 4, nil) {
			t.Fatalf("node %d did not crash at round 4", u)
		}
	}
	// One unfired crash is left, scheduled for a round already past: it
	// would fire at once, so a round past the horizon clamps to itself.
	if got := adv.NextCrashRound(50); got != 50 {
		t.Fatalf("NextCrashRound(50) with node 9 unfired = %d, want 50", got)
	}
	if !reflect.DeepEqual(adv.CrashesIn(4), []int{3, 9, 12}) {
		t.Fatalf("CrashesIn(4) after firing = %v, want every scheduled node", adv.CrashesIn(4))
	}
	if !adv.CrashNow(9, 5, nil) {
		t.Fatal("node 9 did not crash after its scheduled round")
	}
	if got := adv.NextCrashRound(50); got != math.MaxInt {
		t.Fatalf("NextCrashRound(50) with all crashes spent = %d, want math.MaxInt", got)
	}
	empty := Must(Schedule{N: 4}.Adversary())
	if got := empty.NextCrashRound(1); got != math.MaxInt || len(empty.CrashesIn(1)) != 0 {
		t.Fatalf("empty schedule: NextCrashRound = %d, CrashesIn = %v", got, empty.CrashesIn(1))
	}
}

// chatter is a minimal machine that broadcasts every round, so crashes
// and drop policies are visible in the message counts and digest.
type chatter struct{ rounds int }

func (m *chatter) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.rounds = round
	out := make([]netsim.Send, 0, env.Deg)
	for p := 1; p <= env.Deg; p++ {
		out = append(out, netsim.Send{Port: p, Payload: pingPayload{}})
	}
	return out
}
func (m *chatter) Done() bool  { return m.rounds >= 6 }
func (m *chatter) Output() any { return m.rounds }

type pingPayload struct{}

func (pingPayload) Bits(int) int { return 8 }
func (pingPayload) Kind() string { return "ping" }

// hideSchedule wraps a ScheduleAdversary so the engine sees only the
// base Adversary interface: neither the CrashLister nor the CrashPlanner
// fast path is taken, and every round consults every live faulty node.
func hideSchedule(a *ScheduleAdversary) netsim.Adversary { return struct{ netsim.Adversary }{a} }

// plannerOnly wraps a ScheduleAdversary so the engine sees its
// CrashPlanner but not its CrashLister.
func plannerOnly(a *ScheduleAdversary) netsim.Adversary {
	return struct {
		netsim.Adversary
		netsim.CrashPlanner
	}{a, a}
}

// TestSchedulePlannerDigestParity pins the engine's batched-barrier
// contract: publishing crash-free windows via NextCrashRound, or the
// per-round crash lists of CrashesIn, must not change the execution —
// digests, counters, and crash records stay byte-identical to the
// per-round CrashNow consultation of every live faulty node, across
// engine modes and worker counts.
func TestSchedulePlannerDigestParity(t *testing.T) {
	s := Schedule{N: 24, Seed: 9, Crashes: []Crash{
		{Node: 2, Round: 2, Policy: DropHalf},
		{Node: 11, Round: 4, Policy: DropRandom},
		{Node: 17, Round: 4, Policy: DropAll},
	}}
	run := func(adv netsim.Adversary, mode netsim.RunMode, workers int) *netsim.Result {
		t.Helper()
		machines := make([]netsim.Machine, s.N)
		for u := range machines {
			machines[u] = &chatter{}
		}
		eng, err := netsim.NewEngine(netsim.Config{N: s.N, Alpha: 0.5, Seed: 33, MaxRounds: 8, Workers: workers}, machines, adv)
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
	ref := run(hideSchedule(Must(s.Adversary())), netsim.Sequential, 1)
	asIs := func(a *ScheduleAdversary) netsim.Adversary { return a }
	for _, tc := range []struct {
		name    string
		wrap    func(*ScheduleAdversary) netsim.Adversary
		mode    netsim.RunMode
		workers int
	}{
		{"lister/sequential", asIs, netsim.Sequential, 1},
		{"lister/parallel-2", asIs, netsim.Parallel, 2},
		{"lister/parallel-5", asIs, netsim.Parallel, 5},
		{"planner/sequential", plannerOnly, netsim.Sequential, 1},
		{"planner/parallel-3", plannerOnly, netsim.Parallel, 3},
		{"hidden/parallel-3", hideSchedule, netsim.Parallel, 3},
	} {
		got := run(tc.wrap(Must(s.Adversary())), tc.mode, tc.workers)
		if got.Digest != ref.Digest {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got.Digest, ref.Digest)
		}
		if got.Counters.Messages() != ref.Counters.Messages() {
			t.Errorf("%s: messages %d, want %d", tc.name, got.Counters.Messages(), ref.Counters.Messages())
		}
		if !reflect.DeepEqual(got.CrashedAt, ref.CrashedAt) {
			t.Errorf("%s: crash rounds %v, want %v", tc.name, got.CrashedAt, ref.CrashedAt)
		}
	}
}
