package fault

import (
	"reflect"
	"testing"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

func outbox(k int) []netsim.Send {
	out := make([]netsim.Send, k)
	for i := range out {
		out[i] = netsim.Send{Port: i + 1, Payload: probe{}}
	}
	return out
}

type probe struct{}

func (probe) Bits(int) int { return 1 }
func (probe) Kind() string { return "probe" }

func TestRandomPlanSelectsExactlyF(t *testing.T) {
	const n, f = 100, 37
	p := Must(NewRandomPlan(n, f, 10, DropAll, rng.New(1)))
	if got := p.FaultyCount(); got != f {
		t.Fatalf("FaultyCount = %d, want %d", got, f)
	}
	count := 0
	for u := 0; u < n; u++ {
		if p.Faulty(u) {
			count++
		}
	}
	if count != f {
		t.Fatalf("Faulty flags = %d, want %d", count, f)
	}
}

func TestRandomPlanCrashWindow(t *testing.T) {
	const n, f, horizon = 50, 20, 7
	p := Must(NewRandomPlan(n, f, horizon, DropAll, rng.New(2)))
	for u := 0; u < n; u++ {
		if !p.Faulty(u) {
			if p.CrashNow(u, 1, nil) || p.CrashNow(u, 1000, nil) {
				t.Fatalf("non-faulty node %d crashed", u)
			}
			continue
		}
		// The node must crash at some round within the window.
		crashed := 0
		for r := 1; r <= horizon; r++ {
			if p.CrashNow(u, r, nil) {
				crashed = r
				break
			}
		}
		if crashed == 0 {
			t.Fatalf("faulty node %d never crashes within the window", u)
		}
	}
}

func TestRandomPlanZeroFaults(t *testing.T) {
	p := Must(NewRandomPlan(10, 0, 5, DropAll, rng.New(3)))
	if p.FaultyCount() != 0 {
		t.Fatal("faults selected for f=0")
	}
}

// Regression: the constructors used to clamp f > n silently and panic on
// a non-positive horizon (rng.Intn(horizon)); now every impossible
// parameter is an error.
func TestPlanConstructorValidation(t *testing.T) {
	src := func() *rng.Source { return rng.New(4) }
	cases := []struct {
		name string
		err  func() error
	}{
		{"f > n", func() error { _, err := NewRandomPlan(10, 25, 5, DropAll, src()); return err }},
		{"f < 0", func() error { _, err := NewRandomPlan(10, -1, 5, DropAll, src()); return err }},
		{"zero horizon", func() error { _, err := NewRandomPlan(10, 3, 0, DropAll, src()); return err }},
		{"negative horizon", func() error { _, err := NewRandomPlan(10, 3, -7, DropAll, src()); return err }},
		{"n < 1", func() error { _, err := NewRandomPlan(0, 0, 5, DropAll, src()); return err }},
		{"invalid policy", func() error { _, err := NewRandomPlan(10, 3, 5, DropPolicy(99), src()); return err }},
		{"nil source", func() error { _, err := NewRandomPlan(10, 3, 5, DropAll, nil); return err }},
		{"late f > n", func() error { _, err := NewLateCrashPlan(10, 11, 5, src()); return err }},
		{"late zero round", func() error { _, err := NewLateCrashPlan(10, 3, 0, src()); return err }},
		{"targeted node range", func() error { _, err := NewTargetedPlan(10, map[int]int{10: 1}, DropAll, src()); return err }},
		{"targeted zero round", func() error { _, err := NewTargetedPlan(10, map[int]int{3: 0}, DropAll, src()); return err }},
	}
	for _, tc := range cases {
		if tc.err() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The horizon is irrelevant when there are no faults to schedule.
	if _, err := NewRandomPlan(10, 0, 0, DropAll, src()); err != nil {
		t.Errorf("f=0 with zero horizon rejected: %v", err)
	}
}

func TestDropPolicies(t *testing.T) {
	src := rng.New(5)
	tests := []struct {
		policy DropPolicy
		check  func(t *testing.T, delivered []bool)
	}{
		{DropAll, func(t *testing.T, d []bool) {
			for i, ok := range d {
				if ok {
					t.Errorf("DropAll delivered index %d", i)
				}
			}
		}},
		{DropNone, func(t *testing.T, d []bool) {
			for i, ok := range d {
				if !ok {
					t.Errorf("DropNone dropped index %d", i)
				}
			}
		}},
		{DropHalf, func(t *testing.T, d []bool) {
			for i, ok := range d {
				if ok != (i%2 == 0) {
					t.Errorf("DropHalf index %d = %v", i, ok)
				}
			}
		}},
	}
	for _, tt := range tests {
		delivered := make([]bool, 10)
		for i := range delivered {
			delivered[i] = deliver(tt.policy, src, i)
		}
		tt.check(t, delivered)
	}
}

func TestDropRandomIsFair(t *testing.T) {
	src := rng.New(6)
	kept := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if deliver(DropRandom, src, i) {
			kept++
		}
	}
	if kept < trials*4/10 || kept > trials*6/10 {
		t.Fatalf("DropRandom kept %d/%d", kept, trials)
	}
}

func TestLateCrashPlan(t *testing.T) {
	const n, f, round = 40, 15, 99
	p := Must(NewLateCrashPlan(n, f, round, rng.New(7)))
	if p.FaultyCount() != f {
		t.Fatalf("FaultyCount = %d", p.FaultyCount())
	}
	for u := 0; u < n; u++ {
		if !p.Faulty(u) {
			continue
		}
		if p.CrashNow(u, round-1, nil) {
			t.Fatal("crashed before the scheduled round")
		}
		if !p.CrashNow(u, round, nil) {
			t.Fatal("did not crash at the scheduled round")
		}
		if !p.DeliverOnCrash(u, round, 3, netsim.Send{}) {
			t.Fatal("late-crash plan must deliver everything")
		}
	}
}

func TestTargetedPlan(t *testing.T) {
	p := Must(NewTargetedPlan(10, map[int]int{3: 2, 7: 5}, DropAll, rng.New(8)))
	if !p.Faulty(3) || !p.Faulty(7) || p.Faulty(0) {
		t.Fatal("faulty set wrong")
	}
	if p.CrashNow(3, 1, nil) || !p.CrashNow(3, 2, nil) {
		t.Fatal("node 3 crash timing wrong")
	}
	if !p.CrashNow(7, 6, nil) {
		t.Fatal("CrashNow must fire at or after the scheduled round")
	}
}

// TestPlanCrashesIn pins Plan's CrashLister against its CrashNow: in
// every round, the listed nodes are exactly, in ascending order, the
// faulty nodes whose CrashNow first returns true in that round, for
// every plan constructor.
func TestPlanCrashesIn(t *testing.T) {
	const n, horizon = 200, 12
	plans := map[string]*Plan{
		"random":   Must(NewRandomPlan(n, 90, horizon, DropHalf, rng.New(5))),
		"late":     Must(NewLateCrashPlan(n, 30, 7, rng.New(6))),
		"targeted": Must(NewTargetedPlan(n, map[int]int{150: 3, 4: 3, 77: 9, 5: 1}, DropAll, rng.New(7))),
		"none":     Must(NewRandomPlan(n, 0, horizon, DropAll, rng.New(8))),
	}
	for name, p := range plans {
		listed := 0
		for r := 1; r <= horizon+2; r++ {
			var want []int
			for u := 0; u < n; u++ {
				if p.Faulty(u) && p.CrashNow(u, r, nil) && !p.CrashNow(u, r-1, nil) {
					want = append(want, u)
				}
			}
			got := p.CrashesIn(r)
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s: CrashesIn(%d) = %v, want %v", name, r, got, want)
			}
			listed += len(got)
		}
		if listed != p.FaultyCount() {
			t.Errorf("%s: %d nodes listed over the run, %d faulty", name, listed, p.FaultyCount())
		}
	}
}

func TestPlanDeterminism(t *testing.T) {
	a := Must(NewRandomPlan(64, 20, 9, DropRandom, rng.New(42)))
	b := Must(NewRandomPlan(64, 20, 9, DropRandom, rng.New(42)))
	for u := 0; u < 64; u++ {
		if a.Faulty(u) != b.Faulty(u) {
			t.Fatal("faulty sets differ for identical seeds")
		}
		if a.crashRound[u] != b.crashRound[u] {
			t.Fatal("crash rounds differ for identical seeds")
		}
	}
	for i := 0; i < 100; i++ {
		if a.DeliverOnCrash(0, 1, i, netsim.Send{}) != b.DeliverOnCrash(0, 1, i, netsim.Send{}) {
			t.Fatal("drop coins differ for identical seeds")
		}
	}
}

func TestHunterCrashesOnBurst(t *testing.T) {
	h := NewHunter(20, 3, 5, DropHalf, rng.New(9))
	faulty := -1
	for u := 0; u < 20; u++ {
		if h.Faulty(u) {
			faulty = u
			break
		}
	}
	if faulty == -1 {
		t.Fatal("no faulty node")
	}
	if h.CrashNow(faulty, 1, outbox(4)) {
		t.Fatal("crashed below threshold")
	}
	if !h.CrashNow(faulty, 2, outbox(5)) {
		t.Fatal("did not crash on burst")
	}
}

func TestHunterBudget(t *testing.T) {
	h := NewHunter(20, 2, 1, DropAll, rng.New(10))
	crashes := 0
	for u := 0; u < 20; u++ {
		if h.CrashNow(u, 1, outbox(3)) {
			crashes++
		}
	}
	if crashes != 2 {
		t.Fatalf("hunter crashed %d nodes, budget 2", crashes)
	}
}

func TestHunterFaultyCount(t *testing.T) {
	h := NewHunter(50, 12, 4, DropHalf, rng.New(11))
	count := 0
	for u := 0; u < 50; u++ {
		if h.Faulty(u) {
			count++
		}
	}
	if count != 12 {
		t.Fatalf("faulty count = %d, want 12", count)
	}
}
