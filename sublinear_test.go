package sublinear_test

import (
	"errors"
	"testing"

	"sublinear"
	"sublinear/internal/cloud"
)

func TestElectHappyPath(t *testing.T) {
	res, err := sublinear.Elect(sublinear.Options{N: 256, Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Success {
		t.Fatalf("fault-free election failed: %s", res.Eval.Reason)
	}
	if res.Counters.Messages() == 0 || res.Rounds == 0 {
		t.Fatal("no accounting")
	}
}

func TestElectWithEveryFaultMode(t *testing.T) {
	modes := []struct {
		name string
		fm   sublinear.FaultModel
	}{
		{"random-half", sublinear.FaultModel{Faulty: 128, Policy: sublinear.DropHalf}},
		{"random-all", sublinear.FaultModel{Faulty: 128, Policy: sublinear.DropAll}},
		{"random-none", sublinear.FaultModel{Faulty: 128, Policy: sublinear.DropNone}},
		{"random-random", sublinear.FaultModel{Faulty: 128, Policy: sublinear.DropRandom}},
		{"windowed", sublinear.FaultModel{Faulty: 128, Window: 10}},
		{"late", sublinear.FaultModel{Faulty: 128, CrashAfterElection: true}},
		{"hunter", sublinear.FaultModel{Faulty: 128, Hunter: true}},
	}
	for _, tt := range modes {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			ok := 0
			for seed := uint64(1); seed <= 5; seed++ {
				fm := tt.fm
				res, err := sublinear.Elect(sublinear.Options{
					N: 256, Alpha: 0.5, Seed: seed, Faults: &fm,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Eval.Success {
					ok++
				} else {
					t.Logf("seed %d: %s", seed, res.Eval.Reason)
				}
			}
			if ok < 4 {
				t.Errorf("success %d/5 under %s", ok, tt.name)
			}
		})
	}
}

func TestElectRejectsTooManyFaults(t *testing.T) {
	_, err := sublinear.Elect(sublinear.Options{
		N: 100, Alpha: 0.5, Faults: &sublinear.FaultModel{Faulty: 60},
	})
	if !errors.Is(err, sublinear.ErrTooManyFaults) {
		t.Fatalf("err = %v, want ErrTooManyFaults", err)
	}
}

func TestElectRejectsBadAlpha(t *testing.T) {
	if _, err := sublinear.Elect(sublinear.Options{N: 1024, Alpha: 0.001}); err == nil {
		t.Fatal("alpha below the frontier accepted")
	}
	if _, err := sublinear.Elect(sublinear.Options{N: 1024, Alpha: 2}); err == nil {
		t.Fatal("alpha above 1 accepted")
	}
}

func TestAgreeHappyPath(t *testing.T) {
	inputs := sublinear.RandomInputs(256, 0.5, 1)
	res, err := sublinear.Agree(sublinear.Options{N: 256, Alpha: 0.5, Seed: 1}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Success {
		t.Fatalf("fault-free agreement failed: %s", res.Eval.Reason)
	}
	found := false
	for _, in := range inputs {
		if in == res.Eval.Value {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("validity violated")
	}
}

func TestExplicitOptionPropagates(t *testing.T) {
	res, err := sublinear.Elect(sublinear.Options{N: 256, Alpha: 0.5, Seed: 2, Explicit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.ExplicitOK {
		t.Fatal("explicit mode did not run")
	}
	for u, o := range res.Outputs {
		if res.CrashedAt[u] == 0 && o.LeaderRank == 0 {
			t.Fatal("a node did not learn the leader in explicit mode")
		}
	}
}

func TestRecordOptionKeepsTrace(t *testing.T) {
	rec := cloud.NewRecorder(128)
	res, err := sublinear.Elect(sublinear.Options{N: 128, Alpha: 0.75, Seed: 3, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.EdgeCount() == 0 {
		t.Fatal("influence-cloud recording is empty")
	}
	plain, err := sublinear.Elect(sublinear.Options{N: 128, Alpha: 0.75, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest != res.Digest {
		t.Fatalf("recording changed the execution: digest %#x, unrecorded %#x", res.Digest, plain.Digest)
	}
}

func TestRandomInputs(t *testing.T) {
	in := sublinear.RandomInputs(10000, 0.25, 7)
	if len(in) != 10000 {
		t.Fatalf("len = %d", len(in))
	}
	ones := 0
	for _, b := range in {
		if b != 0 && b != 1 {
			t.Fatalf("non-binary input %d", b)
		}
		ones += b
	}
	if ones < 2200 || ones > 2800 {
		t.Errorf("ones = %d, want ~2500", ones)
	}
	// Deterministic for the same seed.
	again := sublinear.RandomInputs(10000, 0.25, 7)
	for i := range in {
		if in[i] != again[i] {
			t.Fatal("RandomInputs not deterministic")
		}
	}
}

func TestMinimumAlphaAndDescribe(t *testing.T) {
	a := sublinear.MinimumAlpha(1024)
	if a <= 0 || a > 1 {
		t.Fatalf("MinimumAlpha = %v", a)
	}
	d, err := sublinear.Describe(sublinear.Tuning{}, 1024, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d.RefereeCount <= 0 || d.ElectionRounds <= 0 {
		t.Fatalf("describe: %+v", d)
	}
	if _, err := sublinear.Describe(sublinear.Tuning{}, 1024, a/2); err == nil {
		t.Fatal("Describe accepted alpha below the frontier")
	}
}

func TestTuningOverrides(t *testing.T) {
	// A larger committee must be visible in the outcome.
	small, err := sublinear.Elect(sublinear.Options{N: 512, Alpha: 0.5, Seed: 4,
		Tuning: sublinear.Tuning{CandidateFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := sublinear.Elect(sublinear.Options{N: 512, Alpha: 0.5, Seed: 4,
		Tuning: sublinear.Tuning{CandidateFactor: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if big.Eval.Candidates <= small.Eval.Candidates {
		t.Errorf("candidates: factor 12 -> %d, factor 2 -> %d",
			big.Eval.Candidates, small.Eval.Candidates)
	}
}

func TestFaultSeedIndependentOfRunSeed(t *testing.T) {
	// Fixing FaultModel.Seed pins the faulty set while the protocol seed
	// varies.
	res1, err := sublinear.Elect(sublinear.Options{N: 256, Alpha: 0.5, Seed: 1,
		Faults: &sublinear.FaultModel{Faulty: 64, Seed: 99, CrashAfterElection: true}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sublinear.Elect(sublinear.Options{N: 256, Alpha: 0.5, Seed: 2,
		Faults: &sublinear.FaultModel{Faulty: 64, Seed: 99, CrashAfterElection: true}})
	if err != nil {
		t.Fatal(err)
	}
	for u := range res1.Faulty {
		if res1.Faulty[u] != res2.Faulty[u] {
			t.Fatal("faulty set changed despite fixed fault seed")
		}
	}
}

func TestAgreeMinHappyPath(t *testing.T) {
	values := make([]uint64, 256)
	for i := range values {
		values[i] = uint64(1000 + i)
	}
	res, err := sublinear.AgreeMin(sublinear.Options{N: 256, Alpha: 0.5, Seed: 2}, values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Success {
		t.Fatalf("min agreement failed: %s", res.Eval.Reason)
	}
	// The decision is the minimum committee input: at least 1000, and an
	// actual input value.
	if res.Eval.Value < 1000 || res.Eval.Value > 1255 {
		t.Fatalf("decided %d, out of input range", res.Eval.Value)
	}
}

func TestInputPatternHelpers(t *testing.T) {
	ones := sublinear.ConstantInputs(10, 1)
	for _, b := range ones {
		if b != 1 {
			t.Fatal("ConstantInputs(_, 1) produced a zero")
		}
	}
	sparse := sublinear.SparseZeros(100, 7, 3)
	zeros := 0
	for _, b := range sparse {
		if b == 0 {
			zeros++
		} else if b != 1 {
			t.Fatalf("non-binary input %d", b)
		}
	}
	if zeros != 7 {
		t.Fatalf("SparseZeros planted %d zeros, want 7", zeros)
	}
	// Deterministic, clamped, and safe at the edges.
	again := sublinear.SparseZeros(100, 7, 3)
	for i := range sparse {
		if sparse[i] != again[i] {
			t.Fatal("SparseZeros not deterministic")
		}
	}
	if z := sublinear.SparseZeros(5, 10, 1); len(z) != 5 {
		t.Fatal("clamp failed")
	}
	for _, b := range sublinear.SparseZeros(5, 0, 1) {
		if b != 1 {
			t.Fatal("k=0 should be all ones")
		}
	}
}

func TestAgreeSparseZerosWorkload(t *testing.T) {
	// A dense enough planting (n/8) must land a zero in the committee
	// w.h.p. and force decision 0.
	const n = 512
	inputs := sublinear.SparseZeros(n, n/8, 9)
	res, err := sublinear.Agree(sublinear.Options{N: n, Alpha: 0.5, Seed: 9}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Success || res.Eval.Value != 0 {
		t.Fatalf("sparse-zero workload: %+v", res.Eval)
	}
}
