package main

import (
	"fmt"
	"time"

	"sublinear/internal/core"
)

// simCall is one simulator call's counters, for the engine-level
// metrics shared by the simulator workloads.
type simCall struct {
	wall   time.Duration
	n      int
	rounds int
	msgs   int64
	bits   int64
}

// engineCounts sets netsim.node_round_ns (call wall time per node-round)
// and the exact per-repetition netsim.msgs, netsim.bits and
// netsim.rounds from the untraced pass's calls. Every repetition runs
// the same inputs, so the per-repetition counts divide exactly.
func engineCounts(m map[string]float64, calls []simCall, reps int) {
	var wallNS, nodeRounds float64
	var msgs, bits, rounds int64
	for _, c := range calls {
		wallNS += float64(c.wall.Nanoseconds())
		nodeRounds += float64(c.n) * float64(c.rounds)
		msgs += c.msgs
		bits += c.bits
		rounds += int64(c.rounds)
	}
	m["netsim.node_round_ns"] = wallNS / nodeRounds
	m["netsim.msgs"] = float64(msgs / int64(reps))
	m["netsim.bits"] = float64(bits / int64(reps))
	m["netsim.rounds"] = float64(rounds / int64(reps))
}

// activeFrac sets netsim.active_node_frac: active node-rounds over all
// node-rounds of the traced calls.
func activeFrac(m map[string]float64, tracers []*roundTracer) {
	var active, nodeRounds float64
	for _, t := range tracers {
		active += float64(t.activeNodeRounds())
		nodeRounds += float64(t.n) * float64(t.rounds)
	}
	m["netsim.active_node_frac"] = active / nodeRounds
}

// netsimRounds sets the split and fused round durations of the traced
// calls on the netsim engine.
func netsimRounds(m map[string]float64, tracers []*roundTracer) {
	var split, fused []float64
	for _, t := range tracers {
		s, f := classifyRounds(t.roundDurations(), t.lastCrash)
		split = append(split, s...)
		fused = append(fused, f...)
	}
	m["netsim.split_round_us_p50"] = median(split)
	m["netsim.fused_round_us_p50"] = median(fused)
	tail(m, "netsim.fused_round_us_p90", fused, 90)
	m["netsim.split_round_us_p50.count"] = float64(len(split))
	m["netsim.fused_round_us_p50.count"] = float64(len(fused))
}

// tail sets name to the p-th percentile of xs when the sample holds at
// least minTail values beyond it, and always records the sample count
// under name+".count".
func tail(m map[string]float64, name string, xs []float64, p float64) {
	if v, ok := tailPercentile(xs, p); ok {
		m[name] = v
	}
	m[name+".count"] = float64(len(xs))
}

// checkRepeat records the first repetition's digests and fails any later
// repetition whose digests differ: every repetition of a simulator
// workload runs the same inputs, so the executions must be identical.
func checkRepeat(first *[]uint64, res *repResult) {
	if *first == nil {
		*first = res.digests
		return
	}
	if !equalDigests(*first, res.digests) {
		res.fail("digests %x differ from repetition 0's %x", res.digests, *first)
	}
}

// anySlice converts typed protocol outputs to the []any the oracles take.
func anySlice[T any](xs []T) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// checkOracles runs a protocol's safety oracles over a finished run.
func checkOracles(oracles []core.Oracle, view *core.RunView) error {
	for _, o := range oracles {
		if err := o.Check(view); err != nil {
			return fmt.Errorf("oracle %s: %w", o.Name, err)
		}
	}
	return nil
}
