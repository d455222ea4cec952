// Command ftle runs one fault-tolerant leader election on the simulated
// network and prints the outcome and resource usage.
//
// Usage:
//
//	ftle -n 4096 -alpha 0.5 -f 2048 -policy half -seed 1 [-explicit] [-hunter] [-v] [-timeout 30s]
//
// Exit status: 0 on success, 1 on usage or run errors, 2 when the
// protocol ran but failed its success predicate — so scripted smoke
// tests can distinguish "broken invocation" from "election failed".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"sublinear"
	"sublinear/internal/cliutil"
	"sublinear/internal/cloud"
	"sublinear/internal/viz"
)

// errProtocolFailure marks a run that completed but did not satisfy the
// election success predicate; the failure details are already printed.
var errProtocolFailure = errors.New("protocol failure")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errProtocolFailure) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ftle:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1024, "network size")
		alpha    = flag.Float64("alpha", 0.5, "guaranteed non-faulty fraction")
		f        = flag.Int("f", -1, "faulty nodes (-1 = (1-alpha)*n)")
		policy   = flag.String("policy", "half", "crash-round delivery: all|none|half|random")
		seed     = flag.Uint64("seed", 1, "run seed")
		explicit = flag.Bool("explicit", false, "run the explicit extension")
		hunter   = flag.Bool("hunter", false, "use the adaptive committee-hunting adversary")
		late     = flag.Bool("late", false, "crash all faulty nodes after the election")
		verbose  = flag.Bool("v", false, "print per-kind message counts and candidate details")
		profile  = flag.Bool("profile", false, "print the per-round message profile")
		clouds   = flag.Bool("clouds", false, "record the message trace and print the influence-cloud analysis (Section IV-B)")
		reps     = flag.Int("reps", 1, "repeat with consecutive seeds and print aggregate statistics")
		timeout  = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	)
	flag.Parse()

	if *f < 0 {
		*f = int((1 - *alpha) * float64(*n))
	}
	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	opts := sublinear.Options{
		N: *n, Alpha: *alpha, Seed: *seed, Explicit: *explicit,
	}
	if *f > 0 {
		opts.Faults = &sublinear.FaultModel{
			Faulty: *f, Policy: pol, Hunter: *hunter, CrashAfterElection: *late,
		}
	}

	if d, err := sublinear.Describe(opts.Tuning, *n, *alpha); err == nil {
		fmt.Printf("parameters: E[|C|]=%.1f referees/candidate=%d iterations=%d round budget=%d\n",
			d.ExpectedCandidates, d.RefereeCount, d.Iterations, d.ElectionRounds)
	}

	if *reps > 1 {
		return runReps(opts, *reps, *timeout)
	}

	var rec *cloud.Recorder
	if *clouds {
		rec = cloud.NewRecorder(*n)
		opts.Tracer = rec
	}
	res, err := cliutil.RunTimeout(*timeout, func() (*sublinear.ElectionResult, error) {
		return sublinear.Elect(opts)
	})
	if err != nil {
		return err
	}
	ev := res.Eval
	fmt.Printf("success=%v candidates=%d live=%d rounds=%d messages=%d bits=%d\n",
		ev.Success, ev.Candidates, ev.LiveCandidates, res.Rounds,
		res.Counters.Messages(), res.Counters.Bits())
	if ev.Success {
		status := "alive"
		if ev.LeaderCrashed {
			status = "crashed after election"
		}
		faulty := "non-faulty"
		if res.Faulty[ev.LeaderNode] {
			faulty = "faulty"
		}
		fmt.Printf("leader: node %d (rank %d), %s, %s\n", ev.LeaderNode, ev.AgreedRank, status, faulty)
	}
	var runErr error
	if !ev.Success {
		fmt.Printf("failure: %s\n", ev.Reason)
		runErr = errProtocolFailure
	}
	if *verbose {
		fmt.Printf("counters: %s\n", res.Counters)
		for u, o := range res.Outputs {
			if o.IsCandidate {
				fmt.Printf("  candidate node %d: rank=%d state=%v leaderRank=%d crashedAt=%d\n",
					u, o.Rank, o.State, o.LeaderRank, res.CrashedAt[u])
			}
		}
	}
	if rec != nil {
		an := cloud.Analyze(rec)
		fmt.Printf("communication graph: %d touched nodes, %d directed edges, %d weak components\n",
			an.TouchedNodes, rec.EdgeCount(), an.Components)
		fmt.Printf("influence clouds: %d initiators, %d disjoint clouds, smallest cloud %d nodes\n",
			len(an.Initiators), an.DisjointClouds, an.SmallestCloud)
	}
	if *profile {
		series := res.Counters.PerRound()
		values := make([]float64, len(series))
		for i, ru := range series {
			values[i] = float64(ru.Messages)
		}
		fmt.Printf("round profile (1 cell ~ %d rounds): %s\n",
			max(1, len(values)/72), viz.Sparkline(viz.Downsample(values, 72)))
		fmt.Println("rounds with traffic:")
		for _, ru := range series {
			if ru.Messages > 0 {
				fmt.Printf("  round %4d: %7d msgs %9d bits\n", ru.Round, ru.Messages, ru.Bits)
			}
		}
	}
	return runErr
}

// runReps repeats the election with consecutive seeds and prints
// aggregate statistics. It fails (exit status 2) when any run fails.
func runReps(opts sublinear.Options, reps int, timeout time.Duration) error {
	var (
		success, nonFaulty, leaderLive int
		msgs, rounds                   float64
	)
	base := opts.Seed
	for i := 0; i < reps; i++ {
		opts.Seed = base + uint64(i)*7919
		res, err := cliutil.RunTimeout(timeout, func() (*sublinear.ElectionResult, error) {
			return sublinear.Elect(opts)
		})
		if err != nil {
			return err
		}
		msgs += float64(res.Counters.Messages())
		rounds += float64(res.Rounds)
		if res.Eval.Success {
			success++
			if !res.Eval.LeaderCrashed {
				leaderLive++
			}
			if res.Eval.LeaderNode >= 0 && !res.Faulty[res.Eval.LeaderNode] {
				nonFaulty++
			}
		} else {
			fmt.Printf("seed offset %d FAILED: %s\n", i, res.Eval.Reason)
		}
	}
	fr := float64(reps)
	fmt.Printf("aggregate over %d runs: success=%d/%d leader-non-faulty=%d leader-never-crashed=%d\n",
		reps, success, reps, nonFaulty, leaderLive)
	fmt.Printf("means: %.0f messages, %.1f rounds\n", msgs/fr, rounds/fr)
	if success < reps {
		return errProtocolFailure
	}
	return nil
}
