// Command ftagree runs one fault-tolerant implicit agreement on the
// simulated network and prints the outcome and resource usage.
//
// Usage:
//
//	ftagree -n 4096 -alpha 0.5 -f 2048 -pone 0.5 -seed 1 [-explicit] [-v] [-timeout 30s]
//
// Exit status: 0 on success, 1 on usage or run errors, 2 when the
// protocol ran but failed its success predicate — so scripted smoke
// tests can distinguish "broken invocation" from "agreement failed".
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"sublinear"
	"sublinear/internal/cliutil"
	"sublinear/internal/cloud"
)

// errProtocolFailure marks a run that completed but did not satisfy the
// agreement success predicate; the failure details are already printed.
var errProtocolFailure = errors.New("protocol failure")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errProtocolFailure) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ftagree:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int("n", 1024, "network size")
		alpha    = flag.Float64("alpha", 0.5, "guaranteed non-faulty fraction")
		f        = flag.Int("f", -1, "faulty nodes (-1 = (1-alpha)*n)")
		pone     = flag.Float64("pone", 0.5, "probability a node's input bit is 1")
		policy   = flag.String("policy", "half", "crash-round delivery: all|none|half|random")
		seed     = flag.Uint64("seed", 1, "run seed")
		explicit = flag.Bool("explicit", false, "run the explicit extension")
		verbose  = flag.Bool("v", false, "print per-kind message counts")
		clouds   = flag.Bool("clouds", false, "record the message trace and print the influence-cloud analysis (Sections IV-B/V-B)")
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

	opts := sublinear.Options{N: *n, Alpha: *alpha, Seed: *seed, Explicit: *explicit}
	if *f > 0 {
		opts.Faults = &sublinear.FaultModel{Faulty: *f, Policy: pol}
	}
	inputs := sublinear.RandomInputs(*n, *pone, *seed^0xfeed)
	zeros := 0
	for _, b := range inputs {
		if b == 0 {
			zeros++
		}
	}

	var rec *cloud.Recorder
	if *clouds {
		rec = cloud.NewRecorder(*n)
		opts.Tracer = rec
	}
	res, err := cliutil.RunTimeout(*timeout, func() (*sublinear.AgreementResult, error) {
		return sublinear.Agree(opts, inputs)
	})
	if err != nil {
		return err
	}
	ev := res.Eval
	fmt.Printf("inputs: %d zeros, %d ones\n", zeros, *n-zeros)
	fmt.Printf("success=%v candidates=%d live=%d decided=%d rounds=%d messages=%d bits=%d\n",
		ev.Success, ev.Candidates, ev.LiveCandidates, ev.DecidedLive, res.Rounds,
		res.Counters.Messages(), res.Counters.Bits())
	var runErr error
	if ev.Success {
		fmt.Printf("agreed value: %d\n", ev.Value)
	} else {
		fmt.Printf("failure: %s\n", ev.Reason)
		runErr = errProtocolFailure
	}
	if *verbose {
		fmt.Printf("counters: %s\n", res.Counters)
	}
	if rec != nil {
		an := cloud.Analyze(rec)
		fmt.Printf("communication graph: %d touched nodes, %d directed edges, %d weak components\n",
			an.TouchedNodes, rec.EdgeCount(), an.Components)
		fmt.Printf("influence clouds: %d initiators, %d disjoint clouds, smallest cloud %d nodes\n",
			len(an.Initiators), an.DisjointClouds, an.SmallestCloud)
	}
	return runErr
}
