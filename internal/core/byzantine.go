package core

import (
	"fmt"

	"sublinear/internal/netsim"
)

// Byzantine behaviour study. The paper's concluding open problem (3) asks
// whether sublinear-message agreement is possible under Byzantine faults.
// This file provides the negative half of the answer for the paper's own
// algorithms: machines that deviate from the protocol and break its
// guarantees with a single faulty node, demonstrating that the crash-fault
// design has no Byzantine slack at all (experiment E11).

// byzElectionHijacker impersonates a candidate with the maximum possible
// rank and immediately claims leadership. Because the honest protocol
// converges on the highest visibly-claimed rank, a single hijacker wins
// every election, destroying the "leader is non-faulty with probability
// alpha" guarantee.
type byzElectionHijacker struct {
	d         derived
	lastRound int
	endRound  int
	rank      uint64
	refPorts  []int
}

var _ netsim.Machine = (*byzElectionHijacker)(nil)

func newByzElectionHijacker(d derived) *byzElectionHijacker {
	return &byzElectionHijacker{d: d, endRound: electionRounds(d)}
}

func (m *byzElectionHijacker) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	switch round {
	case 1:
		// Forge the largest admissible rank and grab a referee set like
		// an honest candidate would.
		m.rank = m.d.rankRange
		ports := env.Rand.SampleDistinct(m.d.refereeCount, env.N-1, nil)
		m.refPorts = make([]int, len(ports))
		sends := make([]netsim.Send, len(ports))
		for i, p := range ports {
			m.refPorts[i] = p + 1
			sends[i] = netsim.Send{Port: p + 1, Payload: rankAnnounce{rank: m.rank}}
		}
		return sends
	case 2:
		// Propose itself without waiting for the protocol schedule...
		sends := make([]netsim.Send, len(m.refPorts))
		for i, p := range m.refPorts {
			sends[i] = netsim.Send{Port: p, Payload: proposeMsg{id: m.rank, prop: m.rank}}
		}
		return sends
	case 3:
		// ...and claim victory immediately.
		sends := make([]netsim.Send, len(m.refPorts))
		for i, p := range m.refPorts {
			sends[i] = netsim.Send{Port: p, Payload: claimMsg{rank: m.rank, self: true}}
		}
		return sends
	}
	return nil
}

func (m *byzElectionHijacker) Done() bool { return m.lastRound >= 3 }

func (m *byzElectionHijacker) Output() any {
	return ElectionOutput{
		IsCandidate:  true,
		Rank:         m.rank,
		State:        Elected, // the hijacker always considers itself elected
		LeaderRank:   m.rank,
		SelfProposed: true,
	}
}

// byzAgreementPoisoner registers as a candidate and then injects a 0 it
// does not hold, violating validity whenever the honest inputs are all 1.
type byzAgreementPoisoner struct {
	d         derived
	lastRound int
	refPorts  []int
}

var _ netsim.Machine = (*byzAgreementPoisoner)(nil)

func newByzAgreementPoisoner(d derived) *byzAgreementPoisoner {
	return &byzAgreementPoisoner{d: d}
}

func (m *byzAgreementPoisoner) Step(env *netsim.Env, round int, _ []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	switch round {
	case 1:
		ports := env.Rand.SampleDistinct(m.d.refereeCount, env.N-1, nil)
		m.refPorts = make([]int, len(ports))
		sends := make([]netsim.Send, len(ports))
		for i, p := range ports {
			m.refPorts[i] = p + 1
			// Register claiming input 1; the lie comes next round.
			sends[i] = netsim.Send{Port: p + 1, Payload: bitRegister{bit: 1}}
		}
		return sends
	case 2:
		sends := make([]netsim.Send, len(m.refPorts))
		for i, p := range m.refPorts {
			sends[i] = netsim.Send{Port: p, Payload: zeroMsg{}}
		}
		return sends
	}
	return nil
}

func (m *byzAgreementPoisoner) Done() bool { return m.lastRound >= 2 }

func (m *byzAgreementPoisoner) Output() any {
	// The poisoner reports whatever serves it; input recorded as 1 so
	// that a 0 decision is a provable validity violation.
	return AgreementOutput{IsCandidate: true, Input: 1, Decided: true, Value: 0}
}

// ByzantineElectionResult reports one hijacked election run.
type ByzantineElectionResult struct {
	// Result is the underlying run (evaluated against the honest
	// nodes' outputs as usual).
	Result *ElectionResult
	// Hijacked reports that the honest nodes converged on the forged
	// rank — the Byzantine node stole the election.
	Hijacked bool
}

// RunElectionWithByzantine runs the election with the first byz nodes
// replaced by Byzantine hijackers (the adversary in the Byzantine model
// controls node placement, so indices are immaterial).
func RunElectionWithByzantine(cfg RunConfig, byz int) (*ByzantineElectionResult, error) {
	d, err := deriveParams(cfg.Params, cfg.N, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if byz < 0 || byz >= cfg.N {
		return nil, fmt.Errorf("core: byz = %d out of range", byz)
	}
	machines := make([]netsim.Machine, cfg.N)
	for u := range machines {
		if u < byz {
			machines[u] = newByzElectionHijacker(d)
		} else {
			machines[u] = newElectionMachine(d)
		}
	}
	engine, err := netsim.NewEngine(cfg.engineConfig(electionRounds(d)), machines, cfg.Adversary)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run()
	if err != nil {
		return nil, fmt.Errorf("byzantine election run: %w", err)
	}
	out := &ElectionResult{
		Outputs:   make([]ElectionOutput, cfg.N),
		CrashedAt: res.CrashedAt,
		Faulty:    res.Faulty,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
	}
	for u, o := range res.Outputs {
		eo, ok := o.(ElectionOutput)
		if !ok {
			return nil, fmt.Errorf("byzantine election run: node %d returned %T", u, o)
		}
		out.Outputs[u] = eo
	}
	out.Eval = evaluateElection(out.Outputs, res.CrashedAt, d.params.Explicit)
	hijacked := out.Eval.AgreedRank == d.rankRange
	if !hijacked {
		// Even without full agreement bookkeeping, any honest candidate
		// believing in the forged rank counts as a successful attack on
		// that node.
		for u := byz; u < cfg.N; u++ {
			if out.Outputs[u].IsCandidate && out.Outputs[u].LeaderRank == d.rankRange {
				hijacked = true
				break
			}
		}
	}
	return &ByzantineElectionResult{Result: out, Hijacked: hijacked}, nil
}

// ByzantineAgreementResult reports one poisoned agreement run.
type ByzantineAgreementResult struct {
	// Result is the underlying run.
	Result *AgreementResult
	// ValidityViolated reports that honest nodes decided 0 although
	// every honest input was 1.
	ValidityViolated bool
}

// RunAgreementWithByzantine runs the agreement with all honest inputs 1
// and the first byz nodes replaced by poisoners injecting 0.
func RunAgreementWithByzantine(cfg RunConfig, byz int) (*ByzantineAgreementResult, error) {
	d, err := deriveParams(cfg.Params, cfg.N, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if byz < 0 || byz >= cfg.N {
		return nil, fmt.Errorf("core: byz = %d out of range", byz)
	}
	machines := make([]netsim.Machine, cfg.N)
	inputs := make([]int, cfg.N)
	for u := range machines {
		inputs[u] = 1
		if u < byz {
			machines[u] = newByzAgreementPoisoner(d)
		} else {
			machines[u] = newAgreementMachine(d, 1)
		}
	}
	engine, err := netsim.NewEngine(cfg.engineConfig(agreementRounds(d, 0)), machines, cfg.Adversary)
	if err != nil {
		return nil, err
	}
	res, err := engine.Run()
	if err != nil {
		return nil, fmt.Errorf("byzantine agreement run: %w", err)
	}
	out := &AgreementResult{
		Outputs:   make([]AgreementOutput, cfg.N),
		CrashedAt: res.CrashedAt,
		Faulty:    res.Faulty,
		Rounds:    res.Rounds,
		Counters:  res.Counters,
	}
	for u, o := range res.Outputs {
		ao, ok := o.(AgreementOutput)
		if !ok {
			return nil, fmt.Errorf("byzantine agreement run: node %d returned %T", u, o)
		}
		out.Outputs[u] = ao
	}
	out.Eval = evaluateAgreement(out.Outputs, inputs, res.CrashedAt, d.params.Explicit)
	violated := false
	for u := byz; u < cfg.N; u++ {
		if res.CrashedAt[u] == 0 && out.Outputs[u].Decided && out.Outputs[u].Value == 0 {
			violated = true // an honest node decided a value no honest node held
			break
		}
	}
	return &ByzantineAgreementResult{Result: out, ValidityViolated: violated}, nil
}
