package main

import (
	"fmt"
	"runtime"
	"time"

	"sublinear/internal/core"
	"sublinear/internal/fault"
	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// paperCrash runs the paper's three protocols at n=2^17, alpha=0.5,
// f=n/2 under a random crash plan with the adversarial DropHalf split:
// core.RunElection, core.RunAgreement and core.RunMinAgreement, in that
// order, on the parallel engine.
type paperCrash struct {
	seed   uint64
	inputs []int
	values []uint64

	first []uint64    // repetition 0's digests
	calls []paperCall // untraced pass, every call of every repetition
	trace []paperCall // traced pass, likewise
}

const (
	paperN     = 1 << 17
	paperAlpha = 0.5
	paperF     = paperN / 2
)

// paperCall is one protocol call's measurements; tr and adv are set in
// the traced pass.
type paperCall struct {
	name string
	simCall
	tr  *roundTracer
	adv *countingAdversary
}

func (p *paperCrash) setup(seed uint64) error {
	p.seed = seed
	p.inputs = core.DeriveAgreementInputs(paperN, seed, 0.5)
	p.values = core.DeriveMinAgreementValues(paperN, seed)
	return nil
}

// crashPlan builds the crash adversary exactly as sublinear.Elect does
// for FaultModel{Faulty: f}: the same seed derivation, a crash horizon
// spanning the longer protocol, and the DropHalf policy. Each call needs
// a fresh plan because DeliverOnCrash consumes the plan's coin.
func crashPlan(n, f int, alpha float64, seed uint64) (netsim.Adversary, error) {
	d, err := core.DeriveParams(core.Params{}, n, alpha)
	if err != nil {
		return nil, err
	}
	horizon := max(d.ElectionRounds, d.AgreementRounds)
	return fault.NewRandomPlan(n, f, horizon, fault.DropHalf, rng.New(seed^0x5eedfa17))
}

func (p *paperCrash) rep(r int, spans *spanLog, parent int, trace string) repResult {
	var res repResult
	var calls []paperCall
	for _, name := range []string{"election", "agreement", "minagree"} {
		call := paperCall{name: name, simCall: simCall{n: paperN}}
		adv, err := crashPlan(paperN, paperF, paperAlpha, p.seed)
		if err != nil {
			res.attempted++
			res.fail("%s: crash plan: %v", name, err)
			continue
		}
		var tracer netsim.Tracer
		id := 0
		if spans != nil {
			adv, call.adv = wrapAdversary(adv)
			id = spans.begin("core."+name, parent, trace)
			call.tr = newRoundTracer(paperN, func(u, port int) int { return netsim.Peer(paperN, u, port) }, spans, id, trace)
			tracer = call.tr
		}
		cfg := core.RunConfig{N: paperN, Alpha: paperAlpha, Seed: p.seed, Adversary: adv, Tracer: tracer, Mode: netsim.Parallel}
		res.attempted++
		runtime.GC() // start every timed call from a collected heap
		t0 := time.Now()
		view, digest, err := p.call(name, cfg)
		call.wall = time.Since(t0)
		spans.end(id)
		res.wall += call.wall
		res.digests = append(res.digests, digest)
		if view != nil {
			call.rounds, call.msgs, call.bits = view.Rounds, view.Messages, view.Bits
			res.msgs += view.Messages
		}
		if err != nil {
			res.fail("%s: %v", name, err)
		} else if call.tr != nil {
			if err := call.tr.check(call.msgs, call.rounds, digest); err != nil {
				res.fail("%s: %v", name, err)
			}
			if call.tr.crashes != call.adv.crashes {
				res.fail("%s: tracer saw %d crashes, the adversary decided %d", name, call.tr.crashes, call.adv.crashes)
			}
		}
		calls = append(calls, call)
	}
	if spans == nil {
		checkRepeat(&p.first, &res)
		p.calls = append(p.calls, calls...)
	} else {
		p.trace = append(p.trace, calls...)
	}
	return res
}

// call runs one protocol, checks its Eval verdict and the protocol's
// safety oracles, and returns the run view and execution digest.
func (p *paperCrash) call(name string, cfg core.RunConfig) (*core.RunView, uint64, error) {
	budget := netsim.PerMessageBudget(cfg.N, core.DefaultCongestFactor)
	var (
		view    *core.RunView
		digest  uint64
		oracles []core.Oracle
		verdict error
	)
	switch name {
	case "election":
		r, err := core.RunElection(cfg)
		if err != nil {
			return nil, 0, err
		}
		view = core.NewRunView(anySlice(r.Outputs), r.CrashedAt, r.Faulty, r.Rounds, r.Counters, budget, 0)
		digest, oracles = r.Digest, core.ElectionOracles()
		if !r.Eval.Success {
			verdict = fmt.Errorf("eval failed: %s", r.Eval.Reason)
		}
	case "agreement":
		r, err := core.RunAgreement(cfg, p.inputs)
		if err != nil {
			return nil, 0, err
		}
		view = core.NewRunView(anySlice(r.Outputs), r.CrashedAt, r.Faulty, r.Rounds, r.Counters, budget, 0)
		digest, oracles = r.Digest, core.AgreementOracles()
		if !r.Eval.Success {
			verdict = fmt.Errorf("eval failed: %s", r.Eval.Reason)
		}
	default:
		r, err := core.RunMinAgreement(cfg, p.values)
		if err != nil {
			return nil, 0, err
		}
		view = core.NewRunView(anySlice(r.Outputs), r.CrashedAt, r.Faulty, r.Rounds, r.Counters, budget, 0)
		digest, oracles = r.Digest, core.MinAgreementOracles()
		if !r.Eval.Success {
			verdict = fmt.Errorf("eval failed: %s", r.Eval.Reason)
		}
	}
	if verdict != nil {
		return view, digest, verdict
	}
	return view, digest, checkOracles(oracles, view)
}

func (p *paperCrash) stage(uint64) error { return nil }

func (p *paperCrash) close() {}

func (p *paperCrash) perLayer(untraced, traced []repResult) (map[string]float64, []string) {
	m := map[string]float64{}
	byName := func(calls []paperCall, name string) []float64 {
		var xs []float64
		for _, c := range calls {
			if c.name == name {
				xs = append(xs, c.wall.Seconds())
			}
		}
		return xs
	}
	m["core.elect_s"] = median(byName(p.calls, "election"))
	m["core.agree_s"] = median(byName(p.calls, "agreement"))
	m["core.minagree_s"] = median(byName(p.calls, "minagree"))
	sims := make([]simCall, len(p.calls))
	for i, c := range p.calls {
		sims[i] = c.simCall
	}
	engineCounts(m, sims, len(untraced))

	var tracers []*roundTracer
	var adv countingAdversary
	for _, c := range p.trace {
		tracers = append(tracers, c.tr)
		adv.calls += c.adv.calls
		adv.crashes += c.adv.crashes
		adv.busy += c.adv.busy
		adv.sampled += c.adv.sampled
	}
	reps := float64(len(traced))
	m["fault.calls"] = float64(adv.calls) / reps
	m["fault.crashes"] = float64(adv.crashes) / reps
	m["fault.busy_s"] = adv.busySeconds(clockOverhead()) / reps
	activeFrac(m, tracers)
	netsimRounds(m, tracers)
	return m, nil
}
