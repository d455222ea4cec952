package main

import (
	"runtime"
	"time"

	"sublinear/internal/baseline"
	"sublinear/internal/core"
	"sublinear/internal/netsim"
	"sublinear/internal/topo"
)

// denseFlood runs the message-dense Table I comparators fault-free on
// both routers: clique push gossip on the netsim engine, and the
// well-connected election on a precompiled 8-regular topology on the
// topo engine.
type denseFlood struct {
	seed     uint64
	inputs   []int
	tp       *topo.Topology
	compiles []float64

	first  []uint64
	gossip []simCall
	wc     []simCall
	gTr    []*roundTracer
	wTr    []*roundTracer
}

const (
	denseN = 1 << 18
	// wcRounds is the flooding horizon: above the diameter of an
	// 8-regular random graph at n=2^18 (about 7), so the maximum-key
	// candidate reaches every node, without the O(n*m) exact diameter.
	wcRounds = 12
)

func (d *denseFlood) setup(seed uint64) error {
	d.seed = seed
	t0 := time.Now()
	tp, err := topo.ResolveTopology("wellconnected", denseN, seed)
	if err != nil {
		return err
	}
	d.compiles = append(d.compiles, time.Since(t0).Seconds())
	d.tp = tp
	d.inputs = core.DeriveAgreementInputs(denseN, seed, 0.5)
	return nil
}

func (d *denseFlood) rep(r int, spans *spanLog, parent int, trace string) repResult {
	var res repResult

	var gTr *roundTracer
	var tracer netsim.Tracer
	id := spans.begin("baseline.gossip", parent, trace)
	if spans != nil {
		gTr = newRoundTracer(denseN, func(u, p int) int { return netsim.Peer(denseN, u, p) }, spans, id, trace)
		tracer = gTr
	}
	res.attempted++
	runtime.GC() // start every timed call from a collected heap
	t0 := time.Now()
	g, err := baseline.RunGossip(baseline.GossipConfig{N: denseN, Seed: d.seed, Mode: netsim.Parallel, Tracer: tracer}, d.inputs, nil)
	gw := time.Since(t0)
	spans.end(id)
	res.wall += gw
	d.record(&res, "gossip", g, err, gw, gTr, &d.gossip, &d.gTr)

	var wTr *roundTracer
	tracer = nil
	id = spans.begin("baseline.wcelection", parent, trace)
	if spans != nil {
		wTr = newRoundTracer(denseN, func(u, p int) int { v, _ := d.tp.Edge(u, p); return v }, spans, id, trace)
		tracer = wTr
	}
	res.attempted++
	runtime.GC() // start every timed call from a collected heap
	t0 = time.Now()
	w, err := baseline.RunWCElection(baseline.WCConfig{N: denseN, Seed: d.seed, Topology: d.tp, Rounds: wcRounds, Tracer: tracer}, nil)
	ww := time.Since(t0)
	spans.end(id)
	res.wall += ww
	d.record(&res, "wcelection", w, err, ww, wTr, &d.wc, &d.wTr)

	if spans == nil {
		checkRepeat(&d.first, &res)
	}
	return res
}

// record checks one call's output and files its measurements under the
// untraced (calls) or traced (tracers) pass.
func (d *denseFlood) record(res *repResult, name string, out *baseline.Result, err error, wall time.Duration,
	tr *roundTracer, calls *[]simCall, tracers *[]*roundTracer) {
	if err != nil {
		res.fail("%s: %v", name, err)
		res.digests = append(res.digests, 0)
		return
	}
	res.digests = append(res.digests, out.Digest)
	res.msgs += out.Counters.Messages()
	if !out.Success {
		res.fail("%s: %s", name, out.Reason)
	}
	if tr == nil {
		*calls = append(*calls, simCall{wall: wall, n: denseN, rounds: out.Rounds, msgs: out.Counters.Messages(), bits: out.Counters.Bits()})
		return
	}
	if err := tr.check(out.Counters.Messages(), out.Rounds, out.Digest); err != nil {
		res.fail("%s: %v", name, err)
	}
	*tracers = append(*tracers, tr)
}

func (d *denseFlood) stage(uint64) error { return nil }

func (d *denseFlood) close() {}

func (d *denseFlood) perLayer(untraced, traced []repResult) (map[string]float64, []string) {
	m := map[string]float64{}
	walls := func(calls []simCall) []float64 {
		xs := make([]float64, len(calls))
		for i, c := range calls {
			xs[i] = c.wall.Seconds()
		}
		return xs
	}
	m["baseline.gossip_s"] = median(walls(d.gossip))
	m["baseline.wc_s"] = median(walls(d.wc))
	engineCounts(m, append(append([]simCall(nil), d.gossip...), d.wc...), len(untraced))
	var gWall, gMsgs float64
	for _, c := range d.gossip {
		gWall += float64(c.wall.Nanoseconds())
		gMsgs += float64(c.msgs)
	}
	m["netsim.msg_ns"] = gWall / gMsgs
	activeFrac(m, append(append([]*roundTracer(nil), d.gTr...), d.wTr...))
	netsimRounds(m, d.gTr)

	var perMsg, rounds []float64
	for _, t := range d.wTr {
		perMsg = append(perMsg, float64(t.finished.Sub(t.starts[0]).Nanoseconds())/float64(t.msgs))
		rounds = append(rounds, t.roundDurations()...)
	}
	m["topo.msg_ns"] = median(perMsg)
	m["topo.round_us_p50"] = median(rounds)
	m["topo.compile_s"] = median(d.compiles)
	return m, nil
}
