package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"sublinear"
	"sublinear/internal/core"
	"sublinear/internal/netsim"
	"sublinear/internal/wire"
)

// tcpElect runs sublinear.Elect over real TCP loopback sockets (the
// realnet engine and the wire codec) at n=256 with f=n/2 crash faults,
// one call at a time from one goroutine.
type tcpElect struct {
	opts     sublinear.Options
	inMemory uint64 // the in-memory simulator's digest at the same seed

	first   []uint64
	calls   []simCall
	tracers []*roundTracer
	connect []float64 // traced: call start to the first TraceRound, s
}

const tcpN = 256

// setup runs the in-memory reference election that the digest check
// needs, so tcp-elect's setup_s times the netsim engine at n=256. The
// TCP connections are made inside each call (realnet.connect_s).
func (t *tcpElect) setup(seed uint64) error {
	t.opts = sublinear.Options{N: tcpN, Alpha: 0.5, Seed: seed, TCP: true, Faults: &sublinear.FaultModel{Faulty: tcpN / 2}}
	// The expected digest: the in-memory simulator on the same seed.
	mem := t.opts
	mem.TCP = false
	r, err := sublinear.Elect(mem)
	if err != nil {
		return fmt.Errorf("in-memory reference: %w", err)
	}
	t.inMemory = r.Digest
	return nil
}

func (t *tcpElect) rep(r int, spans *spanLog, parent int, trace string) repResult {
	var res repResult
	opts := t.opts
	var tr *roundTracer
	id := spans.begin("sublinear.Elect/tcp", parent, trace)
	if spans != nil {
		tr = newRoundTracer(tcpN, func(u, p int) int { return netsim.Peer(tcpN, u, p) }, spans, id, trace)
		tr.sizes = map[int]int64{}
		opts.Tracer = tr
	}
	res.attempted++
	t0 := time.Now()
	out, err := sublinear.Elect(opts)
	res.wall = time.Since(t0)
	spans.end(id)
	if err != nil {
		res.fail("tcp election: %v", err)
		res.digests = []uint64{0}
		return res
	}
	res.digests = []uint64{out.Digest}
	res.msgs = out.Counters.Messages()
	if !out.Eval.Success {
		res.fail("tcp election: eval failed: %s", out.Eval.Reason)
	}
	view := core.NewRunView(anySlice(out.Outputs), out.CrashedAt, out.Faulty, out.Rounds, out.Counters,
		netsim.PerMessageBudget(tcpN, core.DefaultCongestFactor), 0)
	if err := checkOracles(core.ElectionOracles(), view); err != nil {
		res.fail("tcp election: %v", err)
	}
	if out.Digest != t.inMemory {
		res.fail("tcp election: digest %x, in-memory simulator %x", out.Digest, t.inMemory)
	}
	if tr == nil {
		checkRepeat(&t.first, &res)
		t.calls = append(t.calls, simCall{wall: res.wall, n: tcpN, rounds: out.Rounds, msgs: res.msgs, bits: out.Counters.Bits()})
		return res
	}
	if err := tr.check(res.msgs, out.Rounds, out.Digest); err != nil {
		res.fail("tcp election: %v", err)
	}
	if len(tr.starts) > 0 {
		t.connect = append(t.connect, tr.starts[0].Sub(t0).Seconds())
	}
	t.tracers = append(t.tracers, tr)
	return res
}

func (t *tcpElect) stage(uint64) error { return nil }

func (t *tcpElect) close() {}

func (t *tcpElect) perLayer(untraced, traced []repResult) (map[string]float64, []string) {
	m := map[string]float64{}
	engineCounts(m, t.calls, len(untraced))
	activeFrac(m, t.tracers)
	var rounds []float64
	sizes := map[int]int64{}
	for _, tr := range t.tracers {
		rounds = append(rounds, tr.roundDurations()...)
		for bits, c := range tr.sizes {
			sizes[bits] += c
		}
	}
	m["realnet.connect_s"] = median(t.connect)
	m["realnet.round_us_p50"] = median(rounds)
	tail(m, "realnet.round_us_p99", rounds, 99)
	ns, err := frameNS(sizes)
	if err != nil {
		return m, []string{err.Error()}
	}
	m["wire.frame_ns"] = ns
	return m, nil
}

// frameRoundTrips is how many write+read round trips frameNS times per
// payload size.
const frameRoundTrips = 20000

// frameNS times one wire.WriteTypedFrame + wire.ReadTypedFrame round trip
// through memory at each payload size the traced run recorded (message
// bits rounded up to whole bytes), and returns the mean weighted by how
// many messages had that size. A round trip that fails or returns
// another payload length is an error.
func frameNS(sizes map[int]int64) (float64, error) {
	if len(sizes) == 0 {
		return 0, errors.New("wire frame: the traced calls recorded no message sizes")
	}
	bitSizes := make([]int, 0, len(sizes))
	for b := range sizes {
		bitSizes = append(bitSizes, b)
	}
	sort.Ints(bitSizes)
	var buf bytes.Buffer
	var weighted, total float64
	for _, b := range bitSizes {
		body := make([]byte, (b+7)/8)
		readBuf := make([]byte, len(body)+1)
		t0 := time.Now()
		for i := 0; i < frameRoundTrips; i++ {
			if err := wire.WriteTypedFrame(&buf, 1, body); err != nil {
				return 0, fmt.Errorf("wire frame: write %d bytes: %w", len(body), err)
			}
			_, got, err := wire.ReadTypedFrame(&buf, readBuf)
			if err != nil {
				return 0, fmt.Errorf("wire frame: read %d bytes: %w", len(body), err)
			}
			if len(got) != len(body) {
				return 0, fmt.Errorf("wire frame: wrote %d bytes, read %d", len(body), len(got))
			}
		}
		per := float64(time.Since(t0).Nanoseconds()) / frameRoundTrips
		weighted += per * float64(sizes[b])
		total += float64(sizes[b])
	}
	return weighted / total, nil
}
