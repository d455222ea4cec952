package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"sublinear/internal/metrics"
	"sublinear/internal/netsim"
)

// span is one timed interval of the traced run. The hierarchy is
// workload → repetition or job → layer call → round; every span of one
// repetition or job carries the same Trace ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the workload root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the run's epoch
	End    int64  `json:"endNs"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced passes share the code path.
// The simd workload records from two client goroutines, hence the lock.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// begin opens a span now and returns its ID (0 on a nil log).
func (l *spanLog) begin(name string, parent int, trace string) int {
	if l == nil {
		return 0
	}
	return l.add(name, parent, trace, time.Now(), time.Time{})
}

// add records a span with explicit bounds; a zero end leaves it open.
func (l *spanLog) add(name string, parent int, trace string, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := span{ID: len(l.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: start.Sub(l.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(l.epoch).Nanoseconds()
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// end closes span id now.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Now().Sub(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	return f.Close()
}

// roundTracer is the netsim.Tracer the traced run hands to each layer
// call. It times rounds, counts messages and crashes, and counts active
// node-rounds exactly: a node is active in round r when it sends in r or
// receives in r a message sent in r-1 and not lost to its sender's
// crash. Receivers come from the router the run used (netsim.Peer on
// the clique, Topology.Edge on a compiled topology).
type roundTracer struct {
	n    int
	peer func(u, p int) int

	// sendAt[u] is the last round u was marked as a sender; recvAt[r&1][v]
	// the last round of parity r&1 v was marked as a receiver. Receive
	// marks for round r+1 arrive while round r's sends are still being
	// marked, so the two parities keep them apart.
	sendAt []int32
	recvAt [2][]int32
	active []int64 // active node count per round (index = round)

	starts    []time.Time // TraceRound times, index round-1
	finished  time.Time
	lastCrash int
	crashes   int64
	rounds    int
	msgs      int64
	digest    uint64

	// sizes, when non-nil, counts messages per payload size in bits.
	sizes map[int]int64

	spans     *spanLog
	parent    int
	trace     string
	roundSpan int
}

var _ netsim.Tracer = (*roundTracer)(nil)

func newRoundTracer(n int, peer func(u, p int) int, spans *spanLog, parent int, trace string) *roundTracer {
	return &roundTracer{
		n:      n,
		peer:   peer,
		sendAt: make([]int32, n),
		recvAt: [2][]int32{make([]int32, n), make([]int32, n)},
		spans:  spans,
		parent: parent,
		trace:  trace,
	}
}

// check compares what the tracer saw with the call's own result.
func (t *roundTracer) check(msgs int64, rounds int, digest uint64) error {
	if t.msgs != msgs || t.rounds != rounds || t.digest != digest {
		return fmt.Errorf("tracer saw %d msgs in %d rounds, digest %x; the result has %d in %d, digest %x",
			t.msgs, t.rounds, t.digest, msgs, rounds, digest)
	}
	return nil
}

func (t *roundTracer) count(r int) {
	for len(t.active) <= r {
		t.active = append(t.active, 0)
	}
	t.active[r]++
}

func (t *roundTracer) markSend(u, r int) {
	if int(t.sendAt[u]) == r {
		return
	}
	t.sendAt[u] = int32(r)
	if int(t.recvAt[r&1][u]) != r {
		t.count(r)
	}
}

func (t *roundTracer) markRecv(v, r int) {
	if int(t.recvAt[r&1][v]) == r {
		return
	}
	t.recvAt[r&1][v] = int32(r)
	if int(t.sendAt[v]) != r {
		t.count(r)
	}
}

// TraceRound implements netsim.Tracer.
func (t *roundTracer) TraceRound(round int) {
	now := time.Now()
	t.starts = append(t.starts, now)
	if t.spans != nil {
		if t.roundSpan != 0 {
			t.spans.end(t.roundSpan)
		}
		t.roundSpan = t.spans.add(fmt.Sprintf("round %d", round), t.parent, t.trace, now, time.Time{})
	}
}

// TraceCrash implements netsim.Tracer.
func (t *roundTracer) TraceCrash(_, round int) {
	t.crashes++
	t.lastCrash = round
}

// TraceMessage implements netsim.Tracer.
func (t *roundTracer) TraceMessage(sender, round, port int, _ metrics.Kind, bits int, dropped bool) {
	t.msgs++
	if t.sizes != nil {
		t.sizes[bits]++
	}
	t.markSend(sender, round)
	if !dropped {
		t.markRecv(t.peer(sender, port), round+1)
	}
}

// TraceViolation implements netsim.Tracer. The benchmark runs strict
// engines, which abort on a violation, so none reach a finished run.
func (t *roundTracer) TraceViolation(int, int, string) {}

// TraceAnnotation implements netsim.Tracer.
func (t *roundTracer) TraceAnnotation(int, int, string) {}

// TraceFinish implements netsim.Tracer.
func (t *roundTracer) TraceFinish(rounds int, messages, bits int64, digest uint64) {
	t.finished = time.Now()
	t.rounds = rounds
	t.digest = digest
	if t.spans != nil && t.roundSpan != 0 {
		t.spans.end(t.roundSpan)
	}
}

// activeNodeRounds is the number of (node, round) pairs with a send or a
// receive within the executed rounds; receives scheduled for the round
// after the last one never happen and are not counted.
func (t *roundTracer) activeNodeRounds() int64 {
	var sum int64
	for r := 1; r < len(t.active) && r <= t.rounds; r++ {
		sum += t.active[r]
	}
	return sum
}

// roundDurations returns each executed round's duration in
// microseconds: the gap from its TraceRound to the next one, and for the
// last round the gap to TraceFinish.
func (t *roundTracer) roundDurations() []float64 {
	out := make([]float64, len(t.starts))
	for i, s := range t.starts {
		next := t.finished
		if i+1 < len(t.starts) {
			next = t.starts[i+1]
		}
		out[i] = float64(next.Sub(s).Nanoseconds()) / 1e3
	}
	return out
}

// classifyRounds splits per-round durations (index round-1) at the last
// crash round: rounds up to and including it ran the split path (a crash
// pass between stepping and sending), later rounds ran fused. A run
// without crashes (lastCrash 0) is all fused.
func classifyRounds(durs []float64, lastCrash int) (split, fused []float64) {
	k := lastCrash
	if k > len(durs) {
		k = len(durs)
	}
	return durs[:k], durs[k:]
}

// countingAdversary wraps the fault adversary of a traced run. It
// forwards every call unchanged, counts CrashNow and DeliverOnCrash
// calls and the crashes they decide, and times one call in timeEvery:
// CrashNow runs once per live faulty node per round (tens of millions
// of calls per election at n=2^17), and timing each would distort the
// run it measures. A call takes a few nanoseconds, less than reading
// the clock, so busySeconds subtracts the clock's own cost. Every call
// happens on the engine's coordination thread, so the counters need no
// locking.
type countingAdversary struct {
	inner   netsim.Adversary
	calls   int64
	crashes int64
	sampled int64
	busy    time.Duration // summed over sampled calls
}

const timeEvery = 16

func (a *countingAdversary) Faulty(node int) bool { return a.inner.Faulty(node) }

func (a *countingAdversary) CrashNow(node, round int, outbox []netsim.Send) bool {
	a.calls++
	var crash bool
	if a.calls%timeEvery == 0 {
		t0 := time.Now()
		crash = a.inner.CrashNow(node, round, outbox)
		a.busy += time.Since(t0)
		a.sampled++
	} else {
		crash = a.inner.CrashNow(node, round, outbox)
	}
	if crash {
		a.crashes++
	}
	return crash
}

func (a *countingAdversary) DeliverOnCrash(node, round, msgIndex int, send netsim.Send) bool {
	a.calls++
	if a.calls%timeEvery == 0 {
		t0 := time.Now()
		ok := a.inner.DeliverOnCrash(node, round, msgIndex, send)
		a.busy += time.Since(t0)
		a.sampled++
		return ok
	}
	return a.inner.DeliverOnCrash(node, round, msgIndex, send)
}

// busySeconds extrapolates the sampled call time, less the clock
// overhead of each sample, to every call.
func (a *countingAdversary) busySeconds(clock time.Duration) float64 {
	if a.sampled == 0 {
		return 0
	}
	busy := a.busy - time.Duration(a.sampled)*clock
	if busy < 0 {
		busy = 0
	}
	return busy.Seconds() * float64(a.calls) / float64(a.sampled)
}

// clockOverhead is the mean duration time.Since reports for an empty
// timed region: the floor every sampled adversary call carries.
func clockOverhead() time.Duration {
	const samples = 1 << 16
	var sum time.Duration
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return sum / samples
}

// countingPlanner is the countingAdversary of an inner adversary that
// also implements netsim.CrashPlanner; the engine fuses rounds in the
// windows it publishes, so the wrapper must expose it exactly when the
// inner adversary does.
type countingPlanner struct {
	*countingAdversary
	planner netsim.CrashPlanner
}

func (p countingPlanner) NextCrashRound(round int) int { return p.planner.NextCrashRound(round) }

// wrapAdversary returns the adversary to run (CrashPlanner only when
// inner is one) and the counters behind it.
func wrapAdversary(inner netsim.Adversary) (netsim.Adversary, *countingAdversary) {
	c := &countingAdversary{inner: inner}
	if p, ok := inner.(netsim.CrashPlanner); ok {
		return countingPlanner{countingAdversary: c, planner: p}, c
	}
	return c, c
}
