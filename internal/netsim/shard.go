package netsim

// The sharded delivery pipeline. Phase 2 of a round — port validation,
// CONGEST enforcement, accounting, digesting, and inbox placement — used
// to run message-by-message on the coordination thread; the first
// sharded rebuild fanned that work over sender shards but still paid
// three full barriers per round (step, senders, scatter) and kept one
// independently grown inbox slice per node. This file is the second
// rebuild: struct-of-arrays inboxes, double-buffered routing buckets,
// and a fused single-barrier round path.
//
// Round structure (all orchestrated from Engine.Run):
//
//   - Delivery (receiver shards, worker pool): each shard drains every
//     sender shard's bucket from the previous round — in ascending
//     sender-shard order, so each inbox sees deliveries in exactly the
//     order the old per-node slices accumulated — through a stable
//     counting sort into the shard's contiguous SoA inbox (inbox.go).
//   - Step (same shards): each shard steps its awake live machines
//     against the freshly built inbox slices and records the outboxes.
//   - Crash pass (coordination thread, ascending node order): crash
//     decisions. The adversary interface is stateful and
//     order-sensitive, so CrashNow/DeliverOnCrash calls never move off
//     the coordination thread and never reorder. A CrashLister
//     adversary narrows the pass to the nodes it lists for the round;
//     otherwise it sweeps every live faulty node. When the adversary
//     proves no crash can fire this round (an empty CrashLister list, a
//     CrashPlanner window, or no live faulty node remains), this pass
//     is skipped entirely and the delivery, step, and send stages fuse
//     into ONE worker dispatch — one barrier per round instead of three.
//   - Send (sender shards, worker pool): validation, accounting into
//     flat per-worker counters, per-sender lane digests, and routing of
//     deliveries into per-(sender-shard, receiver-shard) buckets for
//     the next round's delivery stage. Buckets are double-buffered by
//     round parity so the fused path can fill this round's generation
//     while shards are still draining the previous one.
//   - Merge (coordination thread, ascending node order): per-worker
//     counters and violations merge, and crash events plus per-sender
//     lane digests fold into the run digest. Everything order-sensitive
//     happens here, which is the determinism argument: the run digest
//     is a pure function of per-sender lanes folded in node order, and
//     each lane is a pure function of one sender's outbox.
//
// Activity-proportional rounds. Each shard keeps an awake bitset: at
// the start of a round it holds the shard's machines that do not
// implement Sleeper (a persistent always-awake set), the nodes the wake
// wheel (wake.go) releases for the round, and every receiver of the
// previous round's buckets; the crash pass adds any node it crashes.
// Delivery builds inboxes for just those nodes, step visits just those,
// send and merge walk the same set, and each stepped sleeper files its
// next wake; the termination check reads a running count of live
// machines not Done instead of asking every machine. Every walk goes
// shard by shard, word by word, bit by bit — ascending node order — so
// the determinism argument above holds unchanged, and a round costs time
// in proportion to its awake nodes, not to n. A run without sleepers
// has every live node in the always-awake set and never touches the
// wheel.
//
// All buffers (buckets, inbox arenas, bitsets, lane arrays, crash
// masks, flat counters) are allocated once per Run — pre-sized from the
// Config and the interned-kind registry — and recycled, so the
// steady-state round loop performs no allocations at any n.

import (
	"fmt"
	"math/bits"
	"sync"

	"sublinear/internal/metrics"
)

// routed is a delivery annotated with its receiver, parked in a bucket
// between the send stage of one round and the delivery stage of the
// next.
type routed struct {
	to int32
	d  Delivery
}

// Buffered trace-event ops (pipeline-internal; the Tracer interface sees
// typed method calls).
const (
	tevSend uint8 = iota
	tevDrop
	tevViolation
)

// tev is one trace event parked in a sender's buffer between the send
// stage (workers) and the merge (coordination thread). Like lane
// digests, the per-sender buffers are written only by the worker that
// owns the sender's shard and read only after the barrier, so they need
// no locking and recycle across rounds.
type tev struct {
	op     uint8
	port   int32
	bits   int32
	kind   metrics.Kind
	reason string // tevViolation only
}

// delivWorker is one worker's private slice of pipeline state. Nothing
// here is touched by any other goroutine between barriers.
type delivWorker struct {
	messages int64
	bits     int64
	perKind  []int64  // flat tallies indexed by metrics.Kind
	portSeen []uint64 // duplicate-port bitset, cleared after each sender
	// buckets[g][rs] holds deliveries routed to receiver shard rs during
	// a round of parity g. Two generations, because in the fused path the
	// delivery stage of round r drains generation (r-1)&1 while the send
	// stage of the same dispatch fills generation r&1.
	buckets    [2][][]routed
	violations []Violation
	err        error // first strict-mode violation; aborts the run
	inFlight   bool  // some sender in this shard produced a nonempty outbox
	notDone    int   // this round's change in live machines not Done
}

// violate records a CONGEST violation: an error in strict mode (stored,
// surfaced at the barrier), a record otherwise. It reports whether
// processing may continue.
func (wk *delivWorker) violate(strict bool, node, round int, reason string) bool {
	if strict {
		wk.err = fmt.Errorf("netsim: node %d round %d: %s", node, round, reason)
		return false
	}
	wk.violations = append(wk.violations, Violation{Node: node, Round: round, Reason: reason})
	return true
}

func (wk *delivWorker) count(k metrics.Kind, bits int) {
	wk.messages++
	wk.bits += int64(bits)
	if int(k) >= len(wk.perKind) {
		grown := make([]int64, max(int(k)+1, metrics.KindCount()))
		copy(grown, wk.perKind)
		wk.perKind = grown
	}
	wk.perKind[k]++
}

// pipeline executes the delivery/step/send stages for every round of one
// Run and owns all round-recycled state: SoA inboxes, outboxes, routing
// buckets, lanes, and crash masks.
type pipeline struct {
	e     *Engine
	w     int  // shard / worker count
	chunk int  // nodes per shard; a power of two, so routing is a shift
	shift uint // log2(chunk)

	workers  []delivWorker
	inbox    []shardInbox // one SoA inbox per receiver shard
	outboxes [][]Send
	lane     []uint64 // per-sender lane digest; 0 = no events this round
	crashing []bool   // per-sender: crashed this round; cleared by merge
	faulty   []bool   // adversary's static faulty set, cached once per Run
	keep     [][]bool // crash-round delivery masks, indexed by sender
	tevs     [][]tev  // per-sender trace-event buffers; nil when untraced
	pool     *shardPool

	// liveFaulty lists, in ascending order, the faulty nodes that have
	// not crashed: the full crash pass sweeps it instead of all n nodes.
	liveFaulty []int32

	// Activity-proportional bookkeeping (see the header of this file):
	// the stages visit the nodes of a per-shard awake bitset.
	awake    [][]uint64 // per shard: bit u-lo marks node u for this round
	always   [][]uint64 // per shard: live nodes that do not implement Sleeper
	full     []bool     // per shard: always holds every node of the shard
	sleepers []Sleeper  // per node, nil when no machine sleeps
	wheel    wakeWheel  // sleeping nodes by wake round; unused without sleepers
	done     []bool     // per node: Done() after its latest Step
	notDone  int        // live machines whose latest Done() was false

	// Per-dispatch inputs, set on the coordination thread before the
	// pass barrier releases the workers.
	round int
	gen   int // bucket generation the send stage fills: round & 1
}

// passID selects the work a dispatched shard performs.
type passID int

const (
	// passFused runs delivery, step, and send back to back in one
	// dispatch — the single-barrier path for crash-free rounds.
	passFused passID = iota
	// passDeliverStep runs delivery and step, then returns to the
	// coordination thread for crash decisions before passSenders.
	passDeliverStep
	// passSenders runs the send stage after crash decisions.
	passSenders
)

func newPipeline(e *Engine, w int) *pipeline {
	n := e.cfg.N
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	// Round the shard size up to a power of two: the send stage routes
	// every message with a shift instead of an integer division, and the
	// slight imbalance this can leave in the last shard is noise next to
	// a per-message div. Digests are shard-geometry-independent (see
	// buildInbox), so this is invisible in every observable.
	chunk := 1
	shift := uint(0)
	for chunk*w < n {
		chunk <<= 1
		shift++
	}
	w = (n + chunk - 1) / chunk // drop empty tail shards
	p := &pipeline{
		e:        e,
		w:        w,
		chunk:    chunk,
		shift:    shift,
		workers:  make([]delivWorker, w),
		inbox:    make([]shardInbox, w),
		outboxes: make([][]Send, n),
		lane:     make([]uint64, n),
		crashing: make([]bool, n),
		faulty:   make([]bool, n),
		keep:     make([][]bool, n),
	}
	// Ports are bounded by the maximum degree, so the duplicate-port
	// bitset holds maxDeg+1 bits.
	maxDeg := n - 1
	if e.ports != nil {
		maxDeg = e.ports.MaxDegree()
	}
	words := maxDeg>>6 + 1
	kinds := metrics.KindCount()
	for i := range p.workers {
		p.workers[i].portSeen = make([]uint64, words)
		p.workers[i].perKind = make([]int64, kinds)
		p.workers[i].buckets[0] = make([][]routed, w)
		p.workers[i].buckets[1] = make([][]routed, w)
	}
	for s := range p.inbox {
		lo := s * chunk
		p.inbox[s] = newShardInbox(lo, min(lo+chunk, n))
	}
	if e.cfg.Tracer != nil {
		p.tevs = make([][]tev, n)
	}
	if w > 1 {
		p.pool = newShardPool(w)
	}
	p.resolveSleepers()
	return p
}

// resolveSleepers resolves the Sleeper capability once per Run. Every
// live node steps in round 1, so every node starts awake; machines
// without the capability also go into the always-awake set. The per-node
// sleeper table and the wake wheel exist only when some machine sleeps.
func (p *pipeline) resolveSleepers() {
	e := p.e
	n := e.cfg.N
	for u, m := range e.machines {
		if s, ok := m.(Sleeper); ok {
			if p.sleepers == nil {
				p.sleepers = make([]Sleeper, n)
			}
			p.sleepers[u] = s
		}
	}
	p.awake = make([][]uint64, p.w)
	p.always = make([][]uint64, p.w)
	p.full = make([]bool, p.w)
	for s := range p.awake {
		lo := s * p.chunk
		size := min(p.chunk, n-lo)
		awake := make([]uint64, (size+63)>>6)
		always := make([]uint64, len(awake))
		for l := 0; l < size; l++ {
			awake[l>>6] |= 1 << (l & 63)
			if p.sleepers == nil || p.sleepers[lo+l] == nil {
				always[l>>6] |= 1 << (l & 63)
			}
		}
		p.awake[s] = awake
		p.always[s] = always
		p.full[s] = p.sleepers == nil || allNil(p.sleepers[lo:lo+size])
	}
	if p.sleepers != nil {
		p.wheel = newWakeWheel(n, p.w, e.cfg.MaxRounds)
	}
	p.done = make([]bool, n)
	p.notDone = n
}

func allNil(sleepers []Sleeper) bool {
	for _, s := range sleepers {
		if s != nil {
			return false
		}
	}
	return true
}

// quiet reports that every live machine is done.
func (p *pipeline) quiet() bool { return p.notDone == 0 }

// markAwake adds node u to its shard's awake set for this round.
func (p *pipeline) markAwake(u int) {
	l := u & (p.chunk - 1)
	p.awake[u>>p.shift][l>>6] |= 1 << (l & 63)
}

func (p *pipeline) close() {
	if p.pool != nil {
		p.pool.close()
	}
}

// fusedRound runs a crash-free round in a single dispatch: every shard
// delivers, steps, and processes sends without re-synchronizing.
func (p *pipeline) fusedRound(round int) {
	p.round = round
	p.gen = round & 1
	p.dispatch(passFused)
}

// deliverStep runs the delivery and step stages of a round that may
// crash, leaving the outboxes ready for the coordination thread's crash
// pass.
func (p *pipeline) deliverStep(round int) {
	p.round = round
	p.gen = round & 1
	p.dispatch(passDeliverStep)
}

// senders runs the send stage after crash decisions.
func (p *pipeline) senders(round int) {
	p.dispatch(passSenders)
}

// crashPass consults the adversary for this round's crash decisions, on
// the coordination thread in ascending node order — the exact call
// sequence stateful adversaries observed under the original sequential
// engine. listed is a CrashLister's list for the round; nil sweeps
// every live faulty node. It returns the number of nodes that crashed.
func (p *pipeline) crashPass(round int, listed []int) int {
	crashes := 0
	if listed != nil {
		prev := -1
		for _, u := range listed {
			if u <= prev {
				panic(fmt.Sprintf("netsim: CrashesIn(%d) is not ascending: %d after %d", round, u, prev))
			}
			prev = u
			if p.e.crashedAt[u] == 0 && p.faulty[u] && p.consult(u, round) {
				crashes++
			}
		}
		return crashes
	}
	live := p.liveFaulty[:0]
	for _, u := range p.liveFaulty {
		if p.e.crashedAt[u] == 0 && p.consult(int(u), round) {
			crashes++
			continue
		}
		live = append(live, u)
	}
	p.liveFaulty = live
	return crashes
}

// consult asks the adversary whether live faulty node u crashes this
// round and, if it does, which of its messages survive.
func (p *pipeline) consult(u, round int) bool {
	e := p.e
	outbox := p.outboxes[u]
	if outbox == nil {
		outbox = emptyOutbox // slept through the round: it sent nothing
	}
	if !e.adv.CrashNow(u, round, outbox) {
		return false
	}
	p.crashing[u] = true
	e.crashedAt[u] = round
	mask := p.keep[u]
	if cap(mask) < len(outbox) {
		mask = make([]bool, len(outbox))
	} else {
		mask = mask[:len(outbox)]
	}
	deg := e.cfg.N - 1
	if e.ports != nil {
		deg = e.ports.Degree(u)
	}
	for i, s := range outbox {
		// Out-of-range ports never reach the adversary, matching
		// the original engine's call set.
		mask[i] = s.Port >= 1 && s.Port <= deg && e.adv.DeliverOnCrash(u, round, i, s)
	}
	p.keep[u] = mask
	p.markAwake(u) // the send stage and merge visit it
	if !p.done[u] {
		p.notDone--
	}
	return true
}

// merge is the deterministic round barrier on the coordination thread:
// strict-mode errors surface first — the lowest-numbered worker holds
// the violation with the smallest (sender, message) position, matching
// the original engine's abort — then per-worker counters and violations
// fold in worker order, and crash events plus per-sender lanes fold
// into the run digest in ascending node order. It reports whether any
// sender had messages in flight this round.
func (p *pipeline) merge(round int) (bool, error) {
	e := p.e
	for i := range p.workers {
		if err := p.workers[i].err; err != nil {
			return false, err
		}
	}
	inFlight := false
	for i := range p.workers {
		wk := &p.workers[i]
		if wk.inFlight {
			inFlight = true
			wk.inFlight = false
		}
		p.notDone += wk.notDone
		wk.notDone = 0
		e.counters.AddBulk(wk.messages, wk.bits, wk.perKind)
		wk.messages, wk.bits = 0, 0
		for k := range wk.perKind {
			wk.perKind[k] = 0
		}
		if len(wk.violations) > 0 {
			e.violations = append(e.violations, wk.violations...)
			wk.violations = wk.violations[:0]
		}
	}
	// Only awake nodes stepped, sent or crashed, so only they can have
	// events to fold; shards, words and bits ascend, so this is still
	// ascending node order. The walk also resets the sets to the
	// always-awake nodes for the next round and forgets the outboxes the
	// crash pass would otherwise mistake for this round's.
	for s, awake := range p.awake {
		lo := s * p.chunk
		always := p.always[s]
		for i, word := range awake {
			awake[i] = always[i]
			for word != 0 {
				u := lo + i<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				p.fold(u, round)
				p.outboxes[u] = nil
			}
		}
	}
	return inFlight, nil
}

// fold folds node u's round into the run digest — its crash, then its
// lane — and emits its buffered trace events in the same order: crash
// first, then messages/violations in outbox order, then annotations.
// Called in ascending node order, this is the determinism argument for
// traces: event order is a pure function of per-sender buffers visited
// in ascending node order, independent of worker count.
func (p *pipeline) fold(u, round int) {
	e := p.e
	if p.crashing[u] {
		e.digest.words(digestCrash, uint64(u), uint64(round))
	}
	if h := p.lane[u]; h != 0 {
		e.digest.word(digestLane | uint64(u)<<8)
		e.digest.word(h)
		p.lane[u] = 0
	}
	if tracer := e.cfg.Tracer; tracer != nil {
		if p.crashing[u] {
			tracer.TraceCrash(u, round)
		}
		buf := p.tevs[u]
		for i := range buf {
			ev := &buf[i]
			if ev.op == tevViolation {
				tracer.TraceViolation(u, round, ev.reason)
			} else {
				tracer.TraceMessage(u, round, int(ev.port), ev.kind, int(ev.bits), ev.op == tevDrop)
			}
			ev.reason = "" // release, the buffer recycles
		}
		p.tevs[u] = buf[:0]
		if env := e.envs[u]; len(env.annot) > 0 {
			for _, a := range env.annot {
				tracer.TraceAnnotation(u, round, a)
			}
			env.annot = env.annot[:0]
		}
	}
	p.crashing[u] = false
}

// dispatch runs one pass across every shard and waits for the barrier.
// With a single shard the pass runs inline on the coordination thread.
func (p *pipeline) dispatch(pass passID) {
	if p.pool == nil {
		p.runShard(0, pass)
		return
	}
	p.pool.run(func(shard int) { p.runShard(shard, pass) })
}

func (p *pipeline) runShard(shard int, pass passID) {
	switch pass {
	case passFused:
		p.buildInbox(shard)
		p.stepShard(shard)
		p.sendShard(shard)
	case passDeliverStep:
		p.buildInbox(shard)
		p.stepShard(shard)
	case passSenders:
		p.sendShard(shard)
	}
}

// buildInbox assembles receiver shard s's SoA inbox for the current
// round from the previous round's routing buckets. It first completes
// the shard's awake set — the always-awake nodes already in it, the
// nodes the wheel wakes this round, and every receiver of the buckets —
// and then builds the inboxes of exactly those nodes by a stable
// counting sort, in time proportional to the deliveries and the awake
// nodes rather than to the shard. Sender shards are visited in
// ascending order and each bucket holds deliveries in ascending
// (sender, outbox index) order, so every inbox receives exactly the
// delivery order the per-node slices used to accumulate — independent
// of worker count. It relies on cur being all zero on entry, which
// stepShard restores: the count pass then needs no clearing sweep. Node
// u's inbox is buf[off[u-lo]:cur[u-lo]].
func (p *pipeline) buildInbox(s int) {
	ib := &p.inbox[s]
	awake := p.awake[s]
	prev := p.gen ^ 1
	if p.sleepers != nil {
		p.wheel.wake(s, p.round, ib.lo, awake)
	}
	cur, off := ib.cur, ib.off
	total := 0
	for b := range p.workers {
		bucket := p.workers[b].buckets[prev][s]
		total += len(bucket)
		if p.full[s] { // every receiver is awake already
			for _, r := range bucket {
				cur[r.to-int32(ib.lo)]++
			}
			continue
		}
		for _, r := range bucket {
			l := r.to - int32(ib.lo)
			awake[l>>6] |= 1 << (l & 63)
			cur[l]++
		}
	}
	var sum int32
	for i, word := range awake {
		if word == ^uint64(0) { // 64 awake nodes: no bit walk
			c, o := cur[i<<6:i<<6+64], off[i<<6:i<<6+64]
			for j, k := range c {
				o[j], c[j] = sum, sum
				sum += k
			}
			continue
		}
		for word != 0 {
			l := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			k := cur[l]
			off[l], cur[l] = sum, sum
			sum += k
		}
	}
	if total == 0 {
		return
	}
	ib.buf = growDeliveries(ib.buf, total)
	for b := range p.workers {
		bucket := p.workers[b].buckets[prev][s]
		for _, r := range bucket {
			l := r.to - int32(ib.lo)
			ib.buf[cur[l]] = r.d
			cur[l]++
		}
		p.workers[b].buckets[prev][s] = bucket[:0]
	}
}

// stepShard steps the live nodes of shard s's awake set in ascending
// order against their inboxes, records the outboxes and whether each
// node is Done (so the termination check needs no sweep), and files
// each sleeper's next wake in the wheel. Crashed nodes leave the awake
// and always-awake sets. Machines that report Done keep being stepped
// when awake: Done means "I will not send unless I receive something",
// which matters for reactive roles (a referee acts only when
// contacted); it does not halt the machine.
func (p *pipeline) stepShard(s int) {
	e := p.e
	wk := &p.workers[s]
	ib := &p.inbox[s]
	awake, always := p.awake[s], p.always[s]
	round := p.round
	for i, word := range awake {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			l := i<<6 + b
			u := ib.lo + l
			inbox := ib.buf[ib.off[l]:ib.cur[l]]
			ib.cur[l] = 0
			if e.crashedAt[u] != 0 {
				awake[i] &^= 1 << b
				always[i] &^= 1 << b
				p.full[s] = false
				continue
			}
			m := e.machines[u]
			out := m.Step(e.envs[u], round, inbox)
			if out == nil {
				out = emptyOutbox
			}
			p.outboxes[u] = out
			if len(out) > 0 {
				wk.inFlight = true
			}
			if d := m.Done(); d != p.done[u] {
				p.done[u] = d
				if d {
					wk.notDone--
				} else {
					wk.notDone++
				}
			}
			if p.sleepers != nil {
				if sl := p.sleepers[u]; sl != nil {
					p.wheel.file(s, u, max(round+1, sl.NextWake(round)))
				}
			}
		}
	}
}

// sendShard processes every sender of shard s with a nonempty outbox:
// only awake nodes stepped, so only they can have outboxes.
func (p *pipeline) sendShard(s int) {
	wk := &p.workers[s]
	lo := s * p.chunk
	for i, word := range p.awake[s] {
		for word != 0 {
			u := lo + i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if outbox := p.outboxes[u]; len(outbox) > 0 {
				p.processSender(wk, u, outbox)
				if wk.err != nil {
					return
				}
			}
		}
	}
}

// processSender validates, accounts, digests and routes one sender's
// round outbox. It runs on whichever worker owns the sender's shard and
// touches only that worker's private state plus lane[u].
//
// Routing reads the port table once per sender: the clique (nil table)
// stays pure arithmetic, a compiled topology is two int32 loads per
// message — one predictable branch, no div/mod and no search.
func (p *pipeline) processSender(wk *delivWorker, u int, outbox []Send) {
	e := p.e
	n := e.cfg.N
	round := p.round
	table := e.ports
	deg := n - 1
	var peer, aport []int32
	if table != nil {
		lo, hi := table.row[u], table.row[u+1]
		deg = int(hi - lo)
		peer, aport = table.peer[lo:hi], table.aport[lo:hi]
	}
	crashing := p.crashing[u]
	var keep []bool
	if crashing {
		keep = p.keep[u]
	}
	checkDup := len(outbox) > 1
	traced := p.tevs != nil
	buckets := wk.buckets[p.gen]
	lane := laneInit()
	events := 0
	for i, s := range outbox {
		if s.Port < 1 || s.Port > deg {
			reason := fmt.Sprintf("port %d out of range", s.Port)
			if table != nil {
				reason = fmt.Sprintf("port %d out of range [1,%d]", s.Port, deg)
			}
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
			}
			if !wk.violate(e.cfg.Strict, u, round, reason) {
				return
			}
			continue
		}
		if checkDup {
			word, bit := uint(s.Port)>>6, uint64(1)<<(uint(s.Port)&63)
			if wk.portSeen[word]&bit != 0 {
				reason := fmt.Sprintf("two messages on port %d in one round", s.Port)
				if traced {
					p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
				}
				if !wk.violate(e.cfg.Strict, u, round, reason) {
					return
				}
			}
			wk.portSeen[word] |= bit
		}
		sz := s.Payload.Bits(n)
		if sz > e.bitBudget {
			reason := fmt.Sprintf("payload %q is %d bits, budget %d", s.Payload.Kind(), sz, e.bitBudget)
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevViolation, port: int32(s.Port), reason: reason})
			}
			if !wk.violate(e.cfg.Strict, u, round, reason) {
				return
			}
		}
		// A message is "sent" (and counts toward message complexity) even
		// if the sender crashes mid-round and the message is lost: the
		// paper counts messages sent by all nodes.
		kid := PayloadKindID(s.Payload)
		wk.count(kid, sz)

		if crashing && !keep[i] {
			lane = laneEvent(lane, digestDrop, s.Port, sz, metrics.KindHash(kid))
			events++
			if traced {
				p.tevs[u] = append(p.tevs[u], tev{op: tevDrop, port: int32(s.Port), bits: int32(sz), kind: kid})
			}
			continue
		}
		lane = laneEvent(lane, digestSend, s.Port, sz, metrics.KindHash(kid))
		events++
		if traced {
			p.tevs[u] = append(p.tevs[u], tev{op: tevSend, port: int32(s.Port), bits: int32(sz), kind: kid})
		}
		// With 1 <= Port <= deg already validated, the clique's Peer and
		// ArrivalPort reduce to a compare-subtract and a subtract.
		var v int
		var d Delivery
		if table == nil {
			v = u + s.Port
			if v >= n {
				v -= n
			}
			d = Delivery{Port: n - s.Port, Payload: s.Payload}
		} else {
			v = int(peer[s.Port-1])
			d = Delivery{Port: int(aport[s.Port-1]), Payload: s.Payload}
		}
		rs := v >> p.shift
		buckets[rs] = append(buckets[rs], routed{to: int32(v), d: d})
	}
	if checkDup {
		for _, s := range outbox {
			if s.Port >= 1 && s.Port <= deg {
				wk.portSeen[uint(s.Port)>>6] &^= uint64(1) << (uint(s.Port) & 63)
			}
		}
	}
	if events > 0 {
		p.lane[u] = lane
	}
}

// shardPool is a persistent, fixed-size worker pool: one goroutine per
// shard for the lifetime of a Run, released per pass through per-worker
// channels and collected with a WaitGroup barrier.
type shardPool struct {
	fn     func(shard int)
	start  []chan struct{}
	done   sync.WaitGroup
	exited sync.WaitGroup
}

func newShardPool(w int) *shardPool {
	p := &shardPool{start: make([]chan struct{}, w)}
	p.exited.Add(w)
	for i := range p.start {
		p.start[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

func (p *shardPool) worker(i int) {
	defer p.exited.Done()
	for range p.start[i] {
		p.fn(i)
		p.done.Done()
	}
}

// run executes fn(shard) on every worker and blocks until all complete.
// The channel sends publish the fn write to the workers.
func (p *shardPool) run(fn func(shard int)) {
	p.fn = fn
	p.done.Add(len(p.start))
	for _, ch := range p.start {
		ch <- struct{}{}
	}
	p.done.Wait()
}

// close terminates the workers and waits for them to exit — pool
// goroutines must never outlive the engine run.
func (p *shardPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.exited.Wait()
}
