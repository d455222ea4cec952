package core

import (
	"math"
	"slices"

	"sublinear/internal/netsim"
	"sublinear/internal/rng"
)

// ElectionState is a node's final leader-election state (Definition 1).
type ElectionState int

// Election states. Undecided corresponds to the paper's bot and only
// survives to the end of a run on failure paths.
const (
	Undecided ElectionState = iota
	Elected
	NonElected
)

func (s ElectionState) String() string {
	switch s {
	case Elected:
		return "ELECTED"
	case NonElected:
		return "NONELECTED"
	default:
		return "UNDECIDED"
	}
}

// ElectionOutput is a node's output from the election protocol.
type ElectionOutput struct {
	// IsCandidate reports whether the node joined the candidate
	// committee.
	IsCandidate bool
	// Rank is the node's self-drawn rank (its ID); zero for
	// non-candidates.
	Rank uint64
	// State is the node's final election state.
	State ElectionState
	// LeaderRank is the rank of the leader the node believes in, or 0 if
	// it has none. For non-candidates it is only set in explicit mode.
	LeaderRank uint64
	// SelfProposed reports whether the node broadcast its own rank as a
	// proposal — the point after which the paper allows the leader to
	// crash and still count as elected.
	SelfProposed bool
	// Stats records the node's protocol activity, for convergence
	// diagnostics and the ablation experiments.
	Stats ElectionNodeStats
}

// ElectionNodeStats counts a single node's protocol activity.
type ElectionNodeStats struct {
	// Proposals is the number of distinct ranks the candidate proposed
	// (Step 1; each rank is proposed at most once).
	Proposals int
	// Timeouts is the number of Step 4 retirements: proposals whose
	// owner went silent.
	Timeouts int
	// Echoes is the number of claim echoes the candidate sent.
	Echoes int
	// RanksLearned is the final size of the candidate's rankList.
	RanksLearned int
	// RefereeFor is the number of distinct candidates this node served
	// as a referee.
	RefereeFor int
	// RelaysSent is the number of relay-max updates the referee
	// broadcast (monotone maximum changes).
	RelaysSent int
}

// electionMachine implements Section IV-A. Every node runs one; candidate
// and referee roles can coexist on a node (a candidate may be sampled as a
// referee by another candidate).
//
// The prose 4-step iteration of the paper is realised as an event-driven
// message loop with the same information flow and the same per-exchange
// latency (propose -> relay-max -> claim -> confirm is exactly the paper's
// 4-round iteration). See DESIGN.md, "Algorithm notes".
type electionMachine struct {
	d         derived
	lastRound int

	// Schedule boundaries (rounds).
	prepEnd   int
	mainEnd   int
	drainEnd  int
	announceR int // 0 when implicit
	endRound  int

	// Candidate role.
	isCandidate  bool
	rank         uint64
	refPorts     []int
	known        rankSet
	proposed     map[uint64]bool
	echoed       map[uint64]bool
	floor        uint64 // ranks < floor are retired ("remove smaller ranks")
	target       uint64 // highest rank seen proposed/claimed
	pending      uint64 // outstanding own proposal, 0 = none
	lastUpdate   int    // round of last update relevant to pending
	confirmed    uint64 // leader belief: highest owner-backed rank
	selfProposed bool
	selfClaimed  bool

	// Referee role (activated on first contact).
	refActive    bool
	candPorts    []int
	refKnown     rankSet
	maxProp      uint64
	maxPropOwner bool
	bestClaim    uint64

	// All outgoing traffic, and the buffer each Step returns it in.
	out   netsim.EdgeQueue
	sends []netsim.Send

	// Explicit extension.
	announced uint64

	stats ElectionNodeStats
}

var (
	_ netsim.Machine = (*electionMachine)(nil)
	_ netsim.Sleeper = (*electionMachine)(nil)
)

func newElectionMachine(d derived) *electionMachine {
	m := &electionMachine{d: d}
	m.prepEnd = 2 + intCeil(d.params.CandidateFactor*lnOverAlpha(d))
	m.mainEnd = m.prepEnd + 4*d.iterations
	m.drainEnd = m.mainEnd + 2
	m.endRound = m.drainEnd
	if d.params.Explicit {
		m.announceR = m.drainEnd + 1
		m.endRound = m.announceR + 1
	}
	return m
}

// electionRounds returns the total number of rounds the schedule needs.
func electionRounds(d derived) int { return newElectionMachine(d).endRound }

// timeoutRounds is the paper's Step-4 wait: a proposal with no update for
// this many rounds is retired.
func (m *electionMachine) timeoutRounds() int { return 4 * m.d.params.TimeoutIterations }

func (m *electionMachine) Step(env *netsim.Env, round int, inbox []netsim.Delivery) []netsim.Send {
	m.lastRound = round
	if round == 1 {
		return m.start(env)
	}
	for _, msg := range inbox {
		m.handle(round, msg)
	}
	if m.isCandidate && round > m.prepEnd && round <= m.mainEnd {
		m.proposalLogic(round)
	}
	if m.announceR != 0 && round == m.announceR {
		return m.announce(env)
	}
	return m.flush()
}

// start performs round 1: role selection, rank draw, referee sampling, and
// the pre-processing rank announcement.
func (m *electionMachine) start(env *netsim.Env) []netsim.Send {
	if !env.Rand.Bool(m.d.candidateProb) {
		return nil
	}
	m.isCandidate = true
	m.rank = drawRank(env.Rand, m.d.rankRange)
	m.known.Add(m.rank)
	m.proposed = make(map[uint64]bool)
	m.echoed = make(map[uint64]bool)
	m.floor = 1
	m.refPorts = env.Rand.SampleDistinct(m.d.refereeCount, env.N-1, nil)
	for i := range m.refPorts {
		m.refPorts[i]++
	}
	m.broadcast(rankAnnounce{rank: m.rank})
	return m.flush()
}

func (m *electionMachine) handle(round int, msg netsim.Delivery) {
	switch pl := msg.Payload.(type) {
	case rankAnnounce:
		m.refereeContact(msg.Port)
		if m.refKnown.Add(pl.rank) {
			var fwd netsim.Payload = rankForward{rank: pl.rank}
			for _, cp := range m.candPorts {
				if cp != msg.Port {
					m.out.Enqueue(cp, fwd)
				}
			}
		}
	case rankForward:
		if m.isCandidate {
			m.known.Add(pl.rank)
		}
	case proposeMsg:
		m.refereeContact(msg.Port)
		owner := pl.id == pl.prop
		changed := false
		if pl.prop > m.maxProp {
			m.maxProp = pl.prop
			m.maxPropOwner = owner
			changed = true
		} else if pl.prop == m.maxProp && owner && !m.maxPropOwner {
			m.maxPropOwner = true
			changed = true
		}
		if changed {
			m.relayMax()
		}
	case relayMaxMsg:
		m.onRelayMax(round, pl)
	case claimMsg:
		m.refereeContact(msg.Port)
		if pl.rank > m.bestClaim {
			m.bestClaim = pl.rank
			var confirm netsim.Payload = confirmMsg{rank: pl.rank, owner: true}
			for _, cp := range m.candPorts {
				m.out.Enqueue(cp, confirm)
			}
		}
	case confirmMsg:
		m.onConfirm(round, pl)
	case leaderAnnounce:
		if pl.rank > m.announced {
			m.announced = pl.rank
		}
	}
}

// refereeContact registers a candidate port with the referee role,
// activating it on first use and back-filling the new candidate with
// everything the referee already knows.
func (m *electionMachine) refereeContact(port int) {
	if slices.Contains(m.candPorts, port) {
		return
	}
	m.refActive = true
	m.candPorts = append(m.candPorts, port)
	for _, r := range m.refKnown.All() {
		m.out.Enqueue(port, rankForward{rank: r})
	}
	if m.maxProp != 0 {
		m.out.Enqueue(port, relayMaxMsg{rank: m.maxProp, ownerProposed: m.maxPropOwner})
	}
	if m.bestClaim != 0 {
		m.out.Enqueue(port, confirmMsg{rank: m.bestClaim, owner: true})
	}
}

// relayMax broadcasts the referee's current maximum proposal to its
// candidates (Step 2). Sent only on change, so per-port values are
// monotone and never repeat.
func (m *electionMachine) relayMax() {
	m.stats.RelaysSent++
	var relay netsim.Payload = relayMaxMsg{rank: m.maxProp, ownerProposed: m.maxPropOwner}
	for _, cp := range m.candPorts {
		m.out.Enqueue(cp, relay)
	}
}

// onRelayMax is the candidate's Step 3: react to the maximum proposed rank
// reported by a referee.
func (m *electionMachine) onRelayMax(round int, pl relayMaxMsg) {
	if !m.isCandidate {
		return
	}
	r := pl.rank
	m.known.Add(r)
	if r > m.target {
		m.target = r
	}
	if r > m.floor {
		m.floor = r // retire every rank below r; r itself stays admissible
	}
	if m.pending != 0 && r >= m.pending {
		m.lastUpdate = round
		if r > m.pending {
			m.pending = 0 // superseded
		}
	}
	switch {
	case r == m.rank && !m.selfClaimed && r >= m.confirmed:
		// "If IDu = p~max and u was not marked as the leader, then u
		// sends <IDu, p~max> ... and marks itself as the leader."
		m.selfClaimed = true
		if r > m.confirmed {
			m.confirmed = r
		}
		m.broadcast(claimMsg{rank: r, self: true})
	case pl.ownerProposed && r >= m.target && !m.echoed[r]:
		// "u sends <IDu, p~max> and considers v as the leader until any
		// further updates."
		m.echoed[r] = true
		m.stats.Echoes++
		if r > m.confirmed {
			m.confirmed = r
		}
		m.broadcast(claimMsg{rank: r, self: false})
	}
}

// onConfirm is the candidate receiving a referee-relayed claim.
func (m *electionMachine) onConfirm(round int, pl confirmMsg) {
	if !m.isCandidate {
		return
	}
	r := pl.rank
	m.known.Add(r)
	if r > m.target {
		m.target = r
	}
	if r > m.floor {
		m.floor = r
	}
	if m.pending != 0 && r >= m.pending {
		m.lastUpdate = round
		m.pending = 0 // confirmed or superseded either way resolves it
	}
	if r > m.confirmed {
		m.confirmed = r
	}
}

// proposalLogic is the candidate's Step 1 / Step 4 driver, run once per
// round during the iteration window.
func (m *electionMachine) proposalLogic(round int) {
	if m.confirmed != 0 && m.confirmed >= m.target {
		return // agreed and quiescent
	}
	if m.pending != 0 {
		if round-m.lastUpdate < m.timeoutRounds() {
			return
		}
		// Step 4: the proposed rank saw no update; its owner has
		// presumably crashed. Retire it and move on.
		m.stats.Timeouts++
		m.floor = m.pending + 1
		m.pending = 0
	}
	cur := m.known.MinAtLeast(m.floor, func(r uint64) bool { return m.proposed[r] })
	if cur == 0 {
		return
	}
	m.proposed[cur] = true
	m.stats.Proposals++
	m.pending = cur
	m.lastUpdate = round
	if cur == m.rank {
		m.selfProposed = true
	}
	m.broadcast(proposeMsg{id: m.rank, prop: cur})
}

// broadcast schedules one payload for delivery to every referee port. All
// outgoing traffic — candidate broadcasts and referee relays alike — goes
// through the single per-port queue, which both preserves the CONGEST
// one-message-per-edge-per-round discipline and avoids collisions on a
// node holding both roles.
func (m *electionMachine) broadcast(p netsim.Payload) {
	m.out.Broadcast(m.refPorts, p)
}

// flush emits this round's sends, at most one queued payload per port,
// in the buffer the previous Step returned: the engine is done with it.
func (m *electionMachine) flush() []netsim.Send {
	m.sends = m.out.Flush(m.sends[:0])
	return m.sends
}

// announce implements the explicit extension: every candidate that has a
// leader broadcasts it to the entire network in one round, for
// O(n log n / alpha) messages total.
func (m *electionMachine) announce(env *netsim.Env) []netsim.Send {
	if !m.isCandidate || m.confirmed == 0 {
		return nil
	}
	var leader netsim.Payload = leaderAnnounce{rank: m.confirmed}
	sends := make([]netsim.Send, 0, env.N-1)
	for p := 1; p < env.N; p++ {
		sends = append(sends, netsim.Send{Port: p, Payload: leader})
	}
	return sends
}

// NextWake implements netsim.Sleeper. Candidates run timers and step
// every round, and so does any node with queued sends. Everyone else
// acts only on deliveries until the schedule's fixed rounds: after the
// round-1 draw it steps in round 2 (EarlyStop's lastRound >= 2), then
// sleeps until the announce round, then until endRound.
func (m *electionMachine) NextWake(round int) int {
	return sleepUntil(round, m.isCandidate || !m.out.Empty(), m.announceR, m.endRound)
}

func (m *electionMachine) Done() bool {
	if m.lastRound >= m.endRound {
		return true
	}
	if !m.d.params.EarlyStop {
		return false
	}
	if m.lastRound < 2 || !m.out.Empty() {
		return false
	}
	if m.isCandidate {
		return m.confirmed != 0 && m.confirmed >= m.target && m.pending == 0
	}
	return true
}

func (m *electionMachine) Output() any {
	m.stats.RanksLearned = m.known.Len()
	m.stats.RefereeFor = len(m.candPorts)
	out := ElectionOutput{
		IsCandidate:  m.isCandidate,
		Rank:         m.rank,
		SelfProposed: m.selfProposed,
		Stats:        m.stats,
	}
	switch {
	case m.isCandidate && m.confirmed != 0:
		out.LeaderRank = m.confirmed
		if m.confirmed == m.rank {
			out.State = Elected
		} else {
			out.State = NonElected
		}
	case m.isCandidate:
		out.State = Undecided
	default:
		out.State = NonElected
		out.LeaderRank = m.announced
	}
	return out
}

// sleepUntil is the wake rule the core machines share. A busy node (a
// candidate, or one with queued sends) steps next round, and so does
// every node after its round-1 step. An idle node sleeps until the next
// of the schedule's fixed rounds — announce (0 when implicit), then
// end — and never wakes again after the end.
func sleepUntil(round int, busy bool, announce, end int) int {
	switch {
	case busy || round == 1:
		return round + 1
	case announce > round:
		return announce
	case end > round:
		return end
	}
	return math.MaxInt
}

func intCeil(x float64) int {
	i := int(x)
	if float64(i) < x {
		i++
	}
	return i
}

func lnOverAlpha(d derived) float64 {
	return rng.LogN(d.n) / d.alpha
}
