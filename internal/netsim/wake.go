package netsim

// The wake wheel of the activity-proportional round path. A run whose
// machines implement Sleeper steps, in each round, only the nodes that
// receive deliveries or whose wake round has come. The second set comes
// from this wheel: a timing wheel of intrusive doubly linked lists, one
// list per (shard, slot), where a node sleeping until round w hangs in
// slot w mod slots of its own shard. Filing, re-filing and waking are
// O(1) pointer updates on arrays sized once per Run, so the wheel never
// allocates in the round loop; a slot's list is walked only in the
// rounds congruent to it, and a node filed more than one revolution
// ahead is merely passed over until its own round comes.
//
// Every node belongs to exactly one shard, and only that shard's worker
// files or wakes it, so the per-node link arrays are shared across
// workers without locking: no two workers ever touch the same entry.
type wakeWheel struct {
	at         []int     // per node: the round it is filed for; 0 = not filed
	next, prev []int32   // per node: list links; -1 = none
	head       [][]int32 // per shard, per slot: first node; -1 = empty
	mask       int       // slots - 1; slots is a power of two
	maxRound   int       // wake rounds past this are never filed
}

// maxWheelSlots caps the wheel's revolution. A node sleeping longer is
// passed over once per revolution, so the cap trades a few list steps
// per long sleeper against a slot array per shard.
const maxWheelSlots = 1024

func newWakeWheel(n, shards, maxRound int) wakeWheel {
	slots := 1
	for slots < maxWheelSlots && slots <= maxRound {
		slots <<= 1
	}
	w := wakeWheel{
		at:       make([]int, n),
		next:     make([]int32, n),
		prev:     make([]int32, n),
		head:     make([][]int32, shards),
		mask:     slots - 1,
		maxRound: maxRound,
	}
	for s := range w.head {
		h := make([]int32, slots)
		for i := range h {
			h[i] = -1
		}
		w.head[s] = h
	}
	return w
}

// file schedules node u of the given shard to wake in round, replacing
// any earlier filing. A round past the run's last is never reached, so
// such a node is left unfiled.
func (w *wakeWheel) file(shard, u, round int) {
	if w.at[u] == round {
		return
	}
	if w.at[u] != 0 {
		w.unlink(shard, u)
	}
	if round > w.maxRound {
		return
	}
	head := w.head[shard]
	slot := round & w.mask
	h := head[slot]
	w.next[u], w.prev[u] = h, -1
	if h >= 0 {
		w.prev[h] = int32(u)
	}
	head[slot] = int32(u)
	w.at[u] = round
}

func (w *wakeWheel) unlink(shard, u int) {
	nx, pv := w.next[u], w.prev[u]
	if pv >= 0 {
		w.next[pv] = nx
	} else {
		w.head[shard][w.at[u]&w.mask] = nx
	}
	if nx >= 0 {
		w.prev[nx] = pv
	}
	w.at[u] = 0
}

// wake unfiles every node of the shard filed for round and sets its bit
// (u - lo) in the shard's awake bitset.
func (w *wakeWheel) wake(shard, round, lo int, awake []uint64) {
	for u := w.head[shard][round&w.mask]; u >= 0; {
		nx := w.next[u]
		if w.at[u] == round {
			w.unlink(shard, int(u))
			l := int(u) - lo
			awake[l>>6] |= 1 << (l & 63)
		}
		u = nx
	}
}
