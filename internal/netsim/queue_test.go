package netsim

import (
	"testing"

	"sublinear/internal/rng"
)

// refQueue is the map-based EdgeQueue the slab queue replaced, kept as
// the reference model for the differential test: a map of per-port
// FIFOs plus the activation-order port list. Broadcast is plain
// per-port Enqueue in slice order, which is the behaviour the slab
// queue's batch path must reproduce.
type refQueue struct {
	perPort map[int]*refPortQueue
	ports   []int
	pending int
}

type refPortQueue struct {
	items  []Payload
	head   int
	active bool
}

func (q *refQueue) Enqueue(port int, p Payload) {
	if q.perPort == nil {
		q.perPort = make(map[int]*refPortQueue)
	}
	pq := q.perPort[port]
	if pq == nil {
		pq = &refPortQueue{}
		q.perPort[port] = pq
	}
	if !pq.active {
		pq.active = true
		q.ports = append(q.ports, port)
	}
	pq.items = append(pq.items, p)
	q.pending++
}

func (q *refQueue) Broadcast(ports []int, p Payload) {
	for _, port := range ports {
		q.Enqueue(port, p)
	}
}

func (q *refQueue) Flush(dst []Send) []Send {
	remaining := q.ports[:0]
	for _, port := range q.ports {
		pq := q.perPort[port]
		dst = append(dst, Send{Port: port, Payload: pq.items[pq.head]})
		pq.head++
		q.pending--
		if pq.head == len(pq.items) {
			pq.items, pq.head, pq.active = pq.items[:0], 0, false
		} else {
			remaining = append(remaining, port)
		}
	}
	q.ports = remaining
	return dst
}

// TestEdgeQueueMatchesReference drives the slab queue and the map-based
// reference with the same seeded random Enqueue/Broadcast/Flush
// sequences and requires identical flush batches, element for element,
// and identical Pending counts after every operation. The small port
// range keeps the queue on its scan path; the large one crosses into the
// port index. Broadcasts land both on empty queues (the batch path) and
// on busy ones, and are followed by Enqueues and second Broadcasts, so
// the batch is turned into per-port entries every way it can be.
func TestEdgeQueueMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ports int
	}{{"scan", 10}, {"index", 400}} {
		t.Run(tc.name, func(t *testing.T) {
			var batches, spills int
			for seed := uint64(1); seed <= 40; seed++ {
				b, s := diffQueues(t, rng.New(seed), tc.ports)
				batches += b
				spills += s
			}
			if batches == 0 || spills == 0 {
				t.Fatalf("%d batched broadcasts, %d spilled: the batch path went unexercised", batches, spills)
			}
		})
	}
}

// diffQueues runs one random operation sequence against both queues. It
// returns how many Broadcasts were recorded as a batch and how many
// batches an Enqueue or Broadcast turned into per-port entries.
func diffQueues(t *testing.T, r *rng.Source, portRange int) (batches, spills int) {
	t.Helper()
	var q EdgeQueue
	var ref refQueue
	var got, want []Send
	flush := func(op int) {
		got = q.Flush(got[:0])
		want = ref.Flush(want[:0])
		if len(got) != len(want) {
			t.Fatalf("op %d: flush of %d sends, reference %d", op, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d: send %d = %+v, reference %+v", op, i, got[i], want[i])
			}
		}
	}
	for op := 0; op < 600; op++ {
		batched := q.batch != nil
		switch k := r.Intn(10); {
		case k < 4:
			port := 1 + r.Intn(portRange)
			q.Enqueue(port, testPayload{id: op})
			ref.Enqueue(port, testPayload{id: op})
		case k < 6:
			ports := r.SampleDistinct(1+r.Intn(portRange), portRange, nil)
			for i := range ports {
				ports[i]++
			}
			q.Broadcast(ports, testPayload{id: op})
			ref.Broadcast(ports, testPayload{id: op})
			if !batched && q.batch != nil {
				batches++
			}
		case k < 9:
			flush(op)
		default:
			for !q.Empty() || ref.pending > 0 {
				flush(op)
			}
		}
		if batched && q.batch == nil && ref.pending > 0 && q.Pending() > 0 {
			spills++
		}
		if q.Pending() != ref.pending {
			t.Fatalf("op %d: Pending = %d, reference %d", op, q.Pending(), ref.pending)
		}
	}
	return batches, spills
}

// TestEdgeQueueSteadyStateAllocs pins the slab queue's zero-allocation
// claims: once its slabs have grown, the enqueue/flush cycle on
// recurring ports into a reused dst allocates nothing, and neither does
// a Broadcast into an empty queue and its Flush.
func TestEdgeQueueSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var p Payload = testPayload{id: 1}
	ports := make([]int, 64)
	for i := range ports {
		ports[i] = 3*i + 1
	}
	var q EdgeQueue
	dst := make([]Send, 0, 3*len(ports))
	cycle := func() {
		for _, port := range ports {
			q.Enqueue(port, p)
			q.Enqueue(port, p)
		}
		for !q.Empty() {
			dst = q.Flush(dst[:0])
		}
	}
	cycle() // grow the slots, the port index and the node slabs
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("enqueue/flush cycle: %v allocs, want 0", a)
	}
	var bq EdgeQueue
	fanout := func() {
		bq.Broadcast(ports, p)
		dst = bq.Flush(dst[:0])
	}
	if a := testing.AllocsPerRun(100, fanout); a != 0 {
		t.Errorf("broadcast+flush: %v allocs, want 0", a)
	}
}
