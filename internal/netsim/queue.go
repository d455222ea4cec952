package netsim

import "slices"

// EdgeQueue buffers outgoing messages so a machine can respect the CONGEST
// discipline of at most one message per edge per round. Enqueue any number
// of messages; each call to Flush returns a batch containing at most one
// message per port (the head of each port's queue) and retains the rest.
//
// Flush order: the batch lists active ports in activation order — the
// order in which each port went from empty to nonempty — so a port that
// drains and is enqueued again moves to the end. Broadcast(ports, p) is
// exactly ports' Enqueue(port, p) in slice order; into an empty queue it
// costs O(1) until the next Flush, which makes a candidate's fan-out to
// its referees cheap. Its ports must be distinct, and the caller must not
// modify the slice's elements before the next Flush, which reads them.
//
// Storage is two flat slabs: a slot per port ever used (found by a scan
// while there are few, then through a pointer-free port index), and
// queue nodes, through which each port's FIFO is threaded as an
// intrusive list, with a free list. The steady-state enqueue/flush cycle
// on recurring ports therefore allocates nothing.
//
// The paper relies on this pattern in the pre-processing step of the
// election algorithm, where a referee must send O(log n / alpha) ranks to a
// candidate "in parallel" over O(log n / alpha) rounds.
//
// The zero value is ready to use.
type EdgeQueue struct {
	slots  []edgeSlot
	index  map[int]int32 // port -> slot, built once slots outgrow a scan
	active []int32       // slots with queued payloads, in activation order

	// FIFO nodes. Node references are 1-based so that 0 means none and
	// the zero value needs no set-up; free chains spare nodes through
	// their next links.
	nodes []edgeNode
	free  int32

	// A Broadcast into an empty queue: every port in batch holds batchP
	// and nothing else is queued. Ordinary entries replace it on the
	// next Enqueue or Broadcast.
	batch  []int
	batchP Payload

	pending int
}

// edgeSlot is one port's FIFO: head and tail node references, 0 when
// the port has nothing queued.
type edgeSlot struct {
	port       int
	head, tail int32
}

type edgeNode struct {
	p    Payload
	next int32
}

const (
	// scanSlots is the slot count up to which a linear scan finds a
	// port; a referee typically serves a handful of candidates.
	scanSlots = 16
	// firstSlots and firstNodes size the slabs on first use, so a
	// small queue grows them once instead of once per doubling.
	firstSlots = 4
	firstNodes = 8
)

// Enqueue adds a payload destined for the given port.
func (q *EdgeQueue) Enqueue(port int, p Payload) {
	if q.batch != nil {
		q.spill()
	}
	q.push(q.slot(port), p)
}

// Broadcast enqueues p on every port in ports, in order. The ports must
// be distinct and left unchanged until the next Flush.
func (q *EdgeQueue) Broadcast(ports []int, p Payload) {
	if len(ports) == 0 {
		return
	}
	if q.pending == 0 {
		q.batch, q.batchP = ports, p
		q.pending = len(ports)
		return
	}
	if q.batch != nil {
		q.spill()
	}
	for _, port := range ports {
		q.push(q.slot(port), p)
	}
}

// spill turns the pending broadcast batch into ordinary per-port entries.
func (q *EdgeQueue) spill() {
	ports, p := q.batch, q.batchP
	q.batch, q.batchP = nil, nil
	q.pending = 0
	for _, port := range ports {
		q.push(q.slot(port), p)
	}
}

// slot returns the slot index of port, creating the slot on first use.
func (q *EdgeQueue) slot(port int) int32 {
	if q.index == nil {
		for i := range q.slots {
			if q.slots[i].port == port {
				return int32(i)
			}
		}
		if len(q.slots) < scanSlots {
			if q.slots == nil {
				q.slots = make([]edgeSlot, 0, firstSlots)
			}
			q.slots = append(q.slots, edgeSlot{port: port})
			return int32(len(q.slots) - 1)
		}
		q.index = make(map[int]int32, 2*scanSlots)
		for i := range q.slots {
			q.index[q.slots[i].port] = int32(i)
		}
	}
	if s, ok := q.index[port]; ok {
		return s
	}
	s := int32(len(q.slots))
	q.slots = append(q.slots, edgeSlot{port: port})
	q.index[port] = s
	return s
}

// push appends p to slot s's FIFO, activating the slot if it was empty.
func (q *EdgeQueue) push(s int32, p Payload) {
	var n int32
	if q.free != 0 {
		n = q.free
		q.free = q.nodes[n-1].next
		q.nodes[n-1] = edgeNode{p: p}
	} else {
		if q.nodes == nil {
			q.nodes = make([]edgeNode, 0, firstNodes)
		}
		q.nodes = append(q.nodes, edgeNode{p: p})
		n = int32(len(q.nodes))
	}
	sl := &q.slots[s]
	if sl.head == 0 {
		sl.head = n
		if q.active == nil {
			q.active = make([]int32, 0, firstSlots)
		}
		q.active = append(q.active, s)
	} else {
		q.nodes[sl.tail-1].next = n
	}
	sl.tail = n
	q.pending++
}

// Flush pops at most one payload per port and appends the resulting sends
// to dst, returning the extended slice.
func (q *EdgeQueue) Flush(dst []Send) []Send {
	if q.pending == 0 {
		return dst
	}
	if q.batch != nil {
		dst = slices.Grow(dst, len(q.batch))
		for _, port := range q.batch {
			dst = append(dst, Send{Port: port, Payload: q.batchP})
		}
		q.batch, q.batchP = nil, nil
		q.pending = 0
		return dst
	}
	dst = slices.Grow(dst, len(q.active))
	remaining := q.active[:0]
	for _, s := range q.active {
		sl := &q.slots[s]
		n := sl.head
		nd := &q.nodes[n-1]
		dst = append(dst, Send{Port: sl.port, Payload: nd.p})
		sl.head = nd.next
		*nd = edgeNode{next: q.free} // drop the payload; the node is recycled
		q.free = n
		q.pending--
		if sl.head != 0 {
			remaining = append(remaining, s)
		} else {
			sl.tail = 0
		}
	}
	q.active = remaining
	return dst
}

// Empty reports whether no payloads are pending.
func (q *EdgeQueue) Empty() bool { return q.pending == 0 }

// Pending returns the total number of queued payloads.
func (q *EdgeQueue) Pending() int { return q.pending }
