package netsim

// Struct-of-arrays inbox storage. The engine used to keep one
// independently grown []Delivery per node and rotate n slice headers at
// every round barrier; at n in the hundreds of thousands the headers
// alone span megabytes and every delivery append touches a random one,
// so the delivery phase degenerated into cache misses. A shardInbox
// replaces the per-node slices with one contiguous, reusable buffer per
// receiver shard, partitioned by receiver through two offset tables:
// node u's inbox for the round is buf[off[u-lo] : cur[u-lo]]. The buffer
// is rebuilt every round by a stable two-pass counting sort over the
// routing buckets and the round's awake nodes (buildInbox), and its
// backing array is an arena owned by the shard — grown geometrically to
// the run's high-water mark and then reused round after round, so the
// steady state allocates nothing at any n.
type shardInbox struct {
	// lo is the first node of the shard; the offset tables are indexed
	// by u-lo.
	lo int
	// buf holds the shard's deliveries for the current round, grouped by
	// receiver in ascending (sender, outbox index) order — exactly the
	// order the per-node slices used to accumulate.
	buf []Delivery
	// off[l] is where node lo+l's inbox starts in buf; it is meaningful
	// only for the round's awake nodes.
	off []int32
	// cur is the counting-sort scratch: delivery counts, then placement
	// cursors, and after placement the end of each awake node's inbox.
	// Stepping a node resets its entry to zero.
	cur []int32
}

func newShardInbox(lo, hi int) shardInbox {
	return shardInbox{
		lo:  lo,
		off: make([]int32, hi-lo),
		cur: make([]int32, hi-lo),
	}
}

// growDeliveries returns the arena resized to hold n deliveries,
// reallocating only when n exceeds the high-water capacity. Growth
// doubles so a warming-up run settles after O(log n) allocations; after
// that the same backing array is reused every round.
func growDeliveries(buf []Delivery, n int) []Delivery {
	if n <= cap(buf) {
		return buf[:n]
	}
	c := 2 * cap(buf)
	if c < n {
		c = n
	}
	return make([]Delivery, n, c)
}
