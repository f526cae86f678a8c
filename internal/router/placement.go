// Package router is the fleet front door: N gateway+executor replicas —
// possibly heterogeneous in device, offload tiering, quant tier, and
// tensor-parallel width — behind one Submit. Placement is
// power-of-two-choices scored by least KV pressure (live kvpage
// headroom plus queue depth, reported over a per-replica health
// channel). A replica that sheds or drains is retried on the next-best
// replica before the router spills the request back to the caller. Replica lifecycle — spawn,
// drain, kill, respawn — is first-class, and the deterministic
// FleetReplay prices the same placement policies over virtual clocks
// for the scale study.
package router

// Load is one replica's placement-relevant state: the router's health
// collector assembles these from gateway.Health reports, and the replay
// assembles them from virtual-machine state. Placement is a pure
// function of a []Load slice, so live and replayed fleets share the
// exact same policy code.
type Load struct {
	// Name identifies the replica.
	Name string
	// QueueLen and QueueCap are the admission queue's occupancy and bound.
	QueueLen, QueueCap int
	// Running is the in-flight batch size.
	Running int
	// KVFreeBlocks and KVTotalBlocks are the KV pool's headroom and
	// capacity (0/0 when the replica serves without a KV budget).
	KVFreeBlocks, KVTotalBlocks int
	// Placeable reports whether the replica accepts new work (up, not
	// draining, not down).
	Placeable bool
}

// Pressure scores how loaded a replica is, in [0, 2]: the queue's
// occupancy fraction plus the KV pool's used fraction. Lower is better.
// A replica with no KV budget scores only its queue; one with no queue
// bound scores only its pool.
func (l Load) Pressure() float64 {
	var p float64
	if l.QueueCap > 0 {
		p += float64(l.QueueLen) / float64(l.QueueCap)
	}
	if l.KVTotalBlocks > 0 {
		p += float64(l.KVTotalBlocks-l.KVFreeBlocks) / float64(l.KVTotalBlocks)
	}
	return p
}

// better reports whether loads[i] is the stricter placement choice than
// loads[j]: lower pressure, then fewer running sequences, then the
// lower index (a total order, so placement is deterministic given the
// sampled pair).
func better(loads []Load, i, j int) bool {
	pi, pj := loads[i].Pressure(), loads[j].Pressure()
	if pi != pj {
		return pi < pj
	}
	if loads[i].Running != loads[j].Running {
		return loads[i].Running < loads[j].Running
	}
	return i < j
}

// PickP2C places by power-of-two-choices: sample two distinct placeable
// replicas with the caller's rand source (intn(n) must return uniform
// values in [0, n)) and keep the less pressured. One placeable replica
// short-circuits; none returns -1. P2C keeps the maximum load within
// O(log log n) of the mean while sampling only two health reports per
// decision — the classic balls-into-bins result the placement property
// test pins against round-robin.
func PickP2C(loads []Load, intn func(int) int) int {
	idx := placeable(loads)
	switch len(idx) {
	case 0:
		return -1
	case 1:
		return idx[0]
	}
	a := idx[intn(len(idx))]
	b := idx[intn(len(idx))]
	for b == a {
		b = idx[intn(len(idx))]
	}
	if better(loads, a, b) {
		return a
	}
	return b
}

// PickRoundRobin places by rotation: the counter-th placeable replica,
// ignoring load entirely. The baseline policy of the scale study's A/B
// axis.
func PickRoundRobin(loads []Load, counter uint64) int {
	idx := placeable(loads)
	if len(idx) == 0 {
		return -1
	}
	return idx[counter%uint64(len(idx))]
}

// PickLeastPressure places on the globally least-pressured replica — a
// full scan, the upper bound P2C approximates. Used for spill-over
// ordering after a placement target sheds.
func PickLeastPressure(loads []Load) int {
	best := -1
	for i := range loads {
		if !loads[i].Placeable {
			continue
		}
		if best < 0 || better(loads, i, best) {
			best = i
		}
	}
	return best
}

// placeable collects the indexes a placement may choose.
func placeable(loads []Load) []int {
	idx := make([]int, 0, len(loads))
	for i := range loads {
		if loads[i].Placeable {
			idx = append(idx, i)
		}
	}
	return idx
}
