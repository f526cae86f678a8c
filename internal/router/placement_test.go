package router

import (
	"math/rand"
	"testing"
)

// TestP2CLevelsSkewedFleet pins the balancing property the placement
// policy exists for: starting from a badly skewed fleet, power-of-two-
// choices converges the queues while round-robin — which ignores load —
// preserves the initial imbalance forever. The classic two-choices
// result bounds P2C's spread at O(log log n); round-robin's stays at
// the initial skew.
func TestP2CLevelsSkewedFleet(t *testing.T) {
	// Leveling the skew needs enough placements for the water-fill to
	// pass the deepest queue: lifting every replica to 700 costs
	// Σ(700−100i) = 2800, so 4000 placements push the common level to
	// ~800 with slack to spare.
	const (
		n          = 8
		queueCap   = 4096
		placements = 4000
	)
	mkLoads := func() []Load {
		loads := make([]Load, n)
		for i := range loads {
			loads[i] = Load{
				Name:      "r",
				QueueLen:  i * 100, // skew: replica 7 starts 700 deep
				QueueCap:  queueCap,
				Placeable: true,
			}
		}
		return loads
	}
	spread := func(loads []Load) int {
		min, max := loads[0].QueueLen, loads[0].QueueLen
		for _, l := range loads[1:] {
			if l.QueueLen < min {
				min = l.QueueLen
			}
			if l.QueueLen > max {
				max = l.QueueLen
			}
		}
		return max - min
	}

	p2c := mkLoads()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < placements; i++ {
		pick := PickP2C(p2c, rng.Intn)
		if pick < 0 {
			t.Fatalf("p2c placement %d found no replica", i)
		}
		p2c[pick].QueueLen++
	}

	rr := mkLoads()
	for i := 0; i < placements; i++ {
		pick := PickRoundRobin(rr, uint64(i))
		if pick < 0 {
			t.Fatalf("rr placement %d found no replica", i)
		}
		rr[pick].QueueLen++
	}

	// Round-robin spreads placements uniformly (250 each), so the
	// initial 700 spread survives untouched.
	if got := spread(rr); got != 700 {
		t.Errorf("round-robin spread = %d, want the initial 700 preserved", got)
	}
	// P2C steers placements at the least-loaded of each sampled pair;
	// once the fill passes the deepest queue the spread collapses to
	// the two-choices O(log log n) band.
	if got := spread(p2c); got > 16 {
		t.Errorf("p2c spread = %d, want ≤16 after leveling", got)
	}
	if spread(p2c) >= spread(rr) {
		t.Errorf("p2c spread %d not better than round-robin %d", spread(p2c), spread(rr))
	}
}

// TestRoundRobinUniform: on a homogeneous fleet, round-robin is exactly
// uniform and visits replicas in rotation order.
func TestRoundRobinUniform(t *testing.T) {
	loads := make([]Load, 4)
	for i := range loads {
		loads[i].Placeable = true
	}
	counts := make([]int, 4)
	for i := 0; i < 100; i++ {
		pick := PickRoundRobin(loads, uint64(i))
		if pick != i%4 {
			t.Fatalf("placement %d picked %d, want %d", i, pick, i%4)
		}
		counts[pick]++
	}
	for i, c := range counts {
		if c != 25 {
			t.Errorf("replica %d got %d placements, want 25", i, c)
		}
	}
}

// TestPickersRespectPlaceability: every picker returns -1 on an empty
// placeable set, and the sole placeable replica otherwise.
func TestPickersRespectPlaceability(t *testing.T) {
	down := []Load{{QueueCap: 8}, {QueueCap: 8}}
	rng := rand.New(rand.NewSource(1))
	if p := PickP2C(down, rng.Intn); p != -1 {
		t.Errorf("PickP2C on all-down fleet = %d, want -1", p)
	}
	if p := PickRoundRobin(down, 0); p != -1 {
		t.Errorf("PickRoundRobin on all-down fleet = %d, want -1", p)
	}
	if p := PickLeastPressure(down); p != -1 {
		t.Errorf("PickLeastPressure on all-down fleet = %d, want -1", p)
	}

	one := []Load{{Placeable: false}, {Placeable: true, QueueLen: 99, QueueCap: 100}, {Placeable: false}}
	for i := 0; i < 10; i++ {
		if p := PickP2C(one, rng.Intn); p != 1 {
			t.Fatalf("PickP2C with one placeable = %d, want 1", p)
		}
		if p := PickRoundRobin(one, uint64(i)); p != 1 {
			t.Fatalf("PickRoundRobin with one placeable = %d, want 1", p)
		}
	}
	if p := PickLeastPressure(one); p != 1 {
		t.Errorf("PickLeastPressure with one placeable = %d, want 1", p)
	}
}

// TestPickLeastPressure: global minimum by pressure, ties broken by
// fewer running sequences, then lower index — a total order.
func TestPickLeastPressure(t *testing.T) {
	loads := []Load{
		{Placeable: true, QueueLen: 4, QueueCap: 8},                                     // pressure 0.5
		{Placeable: true, QueueLen: 1, QueueCap: 8},                                     // pressure 0.125 ← min
		{Placeable: true, QueueLen: 1, QueueCap: 8, KVTotalBlocks: 10, KVFreeBlocks: 5}, // 0.625
		{Placeable: false}, // pressure 0 but down
	}
	if p := PickLeastPressure(loads); p != 1 {
		t.Errorf("PickLeastPressure = %d, want 1", p)
	}

	ties := []Load{
		{Placeable: true, Running: 3},
		{Placeable: true, Running: 1}, // same pressure (0), fewer running ← wins
		{Placeable: true, Running: 1}, // equal again; higher index loses
	}
	if p := PickLeastPressure(ties); p != 1 {
		t.Errorf("tie-break pick = %d, want 1", p)
	}
}

// TestPressureBounds: pressure is the queue fraction plus the KV used
// fraction, each term only present when bounded.
func TestPressureBounds(t *testing.T) {
	cases := []struct {
		l    Load
		want float64
	}{
		{Load{}, 0},
		{Load{QueueLen: 4, QueueCap: 8}, 0.5},
		{Load{KVTotalBlocks: 10, KVFreeBlocks: 2}, 0.8},
		{Load{QueueLen: 8, QueueCap: 8, KVTotalBlocks: 10, KVFreeBlocks: 0}, 2},
	}
	for i, c := range cases {
		if got := c.l.Pressure(); got != c.want {
			t.Errorf("case %d: pressure = %v, want %v", i, got, c.want)
		}
	}
}

// FuzzRouterPlacement checks placement invariants on arbitrary fleets:
// every picker returns -1 exactly when nothing is placeable, otherwise
// a placeable index; P2C is deterministic per rand seed; and
// PickLeastPressure returns a true global minimum under the better()
// order.
func FuzzRouterPlacement(f *testing.F) {
	f.Add([]byte{0, 8, 0, 4, 8, 1, 7, 8, 2, 0, 0, 1}, int64(1), uint64(0))
	f.Add([]byte{255, 255, 255, 255, 255, 255}, int64(42), uint64(9))
	f.Add([]byte{}, int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, counter uint64) {
		var loads []Load
		for i := 0; i+6 <= len(data) && len(loads) < 64; i += 6 {
			loads = append(loads, Load{
				QueueLen:      int(data[i]),
				QueueCap:      int(data[i+1]),
				Running:       int(data[i+2]),
				KVFreeBlocks:  int(data[i+3]),
				KVTotalBlocks: int(data[i+4]),
				Placeable:     data[i+5]&1 == 1,
			})
		}
		anyPlaceable := false
		for _, l := range loads {
			if l.Placeable {
				anyPlaceable = true
			}
		}
		check := func(name string, pick int) {
			if anyPlaceable {
				if pick < 0 || pick >= len(loads) || !loads[pick].Placeable {
					t.Fatalf("%s = %d: not a placeable index (fleet %+v)", name, pick, loads)
				}
			} else if pick != -1 {
				t.Fatalf("%s = %d on a fleet with nothing placeable", name, pick)
			}
		}
		p1 := PickP2C(loads, rand.New(rand.NewSource(seed)).Intn)
		p2 := PickP2C(loads, rand.New(rand.NewSource(seed)).Intn)
		check("PickP2C", p1)
		if p1 != p2 {
			t.Fatalf("PickP2C not deterministic per seed: %d vs %d", p1, p2)
		}
		check("PickRoundRobin", PickRoundRobin(loads, counter))
		lp := PickLeastPressure(loads)
		check("PickLeastPressure", lp)
		if lp >= 0 {
			for i := range loads {
				if loads[i].Placeable && better(loads, i, lp) {
					t.Fatalf("PickLeastPressure = %d but %d is strictly better", lp, i)
				}
			}
		}
	})
}
