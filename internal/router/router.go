package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/model"
)

// ErrNoReplicas: every replica is down, draining, or was tried and
// refused — the router-level spill after retries are exhausted.
var ErrNoReplicas = errors.New("router: no replica accepted the request")

// Placement policies.
const (
	// PolicyP2C is power-of-two-choices by least KV pressure (default).
	PolicyP2C = "p2c"
	// PolicyRoundRobin rotates placements, ignoring load.
	PolicyRoundRobin = "round-robin"
)

// ReplicaSpec declares one replica of the fleet: a full gateway +
// executor stack. Fleets may be heterogeneous — each spec carries its
// own offload tiering, quant tier, TP width, and queue/KV envelope in
// its gateway config.
type ReplicaSpec struct {
	// Name identifies the replica (unique within the fleet).
	Name string
	// Model is the served architecture (default llm.TinyConfig()).
	Model model.Config
	// Seed draws the model weights (llm.NewRandom); replicas sharing a
	// seed and config serve bit-identical models, so failover between
	// them re-serves the same tokens.
	Seed int64
	// Policy is the executor's offloading policy.
	Policy core.Policy
	// Gateway is the replica's serving envelope (queue depth, batch
	// bound, KV budget, quant tier, TP width, ...).
	Gateway gateway.Config
}

// Config parameterizes the router.
type Config struct {
	// Policy selects placement: PolicyP2C (default) or PolicyRoundRobin.
	Policy string
	// Seed drives the P2C sampler (deterministic placement per seed
	// given identical health snapshots).
	Seed int64
	// ProbeInterval is how often each replica's prober publishes a
	// health report (default 1ms — the tiny model's rounds are fast).
	ProbeInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyP2C
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Millisecond
	}
	return c
}

// Replica states.
const (
	// StateUp: serving and placeable.
	StateUp = "up"
	// StateDraining: finishing in-flight work, not placeable.
	StateDraining = "draining"
	// StateDown: stopped; Respawn restarts it.
	StateDown = "down"
)

// replica is one fleet slot. The gateway pointer and state are guarded
// by the router mutex; the health snapshot is the prober/collector
// pair's lock-free publication.
type replica struct {
	spec  ReplicaSpec
	model *llm.Model // weights, reused across respawns (read-only)

	state string
	gen   int // bumped by Respawn; stale probe reports are discarded
	gw    *gateway.Gateway

	health atomic.Pointer[gateway.Health]
}

// healthReport travels the per-replica health channel from prober to
// collector.
type healthReport struct {
	name string
	gen  int
	h    gateway.Health
}

// Router is the fleet front door.
type Router struct {
	cfg Config

	mu       sync.RWMutex
	replicas []*replica // placement order is slice order
	byName   map[string]*replica

	healthCh  chan healthReport
	stop      chan struct{}
	collector sync.WaitGroup
	probers   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand
	rr    atomic.Uint64

	// Routing counters for Snapshot.
	placed    atomic.Uint64
	retried   atomic.Uint64
	failovers atomic.Uint64
	spilled   atomic.Uint64
}

// New stands up the fleet: one gateway per spec, a prober per replica,
// and the health collector. Every replica starts Up.
func New(cfg Config, specs []ReplicaSpec) (*Router, error) {
	cfg = cfg.withDefaults()
	switch cfg.Policy {
	case PolicyP2C, PolicyRoundRobin:
	default:
		return nil, fmt.Errorf("router: unknown placement policy %q", cfg.Policy)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("router: fleet needs at least one replica")
	}
	r := &Router{
		cfg:      cfg,
		byName:   map[string]*replica{},
		healthCh: make(chan healthReport, 4*len(specs)),
		stop:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, spec := range specs {
		if _, err := r.addReplica(spec); err != nil {
			// Unwind the replicas already started.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, rep := range r.replicas {
				rep.gw.Shutdown(ctx)
			}
			close(r.stop)
			r.probers.Wait()
			return nil, err
		}
	}
	r.collector.Add(1)
	go r.collect()
	return r, nil
}

// addReplica builds and starts one replica (caller holds no locks; only
// used before the router is shared or under mu).
func (r *Router) addReplica(spec ReplicaSpec) (*replica, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("router: replica needs a name")
	}
	if _, dup := r.byName[spec.Name]; dup {
		return nil, fmt.Errorf("router: duplicate replica name %q", spec.Name)
	}
	if spec.Model.DModel == 0 {
		spec.Model = llm.TinyConfig()
	}
	if spec.Seed == 0 {
		spec.Seed = 42
	}
	m, err := llm.NewRandom(spec.Model, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("router: replica %q model: %w", spec.Name, err)
	}
	rep := &replica{spec: spec, model: m, state: StateUp}
	if err := r.startGateway(rep); err != nil {
		return nil, err
	}
	r.replicas = append(r.replicas, rep)
	r.byName[spec.Name] = rep
	return rep, nil
}

// startGateway builds a fresh executor over the replica's (shared,
// read-only) weights, starts its gateway, and launches the generation's
// prober.
func (r *Router) startGateway(rep *replica) error {
	exec := llm.NewExecutor(rep.model, rep.spec.Policy)
	gw, err := gateway.New(exec, rep.spec.Gateway)
	if err != nil {
		return fmt.Errorf("router: replica %q: %w", rep.spec.Name, err)
	}
	rep.gw = gw
	h := gw.Health()
	rep.health.Store(&h)
	name, gen := rep.spec.Name, rep.gen
	r.probers.Add(1)
	go r.probe(name, gen, gw)
	return nil
}

// probe is one replica generation's health publisher: every
// ProbeInterval it reads the gateway's load gauges and sends a report
// down the health channel. It exits when the router stops or the
// gateway finishes draining (its batcher exited).
func (r *Router) probe(name string, gen int, gw *gateway.Gateway) {
	defer r.probers.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		report := healthReport{name: name, gen: gen, h: gw.Health()}
		select {
		case r.healthCh <- report:
		case <-r.stop:
			return
		default:
			// Collector is behind; drop this tick rather than block the
			// prober (the next tick carries fresher data anyway).
		}
	}
}

// collect is the health collector: the single reader of the health
// channel, publishing each current-generation report into its replica's
// atomic snapshot slot.
func (r *Router) collect() {
	defer r.collector.Done()
	for {
		select {
		case <-r.stop:
			return
		case report := <-r.healthCh:
			r.mu.RLock()
			rep := r.byName[report.name]
			if rep != nil && rep.gen == report.gen {
				h := report.h
				rep.health.Store(&h)
			}
			r.mu.RUnlock()
		}
	}
}

// loads snapshots the fleet for a placement decision. The returned
// slices are index-aligned.
func (r *Router) loads() ([]Load, []*replica) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	loads := make([]Load, len(r.replicas))
	reps := make([]*replica, len(r.replicas))
	for i, rep := range r.replicas {
		h := rep.health.Load()
		loads[i] = Load{
			Name:          rep.spec.Name,
			QueueLen:      h.QueueLen,
			QueueCap:      h.QueueCap,
			Running:       h.Running,
			KVFreeBlocks:  h.KVFreeBlocks,
			KVTotalBlocks: h.KVTotalBlocks,
			Placeable:     rep.state == StateUp && !h.Draining,
		}
		reps[i] = rep
	}
	return loads, reps
}

// place picks a replica index by policy, -1 when nothing is placeable.
func (r *Router) place(loads []Load) int {
	switch r.cfg.Policy {
	case PolicyRoundRobin:
		return PickRoundRobin(loads, r.rr.Add(1)-1)
	default:
		r.rngMu.Lock()
		defer r.rngMu.Unlock()
		return PickP2C(loads, r.rng.Intn)
	}
}

// retryable reports whether a replica-level error should fail over to
// another replica rather than surface to the caller.
func retryable(err error) bool {
	return errors.Is(err, gateway.ErrOverloaded) || errors.Is(err, gateway.ErrShuttingDown)
}

// Submit places and serves one request. The placed replica's shed or
// drain fails over to the least-pressured untried replica until one
// accepts or the fleet is exhausted (ErrNoReplicas wraps the last
// refusal — the router-level spill). A replica killed mid-request also
// fails over: the retry recomputes on a live replica, so callers see
// either a result or a deliberate spill, never a torn stream.
func (r *Router) Submit(ctx context.Context, prompt []int, n int) (gateway.Result, error) {
	loads, reps := r.loads()
	tried := make([]bool, len(reps))
	pick := r.place(loads)
	var lastErr error
	for attempt := 0; attempt < len(reps); attempt++ {
		if pick < 0 {
			break
		}
		tried[pick] = true
		rep := reps[pick]
		res, err := rep.gw.Submit(ctx, prompt, n)
		if err == nil {
			r.placed.Add(1)
			return res, nil
		}
		if !retryable(err) {
			return res, err
		}
		lastErr = err
		r.retried.Add(1)
		if errors.Is(err, gateway.ErrShuttingDown) {
			r.failovers.Add(1)
		}
		// Re-snapshot (pressures moved while we waited) and spill to the
		// least-pressured replica we have not tried yet.
		loads, reps = r.loads()
		if len(tried) != len(reps) {
			tried = append(tried, make([]bool, len(reps)-len(tried))...)
		}
		masked := make([]Load, len(loads))
		copy(masked, loads)
		for i := range masked {
			if i < len(tried) && tried[i] {
				masked[i].Placeable = false
			}
		}
		pick = PickLeastPressure(masked)
	}
	r.spilled.Add(1)
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return gateway.Result{}, fmt.Errorf("%w: %w", ErrNoReplicas, lastErr)
}

// Drain gracefully stops a replica: it leaves placement immediately and
// its gateway finishes in-flight work (bounded by ctx). The replica
// ends Down.
func (r *Router) Drain(ctx context.Context, name string) error {
	rep, err := r.transition(name, StateUp, StateDraining)
	if err != nil {
		return err
	}
	shutdownErr := rep.gw.Shutdown(ctx)
	r.mu.Lock()
	rep.state = StateDown
	r.mu.Unlock()
	return shutdownErr
}

// Kill hard-stops a replica: in-flight and queued requests fail with
// ErrShuttingDown (and fail over through Submit's retry). The replica
// ends Down.
func (r *Router) Kill(name string) error {
	rep, err := r.transition(name, StateUp, StateDown)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired context = kill, not drain
	rep.gw.Shutdown(ctx)
	return nil
}

// Respawn restarts a Down replica with a fresh gateway and executor
// over the same weights (same spec, same seed — the respawned replica
// serves bit-identical tokens). Its health generation bumps so stale
// probe reports from the dead gateway are discarded.
func (r *Router) Respawn(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("router: unknown replica %q", name)
	}
	if rep.state != StateDown {
		return fmt.Errorf("router: replica %q is %s, not down", name, rep.state)
	}
	rep.gen++
	if err := r.startGateway(rep); err != nil {
		rep.gen--
		return err
	}
	rep.state = StateUp
	return nil
}

// transition atomically moves a replica between states.
func (r *Router) transition(name, from, to string) (*replica, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("router: unknown replica %q", name)
	}
	if rep.state != from {
		return nil, fmt.Errorf("router: replica %q is %s, not %s", name, rep.state, from)
	}
	rep.state = to
	return rep, nil
}

// Snapshot is the router's own counters (per-replica serving counters
// live in each gateway's Snapshot).
type Snapshot struct {
	// Placed counts requests a replica accepted.
	Placed uint64
	// Retried counts replica refusals that were retried elsewhere.
	Retried uint64
	// Failovers counts retries caused by a draining or killed replica.
	Failovers uint64
	// Spilled counts requests no replica accepted (returned ErrNoReplicas).
	Spilled uint64
	// Replicas maps name → lifecycle state.
	Replicas map[string]string
}

// Snapshot returns the router counters and replica states.
func (r *Router) Snapshot() Snapshot {
	s := Snapshot{
		Placed:    r.placed.Load(),
		Retried:   r.retried.Load(),
		Failovers: r.failovers.Load(),
		Spilled:   r.spilled.Load(),
		Replicas:  map[string]string{},
	}
	r.mu.RLock()
	for _, rep := range r.replicas {
		s.Replicas[rep.spec.Name] = rep.state
	}
	r.mu.RUnlock()
	return s
}

// Replica returns a replica's gateway for metrics inspection (nil when
// the replica is down).
func (r *Router) Replica(name string) *gateway.Gateway {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rep, ok := r.byName[name]
	if !ok || rep.state == StateDown {
		return nil
	}
	return rep.gw
}

// Shutdown drains every Up replica (bounded by ctx), stops the probers
// and collector, and waits for all router goroutines to exit. Safe to
// call once.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	var toStop []*replica
	for _, rep := range r.replicas {
		if rep.state == StateUp || rep.state == StateDraining {
			rep.state = StateDown
			toStop = append(toStop, rep)
		}
	}
	r.mu.Unlock()
	var (
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for _, rep := range toStop {
		wg.Add(1)
		go func(g *gateway.Gateway) {
			defer wg.Done()
			if err := g.Shutdown(ctx); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(rep.gw)
	}
	wg.Wait()
	close(r.stop)
	r.probers.Wait()
	r.collector.Wait()
	return firstErr
}
