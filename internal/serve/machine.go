package serve

import (
	"fmt"

	"github.com/lia-sim/lia/internal/batchpolicy"
	"github.com/lia-sim/lia/internal/kvpage"
	"github.com/lia-sim/lia/internal/model"
	"github.com/lia-sim/lia/internal/units"
)

// Virtual round costs: the whole-microsecond closed forms the scenario
// lab's replay leg and the fleet replay price rounds with, on the A100
// reference device. Whole microseconds keep every clock comparison exact
// in float64, so a replay is a pure function of its seed; callers scale
// them (quant tier, device speed, TP ways) but never re-type them.
const (
	RoundPrefillTokenCost = 0.25e-3  // seconds per token of the widest prompt, per admitted sequence
	RoundDecodeSeqCost    = 1e-3     // seconds per running sequence per decode round
	RoundDecodeCtxCost    = 0.125e-3 // seconds per token of mean context per decode round
)

// ReplayRequest is one request on the virtual clock: lengths plus an
// arrival time, and optionally the client-side abandonment times the
// live gateway honours through contexts. All times are absolute; zero
// means "never".
type ReplayRequest struct {
	PromptLen, OutputLen int
	Arrival              units.Seconds
	// CancelAt is when the client walks away; Deadline when its SLO
	// expires. Both resolve the request as canceled: still waiting → it
	// leaves the queue, running → the machine reaps the sequence
	// (EventRemove) and frees its KV blocks, exactly like the live
	// gateway's reapCanceled pass.
	CancelAt units.Seconds
	Deadline units.Seconds
}

// Expiry returns the request's earliest abandonment time, 0 if it never
// abandons.
func (r ReplayRequest) Expiry() units.Seconds {
	e := r.CancelAt
	if d := r.Deadline; d > 0 && (e == 0 || d < e) {
		e = d
	}
	return e
}

// Replay outcomes. The zero value is never reported: every request in a
// finished replay is completed, shed, or canceled — the accounting
// identity the scenario harness asserts.
const (
	ReplayCompleted = "completed"
	ReplayShed      = "shed"
	ReplayCanceled  = "canceled"
)

// ReplayOutcome is one request's fate and timeline on the virtual
// clock. Zero times mean the request never reached that stage (a shed
// request has only Arrival and Finish; a request canceled while waiting
// has no Admitted or FirstToken).
type ReplayOutcome struct {
	Outcome    string
	Arrival    units.Seconds
	Admitted   units.Seconds // first admission (re-admission after preemption or failover doesn't reset it)
	FirstToken units.Seconds // end of the prefill that produced the first token
	Finish     units.Seconds // completion, shed, or cancel time
	Emitted    int           // output tokens produced (partial for canceled)
}

// ReplayConfig sizes one virtual machine. The pool is kvpage.ForModel
// over the model config — the one construction every virtual path
// shares — and Costs is the injected engine: analytic stage costs for
// the simulator, closed forms for the scenario lab, device-scaled
// closures for a fleet replica.
type ReplayConfig struct {
	MaxBatch      int
	Model         model.Config
	KVBudget      units.Bytes
	KVBlockTokens int
	Costs         *StepCosts
	// QueueDepth bounds the not-yet-admitted backlog, mirroring the live
	// gateway's submit channel: an arrival that finds QueueDepth requests
	// already waiting is shed (the virtual 429). 0 means unbounded.
	QueueDepth int
}

// ReplayResult is a replay's observable behaviour: the full ordered
// scheduling-decision stream, summary counts, and a per-request outcome
// record (indexed like the request slice).
type ReplayResult struct {
	Events      []batchpolicy.Event
	Completed   int
	Preemptions int
	Shed        int
	Canceled    int
	Makespan    units.Seconds
	Requests    []ReplayOutcome
}

// Ledger pairs a request stream with the result its machines record
// into. A fleet's machines share one, which is what lets a request that
// fails over keep its first Admitted and FirstToken stamps and keeps the
// event stream in one global order.
type Ledger struct {
	Reqs []ReplayRequest
	ReplayResult
}

// NewLedger opens the record for a stream, which must be sorted by
// arrival.
func NewLedger(reqs []ReplayRequest) (*Ledger, error) {
	l := &Ledger{Reqs: reqs}
	l.Requests = make([]ReplayOutcome, len(reqs))
	for i, r := range reqs {
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			return nil, fmt.Errorf("serve: requests not sorted by arrival")
		}
		l.Requests[i].Arrival = r.Arrival
	}
	return l, nil
}

// Expired reports whether request i has abandoned by time t.
func (l *Ledger) Expired(i int, t units.Seconds) bool {
	e := l.Reqs[i].Expiry()
	return e > 0 && e <= t
}

// Cancel resolves request i as canceled at t with emitted tokens out.
func (l *Ledger) Cancel(i int, t units.Seconds, emitted int) {
	r := &l.Requests[i]
	r.Outcome, r.Finish, r.Emitted = ReplayCanceled, t, emitted
	l.Canceled++
}

// Refuse resolves request i as shed at t.
func (l *Ledger) Refuse(i int, t units.Seconds) {
	r := &l.Requests[i]
	r.Outcome, r.Finish = ReplayShed, t
	l.Shed++
}

// Machine is one virtual serving replica: a batchpolicy.Scheduler over
// its own paged KV pool, a virtual clock, the waiting FIFO in front of
// it, and the injected costs that advance the clock. It is the only
// virtual-path caller of batchpolicy.Round; SimulateContinuous, the
// gateway replay and the fleet replay are drivers that decide when
// requests reach it and when it runs.
type Machine struct {
	cfg     ReplayConfig
	led     *Ledger
	sched   *batchpolicy.Scheduler // nil while killed
	hooks   batchpolicy.Hooks
	waiting []int // ledger indexes, FIFO
	costErr error

	// Clock is the machine's virtual time. Rounds advance it; a driver
	// may only move it forward (idle jumps, fault instants).
	Clock units.Seconds
	// Rounds counts scheduling rounds run and Completed the requests
	// finished here (a fleet's per-replica share).
	Rounds, Completed int
	// OnEvent, when set, observes every scheduling decision after the
	// ledger has recorded it. OnLaunch observes every executed prefill
	// launch and decode iteration with the clock already advanced.
	OnEvent  func(batchpolicy.Event)
	OnLaunch func(prefill bool, batch []batchpolicy.Seq)
}

// NewMachine builds a running machine recording into led.
func NewMachine(cfg ReplayConfig, led *Ledger) (*Machine, error) {
	if cfg.Costs == nil || cfg.Costs.Prefill == nil || cfg.Costs.Decode == nil {
		return nil, fmt.Errorf("serve: machine requires injected step costs")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: machine QueueDepth must be ≥0, got %d", cfg.QueueDepth)
	}
	m := &Machine{cfg: cfg, led: led}
	m.hooks = batchpolicy.Hooks{
		Waiting: func() []batchpolicy.Item {
			items := make([]batchpolicy.Item, len(m.waiting))
			for k, i := range m.waiting {
				items[k] = batchpolicy.Item{Ref: i, PromptLen: led.Reqs[i].PromptLen, OutputLen: led.Reqs[i].OutputLen}
			}
			return items
		},
		Consumed: func(n int) {
			for _, i := range m.waiting[:n] {
				if r := &led.Requests[i]; r.Admitted == 0 {
					r.Admitted = m.Clock
				}
			}
			m.waiting = m.waiting[n:]
		},
		Prefill: func(admitted []batchpolicy.Seq) error {
			maxIn := 1
			for _, a := range admitted {
				maxIn = max(maxIn, a.Item.PromptLen)
			}
			if err := m.charge(cfg.Costs.Prefill(len(admitted), maxIn)); err != nil {
				return err
			}
			for _, a := range admitted {
				if r := &led.Requests[a.Item.Ref]; r.FirstToken == 0 {
					r.FirstToken = m.Clock
				}
			}
			if m.OnLaunch != nil {
				m.OnLaunch(true, admitted)
			}
			return nil
		},
		Step: func(running []batchpolicy.Seq) error {
			var ctxSum int
			for _, a := range running {
				ctxSum += a.Context
			}
			if err := m.charge(cfg.Costs.Decode(len(running), ctxSum/len(running))); err != nil {
				return err
			}
			if m.OnLaunch != nil {
				m.OnLaunch(false, running)
			}
			return nil
		},
	}
	return m, m.Restart()
}

// charge advances the clock by one priced launch, remembering a cost
// error so Run can tell it from a scheduling failure and return it
// unwrapped.
func (m *Machine) charge(c units.Seconds, err error) error {
	if err != nil {
		m.costErr = err
		return err
	}
	m.Clock += c
	return nil
}

// Restart gives the machine a fresh scheduler and KV pool: construction,
// and respawn after Orphans killed it.
func (m *Machine) Restart() error {
	var pool *kvpage.Manager
	if m.cfg.KVBudget > 0 {
		blockTokens := m.cfg.KVBlockTokens
		if blockTokens <= 0 {
			blockTokens = 16
		}
		var err error
		if pool, err = kvpage.ForModel(m.cfg.KVBudget, blockTokens, m.cfg.Model); err != nil {
			return err
		}
	}
	sched, err := batchpolicy.NewScheduler(m.cfg.MaxBatch, pool)
	if err != nil {
		return err
	}
	sched.OnEvent = m.record
	m.sched = sched
	return nil
}

// record books one scheduling decision into the ledger.
func (m *Machine) record(e batchpolicy.Event) {
	l := m.led
	l.Events = append(l.Events, e)
	switch e.Kind {
	case batchpolicy.EventPreempt:
		l.Preemptions++
	case batchpolicy.EventComplete:
		l.Completed++
		m.Completed++
		r := &l.Requests[e.Ref]
		r.Outcome, r.Finish, r.Emitted = ReplayCompleted, m.Clock, l.Reqs[e.Ref].OutputLen
	}
	if m.OnEvent != nil {
		m.OnEvent(e)
	}
}

// Up reports whether the machine is serving (not killed).
func (m *Machine) Up() bool { return m.sched != nil }

// Busy reports whether the machine has work for its next round.
func (m *Machine) Busy() bool { return m.Up() && (len(m.waiting) > 0 || m.sched.Busy()) }

// Full reports whether the backlog has reached QueueDepth, so the next
// arrival is shed.
func (m *Machine) Full() bool { return m.cfg.QueueDepth > 0 && len(m.waiting) >= m.cfg.QueueDepth }

// Load returns what a placement decision weighs: the waiting backlog,
// the running batch size, and the pool's free and total blocks (zero
// while killed or unconstrained).
func (m *Machine) Load() (queued, running, kvFree, kvTotal int) {
	queued = len(m.waiting)
	if m.Up() {
		running = m.sched.RunningLen()
		if p := m.sched.Pool(); p != nil {
			kvFree, kvTotal = p.FreeBlocks(), p.TotalBlocks()
		}
	}
	return
}

// Enqueue appends request i to the waiting FIFO. The driver has already
// decided it is neither dead on arrival nor shed.
func (m *Machine) Enqueue(i int) { m.waiting = append(m.waiting, i) }

// Reap cancels every waiting, requeued and running request whose
// CancelAt/Deadline has passed on the machine's clock — the virtual
// reapCanceled pass, sharing batchpolicy.Scheduler.Reap with the live
// one.
func (m *Machine) Reap() error {
	expired := func(i int) bool { return m.led.Expired(i, m.Clock) }
	kept := m.waiting[:0]
	for _, i := range m.waiting {
		if expired(i) {
			m.led.Cancel(i, m.Clock, 0)
		} else {
			kept = append(kept, i)
		}
	}
	m.waiting = kept
	reaped, err := m.sched.Reap(expired)
	for _, seq := range reaped {
		m.led.Cancel(seq.Item.Ref, m.Clock, seq.Item.OutputLen-seq.Remaining)
	}
	return err
}

// Round runs one scheduling round at the machine's clock, advancing it
// by the launches the round executed. It reports false, nil when nothing
// could run; the driver decides whether that means idle, starved or
// stuck.
func (m *Machine) Round() (progressed bool, err error) {
	if progressed, err = batchpolicy.Round(m.sched, m.hooks); err != nil {
		return false, err
	}
	m.Rounds++
	if progressed {
		m.led.Makespan = max(m.led.Makespan, m.Clock)
	}
	return progressed, nil
}

// ShedStuck is a fleet's answer to a round that made no progress with
// nothing running or requeued: the waiting head cannot be admitted even
// into a drained pool, so it never will be, and re-placing it would
// ping-pong between machines that cannot hold it. It sheds that head and
// reports whether there was one.
func (m *Machine) ShedStuck() bool {
	if len(m.waiting) == 0 || m.sched.Busy() {
		return false
	}
	m.led.Refuse(m.waiting[0], m.Clock)
	m.waiting = m.waiting[1:]
	m.led.Makespan = max(m.led.Makespan, m.Clock)
	return true
}

// Orphans kills the machine and returns the work it held — waiting,
// then requeued, then running — for the driver to re-place. Requeued
// work leaves through DropRequeued (EventRemove); the running batch and
// the pool are discarded with the scheduler.
func (m *Machine) Orphans() []int {
	orphans := m.waiting
	m.waiting = nil
	for _, it := range m.sched.DropRequeued(func(batchpolicy.Item) bool { return true }) {
		orphans = append(orphans, it.Ref)
	}
	for _, seq := range m.sched.Running() {
		orphans = append(orphans, seq.Item.Ref)
	}
	m.sched = nil
	return orphans
}

// Drained is the pool-accounting invariant every driver checks when its
// replay ends: all work left through completion, reap or preemption, so
// a live machine's pool must be back to fully free.
func (m *Machine) Drained() error {
	if !m.Up() || m.sched.Pool() == nil {
		return nil
	}
	if p := m.sched.Pool(); p.Live() != 0 || p.FreeBlocks() != p.TotalBlocks() {
		return fmt.Errorf("serve: internal error: %d sequences / %d blocks leaked from the KV pool",
			p.Live(), p.TotalBlocks()-p.FreeBlocks())
	}
	return nil
}

// Run serves the ledger's whole stream on this one machine — the
// single-replica driver behind SimulateContinuous and gateway.Replay.
// Between rounds it reaps expired work, then ingests the arrivals the
// clock has reached (canceling the dead on arrival, shedding past
// QueueDepth); when nothing can run it jumps the clock to the next
// arrival or the expiry of a starved waiter, and errors when neither
// exists because the KV budget can never hold what remains.
func (m *Machine) Run() error {
	reqs, next := m.led.Reqs, 0
	for next < len(reqs) || m.Busy() {
		if err := m.Reap(); err != nil {
			return fmt.Errorf("serve: reap: %w", err)
		}
		for ; next < len(reqs) && reqs[next].Arrival <= m.Clock; next++ {
			switch {
			case m.led.Expired(next, m.Clock):
				m.led.Cancel(next, m.Clock, 0)
			case m.Full():
				m.led.Refuse(next, m.Clock)
			default:
				m.Enqueue(next)
			}
		}
		if next >= len(reqs) && !m.Busy() {
			break
		}
		progressed, err := m.Round()
		if err != nil {
			if m.costErr == nil {
				err = fmt.Errorf("serve: KV budget %v: %w", m.cfg.KVBudget, err)
			}
			return err
		}
		if progressed {
			continue
		}
		var wake units.Seconds
		consider := func(t units.Seconds) {
			if t > m.Clock && (wake == 0 || t < wake) {
				wake = t
			}
		}
		if next < len(reqs) {
			consider(reqs[next].Arrival)
		}
		for _, i := range m.waiting {
			consider(reqs[i].Expiry())
		}
		if wake == 0 {
			return fmt.Errorf("serve: KV budget %v cannot hold the next request", m.cfg.KVBudget)
		}
		m.Clock = wake
	}
	return m.Drained()
}
