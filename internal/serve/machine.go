package serve

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
	RoundPrefillTokenCost = 0.25e-3  // seconds per token of the widest prompt (or chunk), per prefilled sequence
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
	// PrefillChunk, when positive, prefills admitted prompts at most that
	// many tokens per sequence per round — batchpolicy's chunk mode, the
	// one gateway.Config.PrefillChunk runs live — and prices each chunk
	// launch with Costs.Prefill. 0 prefills each prompt in one launch.
	PrefillChunk int
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

// ledger pairs a request stream with the result its machines record
// into. A fleet's machines share one, which is what lets a request that
// fails over keep its first Admitted and FirstToken stamps and keeps the
// event stream in one global order.
type ledger struct {
	reqs []ReplayRequest
	ReplayResult
}

// newLedger opens the record for a stream, which must be sorted by
// arrival.
func newLedger(reqs []ReplayRequest) (*ledger, error) {
	l := &ledger{reqs: reqs}
	l.Requests = make([]ReplayOutcome, len(reqs))
	for i, r := range reqs {
		if i > 0 && r.Arrival < reqs[i-1].Arrival {
			return nil, fmt.Errorf("serve: requests not sorted by arrival")
		}
		l.Requests[i].Arrival = r.Arrival
	}
	return l, nil
}

// expired reports whether request i has abandoned by time t.
func (l *ledger) expired(i int, t units.Seconds) bool {
	r := l.reqs[i]
	return r.CancelAt > 0 && r.CancelAt <= t || r.Deadline > 0 && r.Deadline <= t
}

// cancel resolves request i as canceled at t with emitted tokens out.
func (l *ledger) cancel(i int, t units.Seconds, emitted int) {
	r := &l.Requests[i]
	r.Outcome, r.Finish, r.Emitted = ReplayCanceled, t, emitted
	l.Canceled++
}

// refuse resolves request i as shed at t.
func (l *ledger) refuse(i int, t units.Seconds) {
	r := &l.Requests[i]
	r.Outcome, r.Finish = ReplayShed, t
	l.Shed++
}

// Machine is one virtual serving replica: a batchpolicy.Scheduler over
// its own paged KV pool, a virtual clock, the waiting FIFO in front of
// it, and the injected costs that advance the clock. It is the only
// virtual-path caller of batchpolicy.Round; Drive is the one loop that
// decides when requests reach it and when it runs.
type Machine struct {
	cfg     ReplayConfig
	led     *ledger                // bound by Drive
	sched   *batchpolicy.Scheduler // nil while killed
	hooks   batchpolicy.Hooks
	waiting []int // ledger indexes, FIFO

	// Clock is the machine's virtual time. Rounds advance it; Drive
	// sets it across idle gaps and at fault instants.
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

// NewMachine builds a running machine.
func NewMachine(cfg ReplayConfig) (*Machine, error) {
	if cfg.Costs == nil || cfg.Costs.Prefill == nil || cfg.Costs.Decode == nil {
		return nil, fmt.Errorf("serve: machine requires injected step costs")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: machine QueueDepth must be ≥0, got %d", cfg.QueueDepth)
	}
	m := &Machine{cfg: cfg}
	m.hooks = batchpolicy.Hooks{
		Waiting: func() []batchpolicy.Item {
			items := make([]batchpolicy.Item, len(m.waiting))
			for k, i := range m.waiting {
				r := m.led.reqs[i]
				items[k] = batchpolicy.Item{Ref: i, PromptLen: r.PromptLen, OutputLen: r.OutputLen}
			}
			return items
		},
		Consumed: func(n int) {
			for _, i := range m.waiting[:n] {
				if r := &m.led.Requests[i]; r.Admitted == 0 {
					r.Admitted = m.Clock
				}
			}
			m.waiting = m.waiting[n:]
		},
		Prefill:      m.prefill,
		PrefillChunk: m.prefill,
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
	return m, m.restart()
}

// prefill prices one prefill launch: every sequence in batch computes
// its whole prompt (admitted under monolithic prefill) or its next chunk
// (still prefilling under chunked prefill; Prefilled is the chunk
// start), and the launch costs Costs.Prefill at the longest span. A
// sequence whose prompt the launch completes has its first token.
func (m *Machine) prefill(batch []batchpolicy.Seq) error {
	span := func(a batchpolicy.Seq) (start, end int) {
		end = a.Item.PromptLen
		if a.Prefilling() {
			start = a.Prefilled
			end = min(end, start+m.cfg.PrefillChunk)
		}
		return start, end
	}
	longest := 1
	for _, a := range batch {
		start, end := span(a)
		longest = max(longest, end-start)
	}
	if err := m.charge(m.cfg.Costs.Prefill(len(batch), longest)); err != nil {
		return err
	}
	for _, a := range batch {
		_, end := span(a)
		if r := &m.led.Requests[a.Item.Ref]; r.FirstToken == 0 && end == a.Item.PromptLen {
			r.FirstToken = m.Clock
		}
	}
	if m.OnLaunch != nil {
		m.OnLaunch(true, batch)
	}
	return nil
}

// charge advances the clock by one priced launch.
func (m *Machine) charge(c units.Seconds, err error) error {
	if err != nil {
		return err
	}
	m.Clock += c
	return nil
}

// restart gives the machine a fresh scheduler and KV pool: construction,
// and respawn after orphans killed it.
func (m *Machine) restart() error {
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
	if err := sched.SetChunk(m.cfg.PrefillChunk); err != nil {
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
		r.Outcome, r.Finish, r.Emitted = ReplayCompleted, m.Clock, l.reqs[e.Ref].OutputLen
	}
	if m.OnEvent != nil {
		m.OnEvent(e)
	}
}

// Up reports whether the machine is serving (not killed).
func (m *Machine) Up() bool { return m.sched != nil }

// busy reports whether the machine has work for its next round.
func (m *Machine) busy() bool { return m.Up() && (len(m.waiting) > 0 || m.sched.Busy()) }

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

// reap cancels every waiting, requeued and running request whose
// CancelAt/Deadline has passed on the machine's clock — the virtual
// reapCanceled pass, sharing batchpolicy.Scheduler.Reap with the live
// one.
func (m *Machine) reap() error {
	expired := func(i int) bool { return m.led.expired(i, m.Clock) }
	kept := m.waiting[:0]
	for _, i := range m.waiting {
		if expired(i) {
			m.led.cancel(i, m.Clock, 0)
		} else {
			kept = append(kept, i)
		}
	}
	m.waiting = kept
	reaped, err := m.sched.Reap(expired)
	for _, seq := range reaped {
		m.led.cancel(seq.Item.Ref, m.Clock, seq.Item.OutputLen-seq.Remaining)
	}
	return err
}

// round runs one scheduling round at the machine's clock, advancing it
// by the launches the round executed. A round that runs nothing with
// nothing running or requeued means the waiting head cannot be admitted
// even into a drained pool, so it never will be, and re-placing it would
// ping-pong between machines that cannot hold it: round sheds that head.
func (m *Machine) round() error {
	progressed, err := batchpolicy.Round(m.sched, m.hooks)
	if err != nil {
		return err
	}
	m.Rounds++
	if !progressed {
		if len(m.waiting) == 0 || m.sched.Busy() {
			return fmt.Errorf("serve: internal error: a round with work pending ran nothing")
		}
		m.led.refuse(m.waiting[0], m.Clock)
		m.waiting = m.waiting[1:]
	}
	m.led.Makespan = max(m.led.Makespan, m.Clock)
	return nil
}

// orphans kills the machine and returns the work it held — waiting,
// then requeued, then running — for Drive to re-place. Requeued work
// leaves through DropRequeued (EventRemove); the running batch and the
// pool are discarded with the scheduler.
func (m *Machine) orphans() []int {
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

// drained is the pool-accounting invariant Drive checks when a replay
// ends: all work left through completion, reap or preemption, so a live
// machine's pool must be back to fully free.
func (m *Machine) drained() error {
	if !m.Up() || m.sched.Pool() == nil {
		return nil
	}
	if p := m.sched.Pool(); p.Live() != 0 || p.FreeBlocks() != p.TotalBlocks() {
		return fmt.Errorf("serve: internal error: %d sequences / %d blocks leaked from the KV pool",
			p.Live(), p.TotalBlocks()-p.FreeBlocks())
	}
	return nil
}

// Fault is one scheduled transition of a replayed machine: at At,
// machine Machine (an index into Drive's machines) is killed when Down —
// its waiting, requeued and running work fails over through placement —
// or else respawned with a fresh scheduler and pool.
type Fault struct {
	At      units.Seconds
	Machine int
	Down    bool
}

// Drive serves a request stream, sorted by arrival, on machines that
// record into one result: the one loop on the virtual clock, behind
// SimulateContinuous and gateway.Replay (one machine) and
// router.FleetReplay (N machines). It merges fault transitions, arrivals
// and machine rounds into global time order — faults before arrivals
// before rounds on ties, and among busy machines the earliest clock,
// then the lowest index — so a replay is a pure function of its inputs:
//   - a kill re-places the machine's orphans at the kill instant, and a
//     respawn restarts it with its clock at the respawn instant;
//   - an arrival that has already expired is canceled; any other is
//     placed at its own instant, on the machine place names, and shed
//     (the virtual 429) when place returns a negative index or names a
//     machine that is down or whose backlog is full;
//   - a round reaps the machine's expired work and, if any remains, runs
//     one scheduling round.
//
// Faults apply in time order, equal instants in list order; place may
// be nil for a single machine. Drive returns the result (indexed like
// reqs) and how many orphans failed over, and ends on every live
// machine's pool-leak check.
func Drive(reqs []ReplayRequest, machines []*Machine, faults []Fault, place func(req int) int) (ReplayResult, int, error) {
	faults = slices.Clone(faults)
	slices.SortStableFunc(faults, func(a, b Fault) int { return cmp.Compare(a.At, b.At) })
	led, err := newLedger(reqs)
	if err != nil {
		return ReplayResult{}, 0, err
	}
	for _, m := range machines {
		m.led = led
	}
	if place == nil {
		place = func(int) int { return 0 }
	}
	admit := func(req int, t units.Seconds) {
		i := place(req)
		if i < 0 || !machines[i].Up() || machines[i].Full() {
			led.refuse(req, t)
			return
		}
		m := machines[i]
		if !m.busy() && m.Clock < t {
			m.Clock = t // an idle machine wakes at the placement instant
		}
		m.waiting = append(m.waiting, req)
	}

	const never = units.Seconds(math.MaxFloat64)
	failovers, next := 0, 0
	for {
		tFault, tArr, tRound, busy := never, never, never, -1
		if len(faults) > 0 {
			tFault = faults[0].At
		}
		if next < len(reqs) {
			tArr = reqs[next].Arrival
		}
		for i, m := range machines {
			if m.busy() && m.Clock < tRound {
				tRound, busy = m.Clock, i
			}
		}
		switch {
		case len(faults) > 0 && tFault <= tArr && tFault <= tRound:
			f := faults[0]
			faults = faults[1:]
			m := machines[f.Machine]
			if f.Down {
				m.Clock = max(m.Clock, f.At)
				for _, req := range m.orphans() {
					failovers++
					admit(req, f.At)
				}
			} else {
				m.Clock = f.At
				if err := m.restart(); err != nil {
					return ReplayResult{}, 0, err
				}
			}
		case next < len(reqs) && tArr <= tRound:
			if led.expired(next, tArr) {
				led.cancel(next, tArr, 0)
			} else {
				admit(next, tArr)
			}
			next++
		case busy >= 0:
			m := machines[busy]
			err := m.reap()
			if err == nil && m.busy() { // the reap may have emptied it
				err = m.round()
			}
			if err != nil {
				return ReplayResult{}, 0, fmt.Errorf("serve: round on machine %d at %v: %w", busy, m.Clock, err)
			}
		default:
			for i, m := range machines {
				if err := m.drained(); err != nil {
					return ReplayResult{}, 0, fmt.Errorf("serve: machine %d: %w", i, err)
				}
			}
			return led.ReplayResult, failovers, nil
		}
	}
}
