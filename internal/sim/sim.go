// Package sim is a small deterministic scheduler for timing overlapped
// execution plans: tasks with durations, dependencies, and an assigned
// serial resource (a compute stream or a transfer link). Running a
// schedule answers "how long does this pipeline take end to end, and how
// busy was each resource?" — the question Optimization-2's overlapping
// (Figure 7) poses.
//
// Semantics: each resource executes its tasks one at a time in submission
// order (a FIFO stream, like a CUDA stream or a copy engine); a task
// starts when its resource is free AND all its dependencies have
// finished. Time is continuous (units.Seconds); execution is fully
// deterministic.
//
// The engine runs on dense integer handles, so a caller that times one
// graph many times (package exec, once per decode step) builds it once
// with AddTask, times it with SetDuration and runs it, again and again,
// without allocating. Add and Task are a named front over the same engine.
package sim

import (
	"fmt"
	"math"
	"slices"

	"github.com/lia-sim/lia/internal/units"
)

// Handle identifies a task within its schedule: the i-th task added has
// Handle i.
type Handle int

// Resource identifies a serial executor within its schedule: the i-th
// distinct resource interned is Resource i.
type Resource int

// Task is one unit of work bound to a resource, by name.
type Task struct {
	// ID names the task uniquely within a schedule.
	ID string
	// Resource names the serial executor (e.g. "gpu", "cpu", "pcie").
	Resource string
	// Duration is the task's service time.
	Duration units.Seconds
	// Deps lists task IDs that must finish before this task starts; an ID
	// may name a task that is added later.
	Deps []string
}

type task struct {
	dur, start, finish units.Seconds // finish < 0: not run yet
	on                 Resource
	depEnd             int // its dependencies end here in Schedule.deps, after the previous task's
}

type resource struct {
	name       string
	busy, free units.Seconds
	stalled    bool // its FIFO head waits on a dependency in this pass
}

// namedDep is a dependency Add was given by name: deps[at] awaits the
// handle of the task called dep.
type namedDep struct {
	at        int
	task, dep string
}

// Schedule is an ordered collection of tasks. Handle order is submission
// order, and so FIFO order on every resource.
type Schedule struct {
	tasks      []task
	deps       []Handle
	resources  []resource
	index      map[string]Handle // the named front's task IDs
	unresolved []namedDep
}

// NewSchedule returns an empty schedule.
func NewSchedule() *Schedule { return &Schedule{} }

// Resource interns a resource name. A schedule has a handful of
// resources, so this is a linear scan.
func (s *Schedule) Resource(name string) Resource {
	for r := range s.resources {
		if s.resources[r].name == name {
			return Resource(r)
		}
	}
	s.resources = append(s.resources, resource{name: name})
	return Resource(len(s.resources) - 1)
}

// Grow reserves room for tasks more tasks with deps more dependencies
// among them, for a builder that knows its graph's size.
func (s *Schedule) Grow(tasks, deps int) {
	s.tasks = slices.Grow(s.tasks, tasks)
	s.deps = slices.Grow(s.deps, deps)
}

func validDuration(d units.Seconds) bool { return d >= 0 && !math.IsNaN(float64(d)) }

// AddTask appends a task of zero duration to resource r's FIFO and
// returns its handle; SetDuration times it. deps must be tasks already
// added. A resource or dependency that is not of this schedule is the
// caller's bug, and panics.
func (s *Schedule) AddTask(r Resource, deps ...Handle) Handle {
	h := Handle(len(s.tasks))
	if r < 0 || int(r) >= len(s.resources) {
		panic(fmt.Sprintf("sim: task %d is on unknown resource %d", h, r))
	}
	for _, dep := range deps {
		if dep < 0 || dep >= h {
			panic(fmt.Sprintf("sim: task %d depends on unknown task %d", h, dep))
		}
	}
	s.deps = append(s.deps, deps...)
	s.tasks = append(s.tasks, task{on: r, depEnd: len(s.deps)})
	return h
}

// SetDuration times a task for the next Run, under Add's rule: negative
// and NaN durations are rejected.
func (s *Schedule) SetDuration(h Handle, d units.Seconds) error {
	if h < 0 || int(h) >= len(s.tasks) {
		return fmt.Errorf("sim: unknown task %d", h)
	}
	if !validDuration(d) {
		return fmt.Errorf("sim: task %d has invalid duration %v", h, d)
	}
	s.tasks[h].dur = d
	return nil
}

// Add appends a named task. Duplicate IDs, empty IDs/resources, and
// negative durations are rejected.
func (s *Schedule) Add(t Task) error {
	if t.ID == "" {
		return fmt.Errorf("sim: task with empty ID")
	}
	if t.Resource == "" {
		return fmt.Errorf("sim: task %s has no resource", t.ID)
	}
	if !validDuration(t.Duration) {
		return fmt.Errorf("sim: task %s has invalid duration %v", t.ID, t.Duration)
	}
	if _, dup := s.index[t.ID]; dup {
		return fmt.Errorf("sim: duplicate task ID %s", t.ID)
	}
	h := s.AddTask(s.Resource(t.Resource))
	s.tasks[h].dur = t.Duration
	if s.index == nil {
		s.index = make(map[string]Handle)
	}
	s.index[t.ID] = h
	// Names may refer forward, so they become handles on the next Run.
	for _, dep := range t.Deps {
		s.unresolved = append(s.unresolved, namedDep{at: len(s.deps), task: t.ID, dep: dep})
		s.deps = append(s.deps, -1)
	}
	s.tasks[h].depEnd = len(s.deps)
	return nil
}

// MustAdd is Add for programmatically generated plans where an error is a
// bug in the plan builder.
func (s *Schedule) MustAdd(t Task) {
	if err := s.Add(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tasks.
func (s *Schedule) Len() int { return len(s.tasks) }

// Lookup returns the handle of the task Add registered under id.
func (s *Schedule) Lookup(id string) (Handle, bool) {
	h, ok := s.index[id]
	return h, ok
}

// Result is the outcome of running a schedule. It reads the schedule's
// own state, so it is valid until that schedule's next Run.
type Result struct {
	// Makespan is the finish time of the last task.
	Makespan units.Seconds
	s        *Schedule
}

// Start is when task h started.
func (r Result) Start(h Handle) units.Seconds { return r.s.tasks[h].start }

// Finish is when task h finished.
func (r Result) Finish(h Handle) units.Seconds { return r.s.tasks[h].finish }

// Busy is a resource's total service time, summed in FIFO order.
func (r Result) Busy(on Resource) units.Seconds { return r.s.resources[on].busy }

// resolve turns the dependencies Add was given by name into handles.
func (s *Schedule) resolve() error {
	for _, u := range s.unresolved {
		h, ok := s.index[u.dep]
		if !ok {
			return fmt.Errorf("sim: task %s depends on unknown task %s", u.task, u.dep)
		}
		s.deps[u.at] = h
	}
	s.unresolved = s.unresolved[:0]
	return nil
}

// Run executes the schedule. It returns an error for unknown dependencies
// or dependency cycles.
func (s *Schedule) Run() (Result, error) {
	if err := s.resolve(); err != nil {
		return Result{}, err
	}
	for h := range s.tasks {
		s.tasks[h].finish = -1
	}
	for r := range s.resources {
		s.resources[r].busy, s.resources[r].free = 0, 0
	}
	// Each pass runs, in handle order, every task that can: one whose
	// resource has run everything submitted before it and whose
	// dependencies have finished. Dependencies that all point backward
	// (anything built with AddTask) take one pass; names that refer forward
	// cost further passes.
	var makespan units.Seconds
	for remaining := len(s.tasks); remaining > 0; {
		before := remaining
		for r := range s.resources {
			s.resources[r].stalled = false
		}
		depStart := 0
	tasks:
		for h := range s.tasks {
			t := &s.tasks[h]
			r := &s.resources[t.on]
			deps := s.deps[depStart:t.depEnd]
			depStart = t.depEnd
			if t.finish >= 0 || r.stalled {
				continue
			}
			start := r.free
			for _, dep := range deps {
				f := s.tasks[dep].finish
				if f < 0 {
					r.stalled = true // FIFO head blocked; resource stalls
					continue tasks
				}
				if f > start {
					start = f
				}
			}
			t.start, t.finish = start, start+t.dur
			r.busy += t.dur
			r.free = t.finish
			if t.finish > makespan {
				makespan = t.finish
			}
			remaining--
		}
		if remaining == before {
			return Result{}, fmt.Errorf("sim: dependency cycle among remaining %d tasks", remaining)
		}
	}
	return Result{Makespan: makespan, s: s}, nil
}
