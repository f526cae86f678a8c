package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/lia-sim/lia/internal/units"
)

func mustRun(t *testing.T, s *Schedule) Result {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// at returns the handle Add gave the task named id.
func at(t *testing.T, s *Schedule, id string) Handle {
	t.Helper()
	h, ok := s.Lookup(id)
	if !ok {
		t.Fatalf("no task %q", id)
	}
	return h
}

func TestSerialTasksOnOneResource(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "a", Resource: "gpu", Duration: 1})
	s.MustAdd(Task{ID: "b", Resource: "gpu", Duration: 2})
	res := mustRun(t, s)
	if res.Makespan != 3 {
		t.Errorf("makespan = %v, want 3", res.Makespan)
	}
	if b := res.Start(at(t, s, "b")); b != 1 {
		t.Errorf("b starts at %v, want 1", b)
	}
	if busy := res.Busy(s.Resource("gpu")); busy != res.Makespan {
		t.Errorf("gpu busy %v, want the whole makespan %v", busy, res.Makespan)
	}
}

func TestParallelResourcesOverlap(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "xfer", Resource: "pcie", Duration: 5})
	s.MustAdd(Task{ID: "comp", Resource: "gpu", Duration: 5})
	res := mustRun(t, s)
	if res.Makespan != 5 {
		t.Errorf("independent tasks should overlap fully: makespan %v", res.Makespan)
	}
}

func TestDependencyGatesStart(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "load", Resource: "pcie", Duration: 2})
	s.MustAdd(Task{ID: "comp", Resource: "gpu", Duration: 3, Deps: []string{"load"}})
	res := mustRun(t, s)
	if comp := res.Start(at(t, s, "comp")); comp != 2 || res.Makespan != 5 {
		t.Errorf("start=%v makespan=%v, want 2 and 5", comp, res.Makespan)
	}
}

// TestPipelineOverlap models the Figure 7 pattern: weight transfers for
// layer i+1 overlap with layer i's compute.
func TestPipelineOverlap(t *testing.T) {
	s := NewSchedule()
	const layers = 4
	for i := 0; i < layers; i++ {
		xfer := Task{ID: id("xfer", i), Resource: "pcie", Duration: 2}
		if i > 0 {
			// transfers proceed back to back (FIFO on pcie)
		}
		s.MustAdd(xfer)
		comp := Task{ID: id("comp", i), Resource: "gpu", Duration: 2, Deps: []string{id("xfer", i)}}
		s.MustAdd(comp)
	}
	res := mustRun(t, s)
	// Perfect pipeline: first transfer (2) then 4 computes back to back
	// (8) = 10; without overlap it would be 16.
	if res.Makespan != 10 {
		t.Errorf("pipelined makespan = %v, want 10", res.Makespan)
	}
}

func id(kind string, i int) string {
	return kind + "-" + string(rune('0'+i))
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// b is queued behind a on the gpu; even though b has no deps it cannot
	// start before a's dependency resolves — stream semantics.
	s := NewSchedule()
	s.MustAdd(Task{ID: "slow-load", Resource: "pcie", Duration: 10})
	s.MustAdd(Task{ID: "a", Resource: "gpu", Duration: 1, Deps: []string{"slow-load"}})
	s.MustAdd(Task{ID: "b", Resource: "gpu", Duration: 1})
	res := mustRun(t, s)
	if b := res.Start(at(t, s, "b")); b != 11 {
		t.Errorf("b starts at %v, want 11 (behind blocked head)", b)
	}
}

func TestAddRejectsBadTasks(t *testing.T) {
	s := NewSchedule()
	if err := s.Add(Task{Resource: "gpu", Duration: 1}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := s.Add(Task{ID: "x", Duration: 1}); err == nil {
		t.Error("empty resource accepted")
	}
	if err := s.Add(Task{ID: "x", Resource: "gpu", Duration: -1}); err == nil {
		t.Error("negative duration accepted")
	}
	s.MustAdd(Task{ID: "x", Resource: "gpu", Duration: 1})
	if err := s.Add(Task{ID: "x", Resource: "gpu", Duration: 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestRunDetectsUnknownDep(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "a", Resource: "gpu", Duration: 1, Deps: []string{"ghost"}})
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("expected unknown-dependency error, got %v", err)
	}
}

func TestRunDetectsCycle(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "a", Resource: "gpu", Duration: 1, Deps: []string{"b"}})
	s.MustAdd(Task{ID: "b", Resource: "cpu", Duration: 1, Deps: []string{"a"}})
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("expected cycle error, got %v", err)
	}
}

func TestCrossResourceDependencyChain(t *testing.T) {
	// cpu → pcie → gpu chain with a concurrent independent cpu task.
	s := NewSchedule()
	s.MustAdd(Task{ID: "produce", Resource: "cpu", Duration: 3})
	s.MustAdd(Task{ID: "ship", Resource: "pcie", Duration: 2, Deps: []string{"produce"}})
	s.MustAdd(Task{ID: "consume", Resource: "gpu", Duration: 4, Deps: []string{"ship"}})
	s.MustAdd(Task{ID: "other", Resource: "cpu", Duration: 1})
	res := mustRun(t, s)
	if res.Makespan != 9 {
		t.Errorf("makespan = %v, want 9", res.Makespan)
	}
	if busy := res.Busy(s.Resource("cpu")); busy != 4 {
		t.Errorf("cpu busy = %v, want 4", busy)
	}
}

func TestZeroDurationTasks(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "a", Resource: "gpu", Duration: 0})
	s.MustAdd(Task{ID: "b", Resource: "gpu", Duration: 0, Deps: []string{"a"}})
	res := mustRun(t, s)
	if res.Makespan != 0 {
		t.Errorf("makespan = %v, want 0", res.Makespan)
	}
}

func TestDeterministicReplay(t *testing.T) {
	build := func() *Schedule {
		s := NewSchedule()
		for i := 0; i < 20; i++ {
			task := Task{ID: id("t", i), Resource: []string{"cpu", "gpu", "pcie"}[i%3], Duration: units.Seconds(i%5) + 1}
			if i > 2 {
				// create cross-resource deps
				task.Deps = []string{id("t", i-3)}
			}
			s.MustAdd(task)
		}
		return s
	}
	r1 := mustRun(t, build())
	r2 := mustRun(t, build())
	if r1.Makespan != r2.Makespan {
		t.Error("runs are not deterministic")
	}
	for h := Handle(0); int(h) < 20; h++ {
		if r1.Start(h) != r2.Start(h) {
			t.Errorf("task %d start differs", h)
		}
	}
}

// TestRandomDAGInvariants fuzzes random schedules and checks the
// structural invariants every valid execution must satisfy: the makespan
// is at least the busiest resource's total and at most the serial sum;
// every task starts after its dependencies; resources never overlap two
// tasks.
func TestRandomDAGInvariants(t *testing.T) {
	resources := []string{"cpu", "gpu", "pcie"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSchedule()
		n := 5 + rng.Intn(40)
		ids := make([]string, n)
		tasks := make([]Task, 0, n)
		for i := 0; i < n; i++ {
			ids[i] = fmt.Sprintf("t%d", i)
			task := Task{
				ID:       ids[i],
				Resource: resources[rng.Intn(len(resources))],
				Duration: units.Seconds(rng.Float64() * 3),
			}
			// Random back-edges keep the graph acyclic.
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.15 {
					task.Deps = append(task.Deps, ids[j])
				}
			}
			s.MustAdd(task)
			tasks = append(tasks, task)
		}
		res, err := s.Run()
		if err != nil {
			return false
		}
		start := func(id string) units.Seconds { return res.Start(at(t, s, id)) }
		finish := func(id string) units.Seconds { return res.Finish(at(t, s, id)) }
		var serial units.Seconds
		for _, r := range resources {
			busy := res.Busy(s.Resource(r))
			if busy > res.Makespan+1e-12 {
				t.Logf("resource %s busy %v > makespan %v", r, busy, res.Makespan)
				return false
			}
			serial += busy
		}
		if res.Makespan > serial+1e-12 {
			t.Logf("makespan %v > serial %v", res.Makespan, serial)
			return false
		}
		// Dependency ordering.
		for i := 0; i < n; i++ {
			task := tasks[i]
			for _, d := range task.Deps {
				if start(task.ID) < finish(d)-1e-12 {
					t.Logf("%s started before dep %s finished", task.ID, d)
					return false
				}
			}
		}
		// Per-resource non-overlap: sort by start and check intervals.
		byRes := map[string][]Task{}
		for _, task := range tasks {
			byRes[task.Resource] = append(byRes[task.Resource], task)
		}
		for _, tasks := range byRes {
			sort.Slice(tasks, func(a, b int) bool { return start(tasks[a].ID) < start(tasks[b].ID) })
			for i := 1; i < len(tasks); i++ {
				if start(tasks[i].ID) < finish(tasks[i-1].ID)-1e-12 {
					t.Logf("resource overlap between %s and %s", tasks[i-1].ID, tasks[i].ID)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// referenceRun times tasks by the package's documented semantics, one
// task at a time and by name: find any task whose resource has finished
// everything submitted before it and whose dependencies have all
// finished, start it when the later of the two is over, and look again.
// ok is false when tasks remain and none can run (an unknown dependency
// or a cycle).
func referenceRun(tasks []Task) (start, finish, busy map[string]units.Seconds, makespan units.Seconds, ok bool) {
	start, finish, busy = map[string]units.Seconds{}, map[string]units.Seconds{}, map[string]units.Seconds{}
	// ready reports when task i may start, if it may.
	ready := func(i int) (units.Seconds, bool) {
		var at units.Seconds
		for _, earlier := range tasks[:i] {
			if earlier.Resource != tasks[i].Resource {
				continue
			}
			f, done := finish[earlier.ID]
			if !done {
				return 0, false
			}
			at = max(at, f)
		}
		for _, d := range tasks[i].Deps {
			f, done := finish[d]
			if !done {
				return 0, false
			}
			at = max(at, f)
		}
		return at, true
	}
	for len(finish) < len(tasks) {
		ran := false
		for i, task := range tasks {
			if _, done := finish[task.ID]; done {
				continue
			}
			if at, ok := ready(i); ok {
				start[task.ID], finish[task.ID] = at, at+task.Duration
				makespan = max(makespan, finish[task.ID])
				ran = true
				break
			}
		}
		if !ran {
			return nil, nil, nil, 0, false
		}
	}
	for _, task := range tasks { // in submission order, which is FIFO order
		busy[task.Resource] += task.Duration
	}
	return start, finish, busy, makespan, true
}

// randomTasks draws a schedule whose dependencies point both backward and
// forward in submission order, over shared resources, with some zero
// durations. Dependencies follow a hidden order — submission order with a
// few tasks swapped — so the graph itself is acyclic, but a FIFO head
// waiting on a task queued behind it on the same resource still
// deadlocks, which Run must report.
func randomTasks(rng *rand.Rand) []Task {
	resources := []string{"cpu", "gpu", "pcie", "cxl"}[:2+rng.Intn(3)]
	n := 1 + rng.Intn(40)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = i
	}
	for swaps := rng.Intn(4); swaps > 0; swaps-- {
		i, j := rng.Intn(n), rng.Intn(n)
		rank[i], rank[j] = rank[j], rank[i]
	}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Resource: resources[rng.Intn(len(resources))]}
		if rng.Float64() > 0.2 {
			tasks[i].Duration = units.Seconds(rng.Float64() * 3)
		}
		for j := range tasks {
			if rank[j] < rank[i] && rng.Float64() < 0.08 {
				tasks[i].Deps = append(tasks[i].Deps, fmt.Sprintf("t%d", j))
			}
		}
	}
	return tasks
}

// sameAsReference compares a run of s, built from tasks, with
// referenceRun bit for bit.
func sameAsReference(t *testing.T, s *Schedule, tasks []Task) bool {
	t.Helper()
	wantStart, wantFinish, wantBusy, wantMakespan, ok := referenceRun(tasks)
	res, err := s.Run()
	if !ok {
		if err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Logf("reference deadlocks, Run returned %v", err)
			return false
		}
		return true
	}
	if err != nil {
		t.Logf("Run: %v", err)
		return false
	}
	if res.Makespan != wantMakespan {
		t.Logf("makespan %v, want %v", res.Makespan, wantMakespan)
		return false
	}
	for _, task := range tasks {
		h := at(t, s, task.ID)
		if res.Start(h) != wantStart[task.ID] || res.Finish(h) != wantFinish[task.ID] {
			t.Logf("%s ran [%v, %v], want [%v, %v]", task.ID, res.Start(h), res.Finish(h), wantStart[task.ID], wantFinish[task.ID])
			return false
		}
		if r := s.Resource(task.Resource); res.Busy(r) != wantBusy[task.Resource] {
			t.Logf("%s busy %v, want %v", task.Resource, res.Busy(r), wantBusy[task.Resource])
			return false
		}
	}
	return true
}

// TestRunMatchesReference: the handle engine and the by-name reference
// agree exactly on random schedules, including on which ones deadlock;
// and a schedule re-timed with SetDuration and run again equals one built
// fresh with the new durations.
func TestRunMatchesReference(t *testing.T) {
	const seeds = 400
	deadlocks := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tasks := randomTasks(rng)
		s := NewSchedule()
		for _, task := range tasks {
			s.MustAdd(task)
		}
		if _, _, _, _, ok := referenceRun(tasks); !ok {
			deadlocks++
		}
		if !sameAsReference(t, s, tasks) {
			t.Fatalf("seed %d: as built", seed)
		}
		for i := range tasks {
			tasks[i].Duration = units.Seconds(rng.Float64() * 2)
			if err := s.SetDuration(at(t, s, tasks[i].ID), tasks[i].Duration); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !sameAsReference(t, s, tasks) {
			t.Fatalf("seed %d: after SetDuration", seed)
		}
	}
	if deadlocks == 0 || deadlocks > seeds/2 {
		t.Errorf("%d of %d schedules deadlock; the test should see both kinds, mostly the kind that runs", deadlocks, seeds)
	}
}

func TestForwardReference(t *testing.T) {
	s := NewSchedule()
	s.MustAdd(Task{ID: "comp", Resource: "gpu", Duration: 3, Deps: []string{"load"}})
	s.MustAdd(Task{ID: "load", Resource: "pcie", Duration: 2})
	res := mustRun(t, s)
	if comp := res.Start(at(t, s, "comp")); comp != 2 || res.Makespan != 5 {
		t.Errorf("start=%v makespan=%v, want 2 and 5", comp, res.Makespan)
	}
}

func TestHandleAPIRejectsBadInput(t *testing.T) {
	s := NewSchedule()
	gpu := s.Resource("gpu")
	a := s.AddTask(gpu)
	if err := s.SetDuration(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDuration(a, -1); err == nil {
		t.Error("SetDuration accepted a negative duration")
	}
	if err := s.SetDuration(a, units.Seconds(math.NaN())); err == nil {
		t.Error("SetDuration accepted a NaN duration")
	}
	for _, h := range []Handle{-1, a + 1} {
		if err := s.SetDuration(h, 1); err == nil {
			t.Errorf("SetDuration accepted unknown handle %d", h)
		}
	}
	for name, misuse := range map[string]func(){
		"an unknown resource":                 func() { s.AddTask(gpu + 1) },
		"a dependency that is not yet a task": func() { s.AddTask(gpu, a+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddTask accepted %s", name)
				}
			}()
			misuse()
		}()
	}
	if res := mustRun(t, s); s.Len() != 1 || res.Makespan != 1 {
		t.Errorf("rejected calls changed the schedule: %d tasks, makespan %v; want 1 and 1", s.Len(), res.Makespan)
	}
}

// TestRerunAllocatesNothing: a schedule that has run once re-times and
// runs again out of its own buffers.
func TestRerunAllocatesNothing(t *testing.T) {
	s := NewSchedule()
	pcie, gpu := s.Resource("pcie"), s.Resource("gpu")
	var prev Handle
	for l := 0; l < 96; l++ {
		deps := []Handle{s.AddTask(pcie), prev}
		if l == 0 {
			deps = deps[:1]
		}
		prev = s.AddTask(gpu, deps...)
	}
	mustRun(t, s)
	allocs := testing.AllocsPerRun(20, func() {
		for h := 0; h < s.Len(); h++ {
			if err := s.SetDuration(Handle(h), 3); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := s.Run(); err != nil || res.Makespan != 3+96*3 {
			t.Fatalf("makespan %v, err %v", res.Makespan, err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-timing and re-running allocates %v times, want 0", allocs)
	}
}
