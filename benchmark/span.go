package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// harness around a call into the program (spans inside the program are
// a later change). Parent is the span that caused it (0 = none); spans
// of one request share Req. Ops is how many operations the interval
// covers: calls too short for the clock are timed in groups.
type span struct {
	ID, Parent int
	Name       string
	Req        int
	Start, End time.Duration // offsets from the recorder's origin
	Ops        int
}

func (s span) dur() time.Duration { return s.End - s.Start }

// instant is a point event (a scheduler decision, a Health sample).
type instant struct {
	Name string
	At   time.Duration
	Args map[string]int
}

// recorder keeps the traced run's spans in memory until the run ends.
// It is used from one goroutine: live phases hand their observations
// over after the phase, and probes are single-threaded. A nil recorder
// records nothing, so untraced runs share the probes' code.
type recorder struct {
	origin   time.Time
	spans    []span
	instants []instant
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished interval and returns its id.
func (r *recorder) add(name string, parent, req int, start, end time.Duration, ops int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end, Ops: max(ops, 1)})
	return id
}

// open starts a span that close will finish: a parent for the calls
// made while it is open.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	return r.add(name, parent, 0, now, now, 1)
}

func (r *recorder) close(id int) {
	if r != nil && id > 0 {
		r.spans[id-1].End = time.Since(r.origin)
	}
}

// time runs fn inside a span covering ops operations and returns how
// long it took.
func (r *recorder) time(name string, parent, ops int, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r != nil {
		at := start.Sub(r.origin)
		r.add(name, parent, 0, at, at+d, ops)
	}
	return d
}

func (r *recorder) mark(name string, at time.Duration, args map[string]int) {
	if r != nil {
		r.instants = append(r.instants, instant{name, at, args})
	}
}

// perOp returns, for every span of the name, its duration per operation
// in the given unit (time.Nanosecond, time.Microsecond, ...).
func (r *recorder) perOp(name string, unit time.Duration) sample {
	if r == nil {
		return nil
	}
	var out sample
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit)/float64(s.Ops))
		}
	}
	return out
}

// selfTimes returns each span's self time by id: its duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfPerName sums self time by span name.
func selfPerName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	self := selfTimes(spans)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeChrome writes the trace in Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Spans of one request share a track.
func (r *recorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]int `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans)+len(r.instants))
	for _, s := range r.spans {
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "ops": s.Ops}})
	}
	for _, i := range r.instants {
		events = append(events, event{Name: i.Name, Ph: "i", Ts: us(i.At), Pid: 1, S: "p", Args: i.Args})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
}
