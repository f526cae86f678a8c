package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runCtx is what a workload is given: the seed its inputs come from,
// how long to measure, and whether this is the traced run.
type runCtx struct {
	seed     int64
	duration time.Duration
	traced   bool
	// smoke shrinks set-up repeats, warm-up and probe repetitions so that
	// -smoke and the package's tests cover every path in seconds; its
	// numbers mean nothing.
	smoke bool
	rec   *recorder // spans of the traced run (nil otherwise)
}

// reps is a probe's repetition count, scaled down under smoke.
func (rc *runCtx) reps(n int) int {
	if rc.smoke {
		return max(n/25, 2)
	}
	return n
}

// phaseRow counts one phase's operations.
type phaseRow struct {
	Name   string `json:"name"`
	Sent   int    `json:"sent"`
	OK     int    `json:"ok"`
	Failed int    `json:"failed"`
}

// metricRow is one reported metric. P25 and P75 are the quartiles of
// the per-operation sample a timing's median was taken over; Echo marks
// an end-to-end cell that is not native to the workload.
type metricRow struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	N      int      `json:"n"`
	P25    *float64 `json:"p25,omitempty"`
	P75    *float64 `json:"p75,omitempty"`
	Exact  bool     `json:"exact,omitempty"`
	Echo   bool     `json:"echo,omitempty"`
}

// envStamp says where the numbers were taken.
type envStamp struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// report is one run's full result (-report writes it; -compare reads
// it). The acceptance driver reads only the summary line on stdout.
type report struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Correct  bool        `json:"correct"`
	Valid    bool        `json:"valid"`
	Problems []string    `json:"problems,omitempty"`
	Phases   []phaseRow  `json:"phases"`
	Metrics  []metricRow `json:"metrics"`
	// SelfMs is the traced run's time budget: self time summed by span
	// name, in ms (a span's duration minus what its children cover).
	SelfMs map[string]float64 `json:"self_ms,omitempty"`
	Env    envStamp           `json:"env"`

	// headlineTime (seconds) and headlineRate (tokens/s) are the
	// workload's own unit-of-work time and token rate; cells of metrics
	// that are not native to the workload echo them.
	headlineTime, headlineRate float64
}

func newReport(workload string, rc *runCtx) *report {
	return &report{Workload: workload, Seed: rc.seed, Seconds: rc.duration.Seconds(), Traced: rc.traced,
		Correct: true, Valid: true, Env: stampEnv()}
}

// fail records a correctness failure: the run exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, "incorrect: "+fmt.Sprintf(format, args...))
	}
}

// invalid records that the harness, not the program, shaped a number.
func (r *report) invalid(format string, args ...any) {
	r.Valid = false
	r.Problems = append(r.Problems, "invalid: "+fmt.Sprintf(format, args...))
}

func (r *report) phase(name string, sent, ok, failed int) {
	r.Phases = append(r.Phases, phaseRow{name, sent, ok, failed})
}

func (r *report) row(name string) *metricRow {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	r.Metrics = append(r.Metrics, metricRow{Name: name, Unit: def.Unit, Better: def.Better, Exact: def.Exact})
	return &r.Metrics[len(r.Metrics)-1]
}

// set records a single value computed over n operations.
func (r *report) set(name string, v float64, n int) {
	row := r.row(name)
	row.Value, row.N = v, n
}

// setSample records the median of a per-operation sample with its
// quartiles.
func (r *report) setSample(name string, s sample) { r.setTail(name, s, 50) }

// setTail records the p-th percentile of a sample with its quartiles.
func (r *report) setTail(name string, s sample, p float64) {
	row := r.row(name)
	row.N = len(s)
	if len(s) == 0 {
		return
	}
	o := s.sorted()
	if p == 50 {
		row.Value = median(o)
	} else {
		row.Value = o.percentile(p)
	}
	q1, q3 := o.percentile(25), o.percentile(75)
	row.P25, row.P75 = &q1, &q3
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// attempted and failed total the phases.
func (r *report) attempted() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Sent
		failed += p.Failed
	}
	return
}

// finish completes the metric set the run must print. error_rate is
// add-one smoothed, (failed+1)/(attempted+1): at the seed's zero
// failures a plain ratio reads 0 on every run and a relative bound on 0
// gates nothing, while one real failure doubles the smoothed value.
//
// The acceptance contract wants every end-to-end metric on every run,
// so a cell that is not native to the workload echoes the workload's
// own headline in that metric's unit and direction: a time for
// lower-is-better times, a token rate for rates, the success share for
// shares. Echo cells carry no information of their own — they move
// exactly when the headline moves — and -compare skips them.
func (r *report) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	attempted, failed := r.attempted()
	if !r.Traced {
		r.set("error_rate", float64(failed+1)/float64(attempted+1), attempted)
	}
	for _, d := range defs {
		if _, ok := r.value(d.Name); ok {
			continue
		}
		if r.Traced {
			r.set(d.Name, 0, 0) // the layer did no work on this workload
			continue
		}
		if d.nativeOn(r.Workload) {
			r.fail("workload did not report its native metric %s", d.Name)
		}
		var v float64
		switch d.Unit {
		case "s":
			v = r.headlineTime
		case "ms":
			v = r.headlineTime * 1e3
		case "tok/s":
			v = r.headlineRate
		case "share":
			v = float64(attempted-failed) / float64(attempted+1)
		}
		row := r.row(d.Name)
		row.Value, row.N, row.Echo = v, attempted, true
	}
	order := map[string]int{}
	for i, d := range defs {
		order[d.Name] = i
	}
	sort.SliceStable(r.Metrics, func(i, j int) bool { return order[r.Metrics[i].Name] < order[r.Metrics[j].Name] })
}

// summaryLine is the one-line result the acceptance driver parses.
func (r *report) summaryLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted, failed := r.attempted()
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(attempted, 1), failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// table writes the readable form to w (stderr).
func (r *report) table(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  traced=%t  correct=%t  valid=%t\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Correct, r.Valid)
	fmt.Fprintf(w, "  %s, GOMAXPROCS %d of %d CPUs, %s, commit %s\n", r.Env.Go, r.Env.GOMAXPROCS, r.Env.NumCPU, r.Env.CPU, r.Env.Commit)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-8s sent %6d  ok %6d  failed %d\n", p.Name, p.Sent, p.OK, p.Failed)
	}
	for _, m := range r.Metrics {
		if r.Traced && m.N == 0 && m.Value == 0 {
			continue // layer idle on this workload
		}
		spread := ""
		if m.P25 != nil {
			spread = fmt.Sprintf("  [p25 %.4g, p75 %.4g]", *m.P25, *m.P75)
		}
		note := ""
		if m.Echo {
			note = "  (echo)"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s n=%-7d%s%s\n", m.Name, m.Value, m.Unit, m.N, spread, note)
	}
	if len(r.SelfMs) > 0 {
		names := make([]string, 0, len(r.SelfMs))
		for name := range r.SelfMs {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfMs[names[i]] > r.SelfMs[names[j]] })
		fmt.Fprintf(w, "  self time by span (ms):")
		for _, name := range names[:min(len(names), 12)] {
			fmt.Fprintf(w, "  %s %.1f", name, r.SelfMs[name])
		}
		fmt.Fprintln(w)
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func stampEnv() envStamp {
	e := envStamp{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// timeSetups runs a cold set-up several times and returns the times in
// seconds; the workload keeps what the last one built, and discard (if
// any) drops the earlier ones outside the timed region. Fast set-ups
// repeat more often so that the reported median is steady.
func (rc *runCtx) timeSetups(setup func() error, discard func() error) (sample, error) {
	minRuns, maxRuns, budget := 5, 200, 1500*time.Millisecond
	if rc.smoke {
		minRuns, maxRuns = 1, 1
	}
	var times sample
	start := time.Now()
	for len(times) < minRuns || (len(times) < maxRuns && time.Since(start) < budget) {
		if len(times) > 0 && discard != nil {
			if err := discard(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		t := time.Now()
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return times, nil
}
