package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := sample{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}.sorted()
	if got := s.percentile(95); got != 10 {
		t.Errorf("p95 = %g, want 10 (nearest rank)", got)
	}
	if got := s.percentile(50); got != 5 {
		t.Errorf("p50 = %g, want 5 (nearest rank)", got)
	}
	if got := median(s); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates.
	if q1, q3 := quartiles(sample{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50)},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: at(60), End: at(70)},  // disjoint
		{ID: 5, Parent: 1, Name: "d", Start: at(90), End: at(120)}, // runs past the parent: clipped
		{ID: 6, Parent: 3, Name: "e", Start: at(25), End: at(35)},  // grandchild: b's, not request's
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: at(40), 2: at(20), 3: at(20), 4: at(10), 5: at(30), 6: at(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := selfPerName(spans)["request"]; got != at(40) {
		t.Errorf("self time by name = %v, want 40ms", got)
	}
}

func TestRecorderPerOpAndChrome(t *testing.T) {
	rec := newRecorder()
	root := rec.open("probe", 0)
	rec.add("op", root, 0, 0, 640*time.Nanosecond, 64)
	rec.close(root)
	if got := rec.perOp("op", time.Nanosecond); len(got) != 1 || got[0] != 10 {
		t.Errorf("perOp = %v, want [10]", got)
	}
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil || len(trace.TraceEvents) != 2 {
		t.Errorf("chrome trace: %d events, err %v", len(trace.TraceEvents), err)
	}
	var none *recorder // untraced runs share the code
	if none.time("x", 0, 1, func() {}) < 0 || none.open("x", 0) != 0 || none.perOp("x", time.Second) != nil {
		t.Error("nil recorder must record nothing")
	}
}

// hashRequests fingerprints a request list.
func hashRequests(reqs []request) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		fmt.Fprintln(h, r.Prompt, r.N, int64(r.Due))
	}
	return h.Sum64()
}

func TestSameSeedSameInputs(t *testing.T) {
	hash := func(seed int64) []uint64 {
		var out []uint64
		for _, s := range []liveSpec{chatOpen, prefixOpen} {
			open, sat, warm, _, err := s.lists(seed, 2*time.Second, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, hashRequests(open), hashRequests(sat), hashRequests(warm))
		}
		var batch []request
		for _, p := range offlinePrompts(seed) {
			batch = append(batch, request{Prompt: p})
		}
		out = append(out, hashRequests(batch))
		in, err := buildSweepInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		var sweep []request
		for _, set := range [][]int{{len(in.serveReqs)}, {len(in.replayReqs)}, {len(in.fleetReqs)}} {
			sweep = append(sweep, request{N: set[0]})
		}
		for _, r := range in.serveReqs {
			sweep = append(sweep, request{N: r.InputLen, Due: time.Duration(float64(r.Arrival) * 1e9)})
		}
		for _, r := range append(in.replayReqs, in.fleetReqs...) {
			sweep = append(sweep, request{N: r.PromptLen*1000 + r.OutputLen, Due: time.Duration(float64(r.Arrival) * 1e9)})
		}
		return append(out, hashRequests(sweep))
	}
	a, b, c := hash(3), hash(3), hash(4)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("input list %d: same seed gave different hashes", i)
		}
		if a[i] == c[i] {
			t.Errorf("input list %d: different seeds gave the same hash", i)
		}
	}
}

func TestFixedMixAcrossSeeds(t *testing.T) {
	// The request mix is the same under every seed; only token ids move.
	shape := func(seed int64) map[[2]int]int {
		reqs, err := chatRequests(400, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]int]int{}
		for _, r := range reqs {
			out[[2]int{len(r.Prompt), r.N}]++
		}
		return out
	}
	a, b := shape(1), shape(2)
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("shape %v: %d requests under seed 1, %d under seed 2", k, n, b[k])
		}
	}
}

func synthReport(workload string, seed int64, values map[string]float64) *report {
	r := &report{Workload: workload, Seed: seed, Correct: true, Valid: true}
	for name, v := range values {
		def, _ := metricByName(name)
		r.Metrics = append(r.Metrics, metricRow{Name: name, Value: v, Unit: def.Unit, Better: def.Better, N: 1, Exact: def.Exact})
	}
	return r
}

func writeReports(t *testing.T, dir string, reports []*report) string {
	t.Helper()
	for i, r := range reports {
		if err := r.write(filepath.Join(dir, strings.Repeat("r", i+1)+".json")); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "t", Better: lower, Bound: 0.10}
	steady := sample{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := sample{0.8, 1.3, 1.0, 0.7, 1.2}
	for _, c := range []struct {
		name string
		a, b sample
		want string
	}{
		{"unchanged", steady, steady, verdictOK},
		{"within bound", steady, sample{1.05, 1.06, 1.04, 1.05, 1.07}, verdictOK},
		{"beyond bound", steady, sample{1.2, 1.21, 1.19, 1.2, 1.22}, verdictRegressed},
		{"better", steady, sample{0.5, 0.51, 0.49, 0.5, 0.52}, verdictOK},
		{"spread wider than bound", noisy, noisy, verdictUnresolved},
		{"wide spread but every run better", noisy, sample{0.5, 0.6, 0.4, 0.55, 0.45}, verdictOK},
	} {
		if _, got := judge(def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "r", Better: higher, Bound: 0.10}
	if _, got := judge(up, sample{100, 101, 99}, sample{80, 81, 79}); got != verdictRegressed {
		t.Errorf("throughput drop: verdict %s, want regressed", got)
	}

	// End to end through files: a regression and an exact metric that moved.
	before := writeReports(t, t.TempDir(), []*report{
		synthReport("whatif_sweep", 1, map[string]float64{"sweep_s": 1.0, "sim_fleet_ttft_p99_ms": 500}),
		synthReport("whatif_sweep", 2, map[string]float64{"sweep_s": 1.02, "sim_fleet_ttft_p99_ms": 510}),
	})
	same := writeReports(t, t.TempDir(), []*report{
		synthReport("whatif_sweep", 1, map[string]float64{"sweep_s": 1.01, "sim_fleet_ttft_p99_ms": 500}),
		synthReport("whatif_sweep", 2, map[string]float64{"sweep_s": 1.0, "sim_fleet_ttft_p99_ms": 510}),
	})
	slower := writeReports(t, t.TempDir(), []*report{
		synthReport("whatif_sweep", 1, map[string]float64{"sweep_s": 1.5, "sim_fleet_ttft_p99_ms": 500}),
		synthReport("whatif_sweep", 2, map[string]float64{"sweep_s": 1.6, "sim_fleet_ttft_p99_ms": 510.5}),
	})
	var out bytes.Buffer
	if regressed, err := compareCmd(&out, before, same); err != nil || regressed {
		t.Errorf("identical sets: regressed=%t err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareCmd(&out, before, slower)
	if err != nil || !regressed {
		t.Errorf("slower set: regressed=%t err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "sweep_s") || !strings.Contains(out.String(), "exact metric differs") {
		t.Errorf("compare output misses the regressed row or the exact check:\n%s", out.String())
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"workload":"nope","correct":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareCmd(&out, bad, bad); err == nil {
		t.Error("unknown workload name must be an error")
	}
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var contract struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if contract.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the registry", i, contract.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the registry", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, registry %s %s %s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if bounded && (m.Bound == nil || math.Abs(*m.Bound-d.Bound) > 1e-12) {
				t.Errorf("%s: bound differs between BENCHMARK.json and the registry", d.Name)
			}
		}
	}
	check("end-to-end", contract.EndToEnd, endToEnd, true)
	check("per-layer", contract.PerLayer, perLayer, false)
	if len(endToEnd) != 15 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 15 and at most 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload, untraced and traced, at a fraction of
// a second with the correctness checks on, so the harness cannot rot
// uncompiled or unrun.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w.Name, 7, 400*time.Millisecond, traced, true, "")
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%t: correctness checks failed: %v", w.Name, traced, rep.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics reported, want %d", w.Name, traced, len(rep.Metrics), len(defs))
			}
			for _, m := range rep.Metrics {
				def, _ := metricByName(m.Name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
				}
				// (A race-detector build is too slow to meet any latency limit.)
				if !traced && m.Value <= 0 && m.Name != "slo_attainment" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, m.Value)
				}
				if traced && def.nativeOn(w.Name) && m.N == 0 && m.Name != "trace.overhead_pct" {
					t.Errorf("%s: native per-layer metric %s was not measured", w.Name, m.Name)
				}
			}
			line, err := rep.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			var summary map[string]json.RawMessage
			if err := json.Unmarshal(line, &summary); err != nil || len(summary) != 4 {
				t.Errorf("%s: summary line has %d keys, want correct/attempted/failed/metrics", w.Name, len(summary))
			}
		}
	}
}

func TestListNamesEverything(t *testing.T) {
	out := listing()
	for _, w := range workloads {
		if !strings.Contains(out, w.Name) {
			t.Errorf("-list misses workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(out, d.Name) {
			t.Errorf("-list misses metric %s", d.Name)
		}
	}
	if _, err := workloadByName("nope"); err == nil {
		t.Error("unknown workload must be an error")
	}
}
