package llm

import (
	"reflect"
	"sync"
	"testing"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/model"
)

// recHost is a MemHost that records every cache lifetime event and every
// pass window, for tests of the pass-window contract.
type recHost struct {
	mu               sync.Mutex
	created, retired []int64
	passes           []*passRec
	// packs reads the executor family's WeightPacks when a pass ends: the
	// LM head is built, and counted there, by the first call that runs it.
	packs func() int64
}

// passRec is one recorded pass window.
type passRec struct {
	stage      model.Stage
	rows, past int
	layers     []int
	ends       int
	packsAtEnd int64
	// late names a hook that fired after EndPass.
	late string
	host *recHost
}

func (h *recHost) CacheCreated(id int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.created = append(h.created, id)
}

func (h *recHost) CacheRetired(id int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.retired = append(h.retired, id)
}

func (h *recHost) BeginPass(_ int64, stage model.Stage, rows, past int) PassHooks {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := &passRec{stage: stage, rows: rows, past: past, host: h}
	h.passes = append(h.passes, p)
	return p
}

func (p *passRec) after(hook string) {
	if p.ends > 0 && p.late == "" {
		p.late = hook
	}
}

func (p *passRec) LayerStart(li int) {
	p.after("LayerStart")
	p.layers = append(p.layers, li)
}
func (p *passRec) WeightPacked(int, model.Sublayer) { p.after("WeightPacked") }
func (p *passRec) WeightAccess(int, model.Sublayer) { p.after("WeightAccess") }
func (p *passRec) KVWrite(int, int)                 { p.after("KVWrite") }
func (p *passRec) KVRead(int, int)                  { p.after("KVRead") }
func (p *passRec) EndPass() {
	p.after("EndPass")
	p.ends++
	p.packsAtEnd = p.host.packs()
}

// hosted returns a fresh executor family (its LM head not yet built)
// with a recording host attached.
func hosted(m *Model, p core.Policy) (*Executor, *recHost) {
	e := NewExecutor(m, p)
	h := &recHost{packs: e.WeightPacks}
	e.Mem = h
	return e, h
}

// TestPassWindows pins the MemHost pass-window contract of every entry
// point that runs the layer stack: each pass opens exactly one window
// with its (stage, rows, past), fires LayerStart for every layer in
// order, and calls EndPass once, after the last layer and before the LM
// head — which a fresh executor family builds, and counts in
// WeightPacks, on its first use. A prompt holding an out-of-vocabulary
// token opens no window and leaves no cache unretired.
func TestPassWindows(t *testing.T) {
	m := tinyModel(t)
	p := core.PartialCPU
	prompt := []int{5, 17, 42, 9, 63, 7, 11}
	layers := make([]int, len(m.Layers))
	for li := range layers {
		layers[li] = li
	}
	type window struct {
		stage      model.Stage
		rows, past int
		head       bool // the LM head runs after this pass
	}
	check := func(t *testing.T, e *Executor, h *recHost, want []window) {
		t.Helper()
		if len(h.passes) != len(want) {
			t.Fatalf("%d pass windows, want %d", len(h.passes), len(want))
		}
		for i, w := range want {
			got := h.passes[i]
			if got.stage != w.stage || got.rows != w.rows || got.past != w.past {
				t.Errorf("pass %d: window (%v, %d rows, %d past), want (%v, %d, %d)",
					i, got.stage, got.rows, got.past, w.stage, w.rows, w.past)
			}
			if !reflect.DeepEqual(got.layers, layers) {
				t.Errorf("pass %d: LayerStart sequence %v, want %v", i, got.layers, layers)
			}
			if got.ends != 1 {
				t.Errorf("pass %d: EndPass called %d times", i, got.ends)
			}
			if got.late != "" {
				t.Errorf("pass %d: %s fired after EndPass", i, got.late)
			}
			if w.head && e.WeightPacks() != got.packsAtEnd+1 {
				t.Errorf("pass %d: %d weight packs at EndPass, %d after the call: the head did not run after EndPass",
					i, got.packsAtEnd, e.WeightPacks())
			}
		}
	}
	// donor builds caches and seeds on a separate, hostless family.
	donor := NewExecutor(m, p)
	_, donorCache, err := donor.Prefill(prompt[:4])
	if err != nil {
		t.Fatal(err)
	}
	seed := seedFor(t, donor, prompt, 3)

	t.Run("Prefill", func(t *testing.T) {
		e, h := hosted(m, p)
		if _, _, err := e.Prefill(prompt); err != nil {
			t.Fatal(err)
		}
		check(t, e, h, []window{{model.Prefill, len(prompt), 0, true}})
	})
	t.Run("PrefillFromSeeded", func(t *testing.T) {
		e, h := hosted(m, p)
		if _, _, err := e.PrefillFrom(prompt, seed); err != nil {
			t.Fatal(err)
		}
		check(t, e, h, []window{{model.Prefill, len(prompt) - 3, 3, true}})
	})
	t.Run("DecodeStep", func(t *testing.T) {
		e, h := hosted(m, p)
		cache := e.newCache(e.Model.Cfg.MaxSeqLen)
		seg, err := donor.ExportKV(donorCache, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for li := range m.Layers {
			cache.Append(li, seg.Tokens(), seg.K[li].Data, seg.V[li].Data, seg.K[li].Cols)
		}
		if _, err := e.DecodeStep(cache, prompt[4]); err != nil {
			t.Fatal(err)
		}
		check(t, e, h, []window{{model.Decode, 1, 4, true}})
	})
	t.Run("VerifyStep", func(t *testing.T) {
		e, h := hosted(m, p)
		cache := e.newCache(e.Model.Cfg.MaxSeqLen)
		if _, err := e.VerifyStep(cache, prompt[:3]); err != nil {
			t.Fatal(err)
		}
		check(t, e, h, []window{{model.Decode, 3, 0, true}})
	})
	t.Run("AdvancePrefill", func(t *testing.T) {
		e, h := hosted(m, p)
		s, err := e.NewSequenceChunked(prompt, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		if len(h.passes) != 0 {
			t.Fatalf("chunked constructor opened %d pass windows", len(h.passes))
		}
		for s.Prefilling() {
			if _, err := s.AdvancePrefill(); err != nil {
				t.Fatal(err)
			}
		}
		check(t, e, h, []window{
			{model.Prefill, 3, 0, false},
			{model.Prefill, 3, 3, false},
			{model.Prefill, 1, 6, true},
		})
	})
	oov := append(append([]int(nil), prompt...), m.Cfg.VocabSize)
	for _, tc := range []struct {
		name string
		run  func(e *Executor) error
	}{
		{"Prefill", func(e *Executor) error { _, _, err := e.Prefill(oov); return err }},
		{"PrefillFromSeeded", func(e *Executor) error { _, _, err := e.PrefillFrom(oov, seed); return err }},
		{"NewSequence", func(e *Executor) error { _, err := e.NewSequence(oov, 2); return err }},
	} {
		t.Run("OutOfVocabulary/"+tc.name, func(t *testing.T) {
			e, h := hosted(m, p)
			if err := tc.run(e); err == nil {
				t.Fatal("out-of-vocabulary token accepted")
			}
			if len(h.passes) != 0 {
				t.Errorf("rejected prompt opened %d pass windows", len(h.passes))
			}
			if !reflect.DeepEqual(h.created, h.retired) {
				t.Errorf("caches created %v, retired %v", h.created, h.retired)
			}
		})
	}
}
