package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/lia-sim/lia/internal/core"
	"github.com/lia-sim/lia/internal/gateway"
	"github.com/lia-sim/lia/internal/llm"
	"github.com/lia-sim/lia/internal/offload"
	"github.com/lia-sim/lia/internal/trace"
)

// TestFlagValueParsers: each flag-value resolver accepts exactly what its
// usage string lists (case-insensitively) and names the choices when it
// rejects.
func TestFlagValueParsers(t *testing.T) {
	t.Run("live-model", func(t *testing.T) {
		for name, want := range map[string]string{
			"tiny": llm.TinyConfig().Name, "TINY": llm.TinyConfig().Name,
			"tiny-llama": llm.TinyLlamaConfig().Name, "tinyllama": llm.TinyLlamaConfig().Name,
		} {
			cfg, err := liveModelConfig(name)
			if err != nil || cfg.Name != want {
				t.Errorf("liveModelConfig(%q) = %q, %v; want %q", name, cfg.Name, err, want)
			}
		}
		for _, name := range []string{"", "OPT-30B", "tiny "} {
			if _, err := liveModelConfig(name); err == nil || !strings.Contains(err.Error(), "tiny or tiny-llama") {
				t.Errorf("liveModelConfig(%q): error %v does not name the choices", name, err)
			}
		}
	})
	t.Run("live-policy", func(t *testing.T) {
		for name, want := range map[string]core.Policy{
			"gpu": core.FullGPU, "cpu": core.FullCPU, "partial": core.PartialCPU, "Partial": core.PartialCPU,
		} {
			if got, err := parsePolicy(name); err != nil || got != want {
				t.Errorf("parsePolicy(%q) = %s, %v; want %s", name, got, err, want)
			}
		}
		for _, name := range []string{"", "(0,1,1,0,0,0)", "amx"} {
			if _, err := parsePolicy(name); err == nil || !strings.Contains(err.Error(), "gpu, cpu, or partial") {
				t.Errorf("parsePolicy(%q): error %v does not name the choices", name, err)
			}
		}
	})
	t.Run("trace", func(t *testing.T) {
		for name, want := range map[string]trace.Kind{
			"code": trace.Code, "conversation": trace.Conversation, "Conversation": trace.Conversation, "conv": trace.Conversation,
		} {
			if got, err := parseTraceFamily(name); err != nil || got != want {
				t.Errorf("parseTraceFamily(%q) = %s, %v; want %s", name, got, err, want)
			}
		}
		// A typo used to select the code trace silently.
		for _, name := range []string{"", "cnversation", "chat", "codes"} {
			if _, err := parseTraceFamily(name); err == nil || !strings.Contains(err.Error(), "code or conversation") {
				t.Errorf("parseTraceFamily(%q): error %v does not name the choices", name, err)
			}
		}
	})
	t.Run("offload", func(t *testing.T) {
		cfg := llm.TinyConfig()
		for _, mode := range []string{"none", "", "None"} {
			if host, err := buildOffloadHost(cfg, mode, core.FullGPU); err != nil || host != nil {
				t.Errorf("buildOffloadHost(%q) = %v, %v; want no host", mode, host, err)
			}
		}
		for mode, want := range map[string]offload.Tier{"ddr": offload.DDR, "DDR": offload.DDR, "cxl": offload.CXL} {
			host, err := buildOffloadHost(cfg, mode, core.FullGPU)
			if err != nil {
				t.Errorf("buildOffloadHost(%q): %v", mode, err)
				continue
			}
			if got := host.Plan().ParamTier; got != want {
				t.Errorf("buildOffloadHost(%q) streams parameters from %s, want %s", mode, got, want)
			}
			if host.Plan().GPU.PinnedLayers != 1 {
				t.Errorf("buildOffloadHost(%q) pins %d layers, want 1 (the streaming regime)", mode, host.Plan().GPU.PinnedLayers)
			}
			host.Close()
		}
		for _, mode := range []string{"hbm", "nvme"} {
			if _, err := buildOffloadHost(cfg, mode, core.FullGPU); err == nil || !strings.Contains(err.Error(), "none, ddr, or cxl") {
				t.Errorf("buildOffloadHost(%q): error %v does not name the choices", mode, err)
			}
		}
	})
}

// goroutinesSettleAt polls until the goroutine count is back at the
// baseline: a gateway's batcher and an offload host's prefetch worker
// are both gone once Shutdown and Close have returned.
func goroutinesSettleAt(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running, %d before the build\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func shutdown(t *testing.T, g *gateway.Gateway) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestBuildGatewayTiersAndHosting builds the live stack for every -quant
// tier under every -offload mode, serves one request through it, and
// shuts it down with nothing left running.
func TestBuildGatewayTiersAndHosting(t *testing.T) {
	for _, tier := range []string{"", "dense", "sparse", "int4lut", "int8", "sparse-int8"} {
		for _, mode := range []string{"none", "ddr", "cxl"} {
			t.Run(tier+"/"+mode, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				g, host, desc, err := buildGateway(liveSpec{
					Model: "tiny", Policy: "partial", Offload: mode, KVTokens: 256, Seed: 1,
					Gateway: gateway.Config{MaxBatch: 4, QueueDepth: 8, KVBlockTokens: 4, Quant: tier},
				})
				if err != nil {
					t.Fatal(err)
				}
				wantTier := tier
				if wantTier == "" {
					wantTier = "dense"
				}
				if got := g.Snapshot().QuantTier; got != wantTier {
					t.Errorf("serving tier %q, want %q", got, wantTier)
				}
				if (host != nil) != (mode != "none") {
					t.Errorf("offload host present = %v under -offload %s", host != nil, mode)
				}
				for _, want := range []string{"tiny model", "partial policy", "max batch 4", "queue 8", "KV pool 256 tokens"} {
					if !strings.Contains(desc, want) {
						t.Errorf("description %q does not mention %q", desc, want)
					}
				}
				res, err := g.Submit(context.Background(), []int{5, 17, 42}, 4)
				if err != nil || len(res.Tokens) != 4 {
					t.Errorf("Submit = %v, %v; want 4 tokens", res.Tokens, err)
				}
				if host != nil && host.Snapshot().Xfer.Transfers == 0 {
					t.Error("the executor is not hosted: no link transfer after a served request")
				}
				shutdown(t, g)
				if host != nil {
					host.Close()
				}
				goroutinesSettleAt(t, baseline)
			})
		}
	}
}

// TestBuildGatewayRejects: a flag value or composition the stack refuses
// comes back as an error, and an offload host built before the refusal is
// closed, not leaked.
func TestBuildGatewayRejects(t *testing.T) {
	ok := liveSpec{Model: "tiny", Policy: "partial", Offload: "none", Seed: 1, Gateway: gateway.Config{MaxBatch: 4, KVBlockTokens: 4}}
	cases := []struct {
		name   string
		mutate func(*liveSpec)
		want   string
	}{
		{"model", func(s *liveSpec) { s.Model = "OPT-30B" }, "unknown live model"},
		{"policy", func(s *liveSpec) { s.Policy = "amx" }, "unknown policy"},
		{"offload", func(s *liveSpec) { s.Offload = "nvme" }, "unknown offload mode"},
		{"tier", func(s *liveSpec) { s.Gateway.Quant = "int2" }, "unknown quant tier"},
		{"sparsity", func(s *liveSpec) { s.Gateway.Quant = "sparse"; s.Gateway.QuantSparsity = 1 }, "QuantSparsity"},
		{"batch", func(s *liveSpec) { s.Gateway.MaxBatch = -1 }, "MaxBatch"},
		{"chunk", func(s *liveSpec) { s.Offload = "ddr"; s.Gateway.PrefillChunk = -1 }, "PrefillChunk"},
		{"spec+offload", func(s *liveSpec) { s.Offload = "cxl"; s.Gateway.SpecGamma = 2 }, "does not compose"},
		{"spec+int8", func(s *liveSpec) { s.Gateway.Quant = "int8"; s.Gateway.SpecGamma = 2 }, "requires a BF16 executor"},
		{"spec draft depth", func(s *liveSpec) { s.Gateway.SpecGamma = 2; s.Gateway.SpecDraftLayers = 99 }, "draft"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			spec := ok
			c.mutate(&spec)
			g, host, _, err := buildGateway(spec)
			if err == nil {
				shutdown(t, g)
				t.Fatalf("built a gateway from %+v", spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
			if g != nil || host != nil {
				t.Errorf("a failed build returned gateway %v, host %v", g, host)
			}
			goroutinesSettleAt(t, baseline)
		})
	}
}

// TestLiveGenerateOverHTTP serves POST /v1/generate from a gateway built
// the way -live builds it and checks the tokens are the ones a fresh
// executor over the same weights generates on its own.
func TestLiveGenerateOverHTTP(t *testing.T) {
	const seed = 7
	g, _, _, err := buildGateway(liveSpec{
		Model: "tiny-llama", Policy: "cpu", Offload: "none", KVTokens: 128, Seed: seed,
		Gateway: gateway.Config{MaxBatch: 2, KVBlockTokens: 4, PrefixCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, g)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	m, err := llm.NewRandom(llm.TinyLlamaConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{5, 17, 42, 9, 63}
	want, err := llm.NewExecutor(m, core.FullCPU).Generate(prompt, 8)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(gateway.GenerateRequest{Prompt: prompt, MaxNewTokens: 8})
	resp, err := http.Post(srv.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/generate: %s", resp.Status)
	}
	var got gateway.GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tokens, want) {
		t.Errorf("served tokens %v, a solo Generate on the same weights gives %v", got.Tokens, want)
	}
}

// TestFleetBenchWritesCommittedArtifact: the -fleet-bench wrapper, run as
// `make bench-fleet` runs it, writes BENCH_fleet.json's bytes (the report
// itself is pinned in internal/router).
func TestFleetBenchWritesCommittedArtifact(t *testing.T) {
	var out bytes.Buffer
	if err := runFleetBench(&out, "tiny", 1); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-fleet-bench -seed 1 wrote %d bytes that differ from the committed %d", out.Len(), len(want))
	}
	if err := runFleetBench(&out, "OPT-30B", 1); err == nil {
		t.Error("-fleet-bench accepted a model -live-model does not list")
	}
}
