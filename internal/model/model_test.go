package model

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/lia-sim/lia/internal/units"
)

func TestCatalogValidates(t *testing.T) {
	for _, c := range Catalog() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := OPT175B
	bad.Layers = 0
	if bad.Validate() == nil {
		t.Error("zero layers accepted")
	}
	bad = OPT175B
	bad.Heads = 7 // 12288 % 7 != 0
	if bad.Validate() == nil {
		t.Error("indivisible heads accepted")
	}
	bad = Llama270B
	bad.KVHeads = 3
	if bad.Validate() == nil {
		t.Error("indivisible KV heads accepted")
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("OPT-175B")
	if err != nil || c.DModel != 12288 {
		t.Fatalf("ByName(OPT-175B) = %+v, %v", c, err)
	}
	if _, err := ByName("GPT-9000"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestTable1Prefill checks every prefill formula of Table 1 symbolically
// for OPT-175B at B=4, L=128.
func TestTable1Prefill(t *testing.T) {
	c := OPT175B
	b, l := 4, 128
	d := float64(c.DModel)
	bl := float64(b * l)
	cases := []struct {
		s          Sublayer
		dx, dy, fl float64
	}{
		{QKVMapping, 2 * bl * d, 6 * d * d, 6 * bl * d * d},
		{QKT, 2 * bl * d, 2 * bl * d, 2 * bl * float64(l) * d},
		{SV, 2 * bl * d, 2 * bl * d, 2 * bl * float64(l) * d},
		{OutProjection, 2 * bl * d, 2 * d * d, 2 * bl * d * d},
		{FC1, 2 * bl * d, 8 * d * d, 8 * bl * d * d},
		{FC2, 8 * bl * d, 8 * d * d, 8 * bl * d * d},
	}
	for _, tc := range cases {
		if got := float64(c.DataX(Prefill, tc.s, b, l)); got != tc.dx {
			t.Errorf("%s D_X = %v, want %v", tc.s, got, tc.dx)
		}
		if got := float64(c.DataY(Prefill, tc.s, b, l)); got != tc.dy {
			t.Errorf("%s D_Y = %v, want %v", tc.s, got, tc.dy)
		}
		if got := float64(c.Compute(Prefill, tc.s, b, l)); got != tc.fl {
			t.Errorf("%s C = %v, want %v", tc.s, got, tc.fl)
		}
	}
}

// TestTable1Decode checks every decode formula of Table 1.
func TestTable1Decode(t *testing.T) {
	c := OPT175B
	b, l := 8, 512
	d := float64(c.DModel)
	bf := float64(b)
	lf := float64(l)
	cases := []struct {
		s          Sublayer
		dx, dy, fl float64
	}{
		{QKVMapping, 2 * bf * d, 6 * d * d, 6 * bf * d * d},
		{QKT, 2 * bf * d, 2 * bf * lf * d, 2 * bf * lf * d},
		{SV, 2 * bf * d, 2 * bf * lf * d, 2 * bf * lf * d},
		{OutProjection, 2 * bf * d, 2 * d * d, 2 * bf * d * d},
		{FC1, 2 * bf * d, 8 * d * d, 8 * bf * d * d},
		{FC2, 8 * bf * d, 8 * d * d, 8 * bf * d * d},
	}
	for _, tc := range cases {
		if got := float64(c.DataX(Decode, tc.s, b, l)); got != tc.dx {
			t.Errorf("%s D_X = %v, want %v", tc.s, got, tc.dx)
		}
		if got := float64(c.DataY(Decode, tc.s, b, l)); got != tc.dy {
			t.Errorf("%s D_Y = %v, want %v", tc.s, got, tc.dy)
		}
		if got := float64(c.Compute(Decode, tc.s, b, l)); got != tc.fl {
			t.Errorf("%s C = %v, want %v", tc.s, got, tc.fl)
		}
	}
}

func TestParamCounts(t *testing.T) {
	// One OPT-175B decoder layer holds 24·d² bytes ≈ 3.62 GiB of BF16;
	// an OPT-30B layer ≈ 1.2 GB (Optimization-1 discussion).
	if got := OPT175B.LayerParamBytes(); math.Abs(float64(got)-24*12288*12288) > 1 {
		t.Errorf("OPT-175B layer params = %v", got)
	}
	layer30 := OPT30B.LayerParamBytes()
	if layer30 < 1.1*units.GB || layer30 > 1.35*units.GB {
		t.Errorf("OPT-30B layer params = %v, want ≈1.2 GB", layer30)
	}
	// Whole-model parameter bytes land near 2 bytes/param of the nominal
	// parameter count.
	total := OPT175B.ParamBytes()
	if total < 330*units.GB || total > 370*units.GB {
		t.Errorf("OPT-175B params = %v, want ≈350 GB", total)
	}
}

func TestMemoryFootprintHeadlines(t *testing.T) {
	// §1: OPT-175B at L=1024 goes from ~330 GB at B=1 to ~1.6 TB at B=256:
	// all parameters plus the batch's KV cache and prefill activations.
	footprint := func(b, l int) units.Bytes {
		return OPT175B.ParamBytes() + OPT175B.KVBytes(b, l) + OPT175B.ActivationBytes(b, l, Prefill)
	}
	small := footprint(1, 1024)
	if small < 320*units.GB || small > 380*units.GB {
		t.Errorf("B=1 footprint = %v, want ≈330-350 GB", small)
	}
	big := footprint(256, 1024)
	if big < 1.4*units.TB || big > 1.8*units.TB {
		t.Errorf("B=256 footprint = %v, want ≈1.6 TB", big)
	}
}

func TestKVBytes(t *testing.T) {
	// KV per layer = 4·B·L·d bytes for MHA models.
	got := OPT175B.KVBytesPerLayer(2, 100)
	want := units.Bytes(4 * 2 * 100 * 12288)
	if got != want {
		t.Errorf("KV per layer = %v, want %v", got, want)
	}
	if OPT175B.KVBytes(2, 100) != want*96 {
		t.Error("total KV != layers × per-layer")
	}
	// GQA shrinks the cache by Heads/KVHeads.
	ratio := float64(Chinchilla70B.KVBytes(1, 1000)) / float64(Llama270B.KVBytes(1, 1000))
	if math.Abs(ratio-8) > 1e-9 {
		t.Errorf("MHA/GQA KV ratio = %v, want 8", ratio)
	}
}

func TestOpsPerByteHeatmapShape(t *testing.T) {
	// Figure 1: for OPT-175B at L=512, B=180, ops/byte spans ~1 to ~50,000.
	cells := OPT175B.OpsByteHeatmap(180, 512)
	if len(cells) != 12 {
		t.Fatalf("heatmap has %d cells, want 12", len(cells))
	}
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, cell := range cells {
		if cell.OpsPerByte < minV {
			minV = cell.OpsPerByte
		}
		if cell.OpsPerByte > maxV {
			maxV = cell.OpsPerByte
		}
	}
	if minV < 0.4 || minV > 2 {
		t.Errorf("min ops/byte = %v, want ≈1", minV)
	}
	if maxV < 20_000 || maxV > 100_000 {
		t.Errorf("max ops/byte = %v, want ≈50,000", maxV)
	}
}

func TestDecodeAttentionIsMemoryBound(t *testing.T) {
	// §6 Observation-2: QKT's decode ops/byte is constant ≈1 regardless of
	// B and L.
	for _, b := range []int{1, 16, 256} {
		for _, l := range []int{64, 512, 2048} {
			got := OPT175B.OpsPerByte(Decode, QKT, b, l)
			if got < 0.5 || got > 1.5 {
				t.Errorf("decode QKT ops/byte at B=%d L=%d = %v, want ≈1", b, l, got)
			}
		}
	}
}

func TestPrefillFC1IntensityScalesWithBL(t *testing.T) {
	// §6 Observation-2: sublayer 1's ops/byte scales with B·L in prefill.
	lo := OPT175B.OpsPerByte(Prefill, FC1, 1, 32)
	hi := OPT175B.OpsPerByte(Prefill, FC1, 64, 512)
	if hi <= lo*10 {
		t.Errorf("FC1 intensity did not scale: %v → %v", lo, hi)
	}
}

func TestMoECollapsesFFNIntensity(t *testing.T) {
	// §7.1: with more experts, FC1/FC2 ops-per-byte drops (parameters grow,
	// active FLOPs do not).
	dense := OPT30B.OpsPerByte(Decode, FC1, 64, 256)
	moe := MoE16x.OpsPerByte(Decode, FC1, 64, 256)
	if moe >= dense/8 {
		t.Errorf("MoE FC1 intensity %v not ≪ dense %v", moe, dense)
	}
}

func TestGatedFFNDoublesFC1(t *testing.T) {
	gated := Llama270B
	plain := gated
	plain.GatedFFN = false
	if gated.Compute(Prefill, FC1, 2, 64) != 2*plain.Compute(Prefill, FC1, 2, 64) {
		t.Error("gated FFN should double FC1 FLOPs")
	}
	if gated.DataX(Prefill, FC2, 2, 64) != 2*plain.DataX(Prefill, FC2, 2, 64) {
		t.Error("gated FFN should double FC2's activation input")
	}
}

func TestStageAndSublayerStrings(t *testing.T) {
	if Prefill.String() != "prefill" || Decode.String() != "decode" {
		t.Error("stage strings wrong")
	}
	names := []string{"QKV", "QxK^T", "SxV", "OutProj", "FC1", "FC2"}
	for i, s := range Sublayers() {
		if s.String() != names[i] {
			t.Errorf("sublayer %d = %q, want %q", i, s.String(), names[i])
		}
	}
}

// Property: all byte sizes and FLOP counts are positive and monotone in B.
func TestFormulasMonotoneInBatch(t *testing.T) {
	c := OPT30B
	f := func(rawB uint8, rawL uint16) bool {
		b := int(rawB%64) + 1
		l := int(rawL%512) + 1
		for _, stage := range []Stage{Prefill, Decode} {
			for _, s := range Sublayers() {
				if c.DataX(stage, s, b, l) <= 0 || c.DataY(stage, s, b, l) <= 0 || c.Compute(stage, s, b, l) <= 0 {
					return false
				}
				if c.Compute(stage, s, 2*b, l) < c.Compute(stage, s, b, l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewCatalogModels(t *testing.T) {
	if err := Falcon40B.Validate(); err != nil {
		t.Error(err)
	}
	if err := Mistral7B.Validate(); err != nil {
		t.Error(err)
	}
	// Falcon's aggressive GQA: 16 query heads per KV head.
	if Falcon40B.Heads/Falcon40B.KVHeads != 16 {
		t.Error("Falcon grouping wrong")
	}
	// Mistral-7B fits a 40 GB GPU outright (the no-offload control).
	if Mistral7B.ParamBytes() > 16e9 {
		t.Errorf("Mistral-7B params = %v, want <16 GB", Mistral7B.ParamBytes())
	}
	// Parameter counts land near the nominal sizes.
	f := float64(Falcon40B.ParamBytes()) / 2
	if f < 35e9 || f > 50e9 {
		t.Errorf("Falcon-40B param count ≈ %.1fB, want ≈40-45B", f/1e9)
	}
}

func TestInt8Variant(t *testing.T) {
	v := OPT175B.Int8Variant()
	if v.BytesPerParam != 1 || v.Name != "OPT-175B-int8" {
		t.Errorf("variant = %+v", v)
	}
	if v.ParamBytes()*2 != OPT175B.ParamBytes() {
		t.Error("INT8 must halve parameter bytes")
	}
	// The original is untouched.
	if OPT175B.BytesPerParam != 2 {
		t.Error("Int8Variant mutated the catalog entry")
	}
}
