package scenario

import (
	"math/rand"
	"sort"

	"github.com/lia-sim/lia/internal/serve"
)

// Percentile returns the nearest-rank p-quantile of the samples (p in
// [0, 1]; 0 on an empty slice) — serve.Percentile over a sorted copy,
// so the value is always an observed sample and small-N results stay
// exactly reproducible.
func Percentile(samples []float64, p float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return serve.Percentile(s, p)
}

// MetricSummary aggregates one metric across a cell's trials.
type MetricSummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P99  float64 `json:"p99"`
	// CI95Lo/Hi is a seeded-bootstrap 95% confidence interval on the
	// mean (percentile method, 200 resamples).
	CI95Lo float64 `json:"ci95_lo"`
	CI95Hi float64 `json:"ci95_hi"`
}

// bootstrapResamples balances CI stability against artifact-generation
// time; 200 puts the percentile-method endpoints well inside the noise
// floor of N≈10-trial cells.
const bootstrapResamples = 200

// Summarize aggregates per-trial samples into mean, percentiles, and a
// seeded-bootstrap CI on the mean. The rng is the caller's — one
// sequential source per cell, consumed in a fixed metric order, keeps
// the whole artifact a pure function of the experiment seed.
func Summarize(samples []float64, rng *rand.Rand) MetricSummary {
	if len(samples) == 0 {
		return MetricSummary{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(len(samples))
	out := MetricSummary{
		Mean: mean,
		P50:  Percentile(samples, 0.50),
		P99:  Percentile(samples, 0.99),
	}
	if len(samples) == 1 {
		out.CI95Lo, out.CI95Hi = mean, mean
		return out
	}
	means := make([]float64, bootstrapResamples)
	for i := range means {
		var s float64
		for j := 0; j < len(samples); j++ {
			s += samples[rng.Intn(len(samples))]
		}
		means[i] = s / float64(len(samples))
	}
	sort.Float64s(means)
	out.CI95Lo = means[int(0.025*float64(bootstrapResamples))]
	out.CI95Hi = means[int(0.975*float64(bootstrapResamples))-1]
	return out
}
