package experiments

import (
	"fmt"
	"io"

	"timedice/internal/covert"
	"timedice/internal/experiments/runner"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/stats"
)

// CampaignRow summarizes one policy's channel metrics across the seed
// sweep: mean ± std plus the p10/p50/p90 spread of the RT-decoder accuracy
// and the mean and p90 of channel capacity.
type CampaignRow struct {
	Policy                 policies.Kind
	N                      int
	AccMean, AccStd        float64
	AccP10, AccP50, AccP90 float64
	CapMean, CapP90        float64
}

// CampaignResult is the cross-seed robustness report.
type CampaignResult struct {
	Rows []CampaignRow
}

// campaignSeedCount sizes the sweep from the scale: one seed per 40 test
// windows, clamped to [8, 64].
func campaignSeedCount(sc Scale) int {
	n := sc.TestWindows / 40
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

// campaignTrial is the pair of channel metrics Campaign keeps from one
// seed's trial.
type campaignTrial struct{ acc, capacity float64 }

// Campaign sweeps the standard feasibility channel across many independent
// seeds for NoRandom and TimeDiceW and reports the cross-seed spread of the
// channel metrics — the robustness view behind the single-seed figures.
// Each worker reuses one covert.Harness across the seeds it claims and
// keeps only each trial's (RT accuracy, capacity) pair; the pairs are
// folded in seed order, and the quantiles are exact.
func Campaign(sc Scale, w io.Writer) (*CampaignResult, error) {
	sc = sc.withDefaults()
	n := campaignSeedCount(sc)
	root := rng.New(sc.Seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}

	res := &CampaignResult{}
	fprintf(w, "Campaign: channel metrics across %d seeds (exact aggregation)\n", n)
	fprintf(w, "%-10s %18s %24s %10s %8s\n",
		"policy", "accuracy mean±std", "accuracy p10/p50/p90", "cap mean", "cap p90")
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
		cfg := channelConfig(BaseLoad, kind, sc)
		trials, err := runner.MapPooled(sc.Parallel,
			func() (*covert.Harness, error) { return covert.NewHarness(cfg) },
			seeds,
			func(h *covert.Harness, _ int, seed uint64) (campaignTrial, error) {
				r, err := h.Run(seed)
				if err != nil {
					return campaignTrial{}, fmt.Errorf("seed %d: %w", seed, err)
				}
				return campaignTrial{r.RTAccuracy, r.Capacity}, nil
			})
		if err != nil {
			return nil, err
		}
		row := campaignRow(kind, trials)
		res.Rows = append(res.Rows, row)
		fprintf(w, "%-10s %8.2f%% ± %5.2f%%  %6.2f%%/%6.2f%%/%6.2f%% %10.3f %8.3f\n",
			kind, 100*row.AccMean, 100*row.AccStd,
			100*row.AccP10, 100*row.AccP50, 100*row.AccP90,
			row.CapMean, row.CapP90)
	}
	return res, nil
}

// campaignRow folds one policy's per-seed trials, in seed order, into its
// summary row.
func campaignRow(kind policies.Kind, trials []campaignTrial) CampaignRow {
	accs := make([]float64, len(trials))
	caps := make([]float64, len(trials))
	var accSum, capSum stats.Summary
	for i, t := range trials {
		accs[i], caps[i] = t.acc, t.capacity
		accSum.Add(t.acc)
		capSum.Add(t.capacity)
	}
	accQ := stats.Quantiles(accs, 0.1, 0.5, 0.9)
	return CampaignRow{
		Policy: kind, N: len(trials),
		AccMean: accSum.Mean(), AccStd: accSum.Std(),
		AccP10: accQ[0], AccP50: accQ[1], AccP90: accQ[2],
		CapMean: capSum.Mean(), CapP90: stats.Quantile(caps, 0.9),
	}
}
