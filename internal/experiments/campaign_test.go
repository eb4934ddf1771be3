package experiments

import (
	"io"
	"strings"
	"testing"

	"timedice/internal/covert"
	"timedice/internal/rng"
	"timedice/internal/stats"
)

// TestCampaignSeparatesPolicies is the cross-seed mitigation check: across
// the sweep, TimeDiceW's median RT-decoder accuracy sits below NoRandom's.
func TestCampaignSeparatesPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	sc := tiny()
	sc.TestWindows = 320 // 8 seeds, the sweep floor
	var buf strings.Builder
	res, err := Campaign(sc, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].N != 8 || res.Rows[1].N != 8 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[1].AccP50 >= res.Rows[0].AccP50 {
		t.Errorf("TimeDiceW median accuracy %.3f not below NoRandom %.3f",
			res.Rows[1].AccP50, res.Rows[0].AccP50)
	}
	if !strings.Contains(buf.String(), "(exact aggregation)") {
		t.Error("report header lost its aggregation note")
	}
}

// TestCampaignMatchesFreshRuns cross-checks Campaign's reused per-worker
// harnesses against the plain path: every row recomputed from one fresh
// covert.Run per seed, folded through stats.Summary and stats.Quantiles,
// must match bit for bit.
func TestCampaignMatchesFreshRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	sc := tiny()
	sc.Parallel = 2
	res, err := Campaign(sc, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(sc.Seed)
	seeds := make([]uint64, campaignSeedCount(sc))
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	for _, got := range res.Rows {
		cfg := channelConfig(BaseLoad, got.Policy, sc)
		var accs, caps []float64
		var accSum, capSum stats.Summary
		for _, seed := range seeds {
			cfg.Seed = seed
			r, err := covert.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			accs, caps = append(accs, r.RTAccuracy), append(caps, r.Capacity)
			accSum.Add(r.RTAccuracy)
			capSum.Add(r.Capacity)
		}
		accQ := stats.Quantiles(accs, 0.1, 0.5, 0.9)
		want := CampaignRow{
			Policy: got.Policy, N: len(seeds),
			AccMean: accSum.Mean(), AccStd: accSum.Std(),
			AccP10: accQ[0], AccP50: accQ[1], AccP90: accQ[2],
			CapMean: capSum.Mean(), CapP90: stats.Quantile(caps, 0.9),
		}
		if got != want {
			t.Errorf("%v: campaign row %+v != fresh runs %+v", got.Policy, got, want)
		}
	}
}
