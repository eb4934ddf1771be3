package covert

import (
	"testing"

	"timedice/internal/ml"
	"timedice/internal/policies"
	"timedice/internal/server"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func baseConfig() Config {
	return Config{
		Spec:           workload.TableIBase(),
		Sender:         1,
		Receiver:       3,
		ProfileWindows: 200,
		TestWindows:    400,
		Seed:           7,
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := baseConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Window != vtime.MS(150) {
		t.Errorf("window %v, want 3·T_R = 150ms", cfg.Window)
	}
	if cfg.SenderPeriod != vtime.MS(50) {
		t.Errorf("sender period %v, want Window/3 = 50ms", cfg.SenderPeriod)
	}
	if cfg.MicroIntervals != 150 || cfg.Levels != 2 {
		t.Error("defaults")
	}
	if cfg.Servers != server.Deferrable {
		t.Error("default server policy for channel experiments must be deferrable")
	}
	if cfg.NoiseFraction != 0.20 {
		t.Errorf("noise fraction %v, want 0.20", cfg.NoiseFraction)
	}
	if cfg.Policy != policies.NoRandom {
		t.Error("default policy")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Sender = 9
	if _, err := Run(cfg); err == nil {
		t.Error("bad sender index accepted")
	}
	cfg = baseConfig()
	cfg.Receiver = cfg.Sender
	if _, err := Run(cfg); err == nil {
		t.Error("sender == receiver accepted")
	}
}

func TestNoNoiseOption(t *testing.T) {
	cfg := baseConfig()
	cfg.NoNoise = true
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.NoiseFraction != 0 {
		t.Error("NoNoise must zero the noise fraction")
	}
}

func TestChannelWorksUnderNoRandom(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.RTAccuracy < 0.85 {
		t.Errorf("NoRandom RT accuracy %.3f, want >= 0.85 (paper: 95.7%%)", res.RTAccuracy)
	}
	if res.Capacity < 0.4 {
		t.Errorf("NoRandom capacity %.3f b/window, want high (paper: 0.8-0.9)", res.Capacity)
	}
	if len(res.Profile) != 200 || len(res.Test) != 400 {
		t.Errorf("observation counts: %d/%d", len(res.Profile), len(res.Test))
	}
	// Every observation carries a full execution vector.
	for _, ob := range res.Test[:5] {
		if len(ob.Vector) != 150 {
			t.Fatalf("vector length %d", len(ob.Vector))
		}
	}
}

func TestTimeDiceMitigates(t *testing.T) {
	nr, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Policy = policies.TimeDiceW
	td, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if td.RTAccuracy > nr.RTAccuracy-0.2 {
		t.Errorf("TimeDiceW accuracy %.3f vs NoRandom %.3f", td.RTAccuracy, nr.RTAccuracy)
	}
	if td.Capacity > nr.Capacity/2 {
		t.Errorf("TimeDiceW capacity %.3f vs NoRandom %.3f", td.Capacity, nr.Capacity)
	}
}

func TestVectorReceiverBeatsOrMatchesRT(t *testing.T) {
	// §III-d: the execution vector embeds more information than the response
	// time (the latter is derivable from the former), so a competent learner
	// should at least roughly match the RT decoder under NoRandom.
	res, err := Run(baseConfig(), ml.SVM{}, ml.LogReg{})
	if err != nil {
		t.Fatal(err)
	}
	svm := res.VecAccuracy["svm-rbf"]
	if svm < res.RTAccuracy-0.08 {
		t.Errorf("SVM accuracy %.3f well below RT accuracy %.3f", svm, res.RTAccuracy)
	}
	if _, ok := res.VecAccuracy["logreg"]; !ok {
		t.Error("second learner missing from results")
	}
}

func TestMultiBitChannel(t *testing.T) {
	cfg := baseConfig()
	cfg.Levels = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4-level decoding is harder than binary but must beat the 25% guess
	// under NoRandom.
	if res.RTAccuracy < 0.5 {
		t.Errorf("4-level accuracy %.3f, want well above 0.25", res.RTAccuracy)
	}
}

func TestSeedReproducibility(t *testing.T) {
	a, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.RTAccuracy != b.RTAccuracy || a.Capacity != b.Capacity {
		t.Error("same seed must reproduce identical results")
	}
	cfg := baseConfig()
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.RTAccuracy == a.RTAccuracy && c.Capacity == a.Capacity {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestSeparationBounds(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	sep := Separation(res.Hist0, res.Hist1)
	if sep < 0 || sep > 1 {
		t.Fatalf("separation %v out of [0,1]", sep)
	}
	if Separation(nil, res.Hist1) != 0 || Separation(res.Hist0, nil) != 0 {
		t.Error("nil histograms should give 0")
	}
	if got := Separation(res.Hist0, res.Hist0); got != 0 {
		t.Errorf("self separation %v", got)
	}
}

func TestPollingServerOptionStillRuns(t *testing.T) {
	// Ablation path: the experiment runs under a polling server too (the
	// phase-locked lattice weakens the channel, but the machinery works).
	cfg := baseConfig()
	cfg.Servers = server.Polling
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Test) == 0 {
		t.Fatal("no observations under polling server")
	}
}

func TestSporadicServerOptionStillRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = server.Sporadic
	cfg.ProfileWindows = 100
	cfg.TestWindows = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Test) == 0 {
		t.Fatal("no observations under sporadic server")
	}
}

func TestExecutionVectorsConsistentWithResponses(t *testing.T) {
	// A window in which the receiver never executed cannot have a recorded
	// response; conversely windows with responses must show execution.
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ob := range res.Test {
		var ran bool
		for _, v := range ob.Vector {
			if v > 0 {
				ran = true
				break
			}
		}
		if !ran {
			t.Fatalf("window %d has a response (%v) but an empty execution vector", ob.Window, ob.Response)
		}
	}
}

func TestDecoderOrdersGroupsByMean(t *testing.T) {
	// Construct synthetic profile observations where the alternation is
	// inverted (even windows slow); the decoder must still map the
	// smaller-mean group to X=0.
	var profile []Observation
	for i := 0; i < 100; i++ {
		r := vtime.MS(100)
		if i%2 == 0 {
			r = vtime.MS(110) // group 0 is SLOWER
		}
		profile = append(profile, Observation{Window: i, Label: i % 2, Response: r})
	}
	dec := profileResponses(profile, 2)
	if got := dec.classify(vtime.MS(100)); got != 0 {
		t.Errorf("fast response classified as %d, want 0", got)
	}
	if got := dec.classify(vtime.MS(110)); got != 1 {
		t.Errorf("slow response classified as %d, want 1", got)
	}
}

func TestOptimalCapacityAtLeastUniform(t *testing.T) {
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
		cfg := baseConfig()
		cfg.Policy = kind
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CapacityOpt < res.Capacity-0.02 {
			t.Errorf("%v: optimal capacity %.3f below uniform-input %.3f", kind, res.CapacityOpt, res.Capacity)
		}
		if res.CapacityOpt > 1 {
			t.Errorf("%v: binary capacity above 1 bit: %.3f", kind, res.CapacityOpt)
		}
	}
}

func TestDeriveResponseTracksTrueResponse(t *testing.T) {
	// §III-d: the response time is derivable from the execution vector. For
	// windows whose job completed inside the window, the derived estimate
	// must match the measured response within one micro-interval.
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := vtime.MS(150)
	micro := window / 150
	checked := 0
	for _, ob := range res.Test {
		if ob.Response > window {
			continue // job spilled into the next window; derivation is a lower bound
		}
		derived := deriveResponse(ob.Vector, window)
		diff := derived - ob.Response
		if diff < 0 {
			diff = -diff
		}
		if diff > micro {
			t.Fatalf("window %d: derived %v vs true %v (tolerance %v)", ob.Window, derived, ob.Response, micro)
		}
		checked++
	}
	if checked < len(res.Test)/2 {
		t.Fatalf("only %d/%d windows checkable", checked, len(res.Test))
	}
}

func TestDeriveResponseDegenerate(t *testing.T) {
	if deriveResponse(nil, vtime.MS(150)) != 0 {
		t.Error("empty vector")
	}
	if deriveResponse([]float64{0, 0, 0}, vtime.MS(150)) != 0 {
		t.Error("all-idle vector")
	}
	if got := deriveResponse([]float64{0, 1, 0}, vtime.MS(150)); got != vtime.MS(100) {
		t.Errorf("derived %v, want 100ms (end of 2nd of 3 intervals)", got)
	}
}
