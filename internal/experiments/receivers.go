package experiments

import (
	"io"
	"sort"

	"timedice/internal/covert"
	"timedice/internal/experiments/runner"
	"timedice/internal/ml"
	"timedice/internal/policies"
)

// ReceiverRow is one learner's accuracy on the same channel data.
type ReceiverRow struct {
	Receiver string
	NoRandom float64
	TimeDice float64
}

// ReceiverZooResult compares every implemented receiver — the paper's SVM,
// the Bayesian response-time decoder, and the baselines — on identical
// channel observations (base-load Table I).
type ReceiverZooResult struct {
	Rows []ReceiverRow
}

// Row returns the entry for a receiver name.
func (r *ReceiverZooResult) Row(name string) (ReceiverRow, bool) {
	for _, row := range r.Rows {
		if row.Receiver == name {
			return row, true
		}
	}
	return ReceiverRow{}, false
}

// ReceiverZoo evaluates all receivers under NoRandom and TimeDiceW.
func ReceiverZoo(sc Scale, w io.Writer) (*ReceiverZooResult, error) {
	sc = sc.withDefaults()
	trainers := []ml.Trainer{ml.SVM{}, ml.NaiveBayes{}, ml.Forest{}, ml.LogReg{}, ml.KNN{}}
	kinds := []policies.Kind{policies.NoRandom, policies.TimeDiceW}
	runs, err := runner.Map(sc.Parallel, kinds, func(_ int, kind policies.Kind) (*covert.Result, error) {
		cfg := channelConfig(BaseLoad, kind, sc)
		return covert.Run(cfg, trainers...)
	})
	if err != nil {
		return nil, err
	}
	acc := map[string]*ReceiverRow{}
	get := func(name string) *ReceiverRow {
		if r, ok := acc[name]; ok {
			return r
		}
		r := &ReceiverRow{Receiver: name}
		acc[name] = r
		return r
	}
	for i, kind := range kinds {
		run := runs[i]
		assign := func(name string, v float64) {
			r := get(name)
			if kind == policies.NoRandom {
				r.NoRandom = v
			} else {
				r.TimeDice = v
			}
		}
		assign("response-time", run.RTAccuracy)
		assign("response-time-online", run.OnlineRTAccuracy)
		for name, a := range run.VecAccuracy {
			assign(name, a)
		}
	}
	res := &ReceiverZooResult{}
	for _, r := range acc {
		res.Rows = append(res.Rows, *r)
	}
	// Rows come from a map: the name tie-break orders equal accuracies.
	sort.Slice(res.Rows, func(a, b int) bool {
		ra, rb := res.Rows[a], res.Rows[b]
		return ra.NoRandom > rb.NoRandom || ra.NoRandom == rb.NoRandom && ra.Receiver < rb.Receiver
	})
	fprintf(w, "Receiver zoo (base load): accuracy by decoder\n")
	fprintf(w, "%-22s %10s %10s\n", "receiver", "NoRandom", "TimeDiceW")
	for _, r := range res.Rows {
		fprintf(w, "%-22s %9.2f%% %9.2f%%\n", r.Receiver, 100*r.NoRandom, 100*r.TimeDice)
	}
	return res, nil
}
