package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"time"

	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/shard"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// shards is the dense workload's shard count on its two-worker pool.
const shards = 8

// engineWorkload steps one large simulated system: dense-P1024 (TimeDiceW,
// sharded) or sparse-P16384 (NoRandom, sequential).
type engineWorkload struct {
	spec         model.SystemSpec
	kind         policies.Kind
	sharded      bool
	seed         uint64
	nSetups      int
	warm, length vtime.Duration // set-up warm-up; sim time per round
	digestRounds int

	sys          *engine.System
	pool         *shard.Pool
	setupDigests []string
	rounds       int
	digest       string

	// Totals over the traced rounds; counters and stats sum each round's
	// deltas of the fields addCounters and addStats read.
	steps, stepNS int64
	stepHist      hist
	simTime       vtime.Duration
	mallocs       uint64
	counters      engine.Counters
	stats         core.Stats
	mem           runtime.MemStats // ReadMemStats target, kept to avoid allocating
}

func newDense(sz size, seed uint64) *engineWorkload {
	return &engineWorkload{
		spec: workload.Dense(sz.DenseP), kind: policies.TimeDiceW, sharded: true, seed: seed, nSetups: sz.DenseSetups,
		warm: sz.DenseWarm, length: sz.DenseRound, digestRounds: sz.DenseDigestRounds,
	}
}

func newSparse(sz size, seed uint64) *engineWorkload {
	return &engineWorkload{
		spec: workload.Sparse(sz.SparseP), kind: policies.NoRandom, seed: seed, nSetups: sz.SparseSetups,
		warm: sz.SparseWarm, length: sz.SparseRound, digestRounds: sz.SparseDigestRounds,
	}
}

func (w *engineWorkload) setups() int { return w.nSetups }

func (w *engineWorkload) setup() error {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
	built, err := w.spec.Build()
	if err != nil {
		return err
	}
	pol, err := policies.Build(w.kind, built.Partitions, policies.Options{})
	if err != nil {
		return err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(w.seed))
	if err != nil {
		return err
	}
	if w.sharded {
		w.pool = shard.NewPool(workers)
		sys.SetSharding(w.pool, shards)
	}
	sys.RunFor(w.warm)
	w.sys = sys
	d, err := stateDigest(sys)
	if err != nil {
		return err
	}
	w.setupDigests = append(w.setupDigests, d)
	return nil
}

func (w *engineWorkload) round(traced bool, _ *[]float64) (roundStats, error) {
	sys := w.sys
	var ns int64
	if !traced {
		sys.RunFor(w.length)
	} else {
		until := sys.Now().Add(w.length)
		c0, s0 := sys.Counters, policyStats(sys)
		runtime.ReadMemStats(&w.mem)
		m0 := w.mem.Mallocs
		sys.MeasureLatency = true
		var steps int64
		for sys.Now() < until {
			t0 := time.Now()
			sys.Step(until)
			d := int64(time.Since(t0))
			ns += d
			w.stepHist.observe(d)
			steps++
		}
		sys.MeasureLatency = false
		runtime.ReadMemStats(&w.mem)
		w.mallocs += w.mem.Mallocs - m0
		w.steps += steps
		w.stepNS += ns
		w.simTime += w.length
		addCounters(&w.counters, sys.Counters, c0)
		addStats(&w.stats, policyStats(sys), s0)
	}
	w.rounds++
	if w.rounds == w.digestRounds {
		d, err := stateDigest(sys)
		if err != nil {
			return roundStats{}, err
		}
		w.digest = d
	}
	return roundStats{units: w.length.Seconds(), covered: time.Duration(ns)}, nil
}

func (w *engineWorkload) digestReady() bool { return w.digest != "" }

func (w *engineWorkload) finish(traced bool) (outcome, error) {
	if w.pool != nil {
		defer w.pool.Close()
	}
	sys := w.sys
	var o outcome
	o.digest = w.digest
	o.check("setups_agree", allEqual(w.setupDigests), "warmed-state digests %v", w.setupDigests)
	o.check("min_advances_zero", sys.Counters.MinAdvances == 0, "MinAdvances = %d", sys.Counters.MinAdvances)
	span := vtime.Duration(sys.Now())
	busyIdle := sys.Counters.BusyTime + sys.Counters.IdleTime
	o.check("busy_plus_idle_is_span", busyIdle == span, "BusyTime+IdleTime = %v, simulated span = %v", busyIdle, span)
	for _, c := range o.checks {
		o.attempted++
		if !c.ok {
			o.failed++
		}
	}
	if !traced {
		return o, nil
	}
	steps := float64(w.steps)
	c, st := w.counters, w.stats
	o.layers = map[string]float64{
		"engine.step_us":                       ratio(float64(w.stepNS)/1e3, steps),
		"engine.step_us_p99":                   w.stepHist.quantile(0.99) / 1e3,
		"engine.self_us":                       ratio(float64(w.stepNS-int64(c.PolicyTime))/1e3, steps),
		"engine.steps_per_sim_s":               ratio(steps, w.simTime.Seconds()),
		"engine.arena_bytes_per_step":          ratio(float64(c.ArenaBytesTouched), steps),
		"engine.allocs_per_step":               ratio(float64(w.mallocs), steps),
		"policy.pick_us":                       ratio(float64(c.PolicyTime)/1e3, float64(c.PolicySamples)),
		"policy.pick_us_p99":                   sys.Counters.PolicyLatency.Quantile(0.99),
		"core.fixpoint_iters_per_decision":     ratio(float64(c.FixpointIters), float64(st.Decisions)),
		"core.interference_terms_per_decision": ratio(float64(c.InterferenceTerms), float64(st.Decisions)),
		"core.sched_tests_per_decision":        ratio(float64(st.SchedTests), float64(st.Decisions)),
		"core.candidates_per_decision":         ratio(float64(st.CandidateSum), float64(st.Decisions)),
		"core.cache_hit_ratio":                 ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		"core.search_reuse_ratio":              ratio(float64(st.SearchReuses), float64(st.Decisions)),
		"shard.merge_ns_per_step":              ratio(float64(c.ShardMergeTime), steps),
	}
	return o, nil
}

// stateDigest is a sha256 over the system's snapshot and its deterministic
// counters (every Counters field except the wall-clock ones).
func stateDigest(sys *engine.System) (string, error) {
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		return "", err
	}
	c := sys.Counters
	for _, v := range []int64{
		c.Decisions, c.Switches, c.IdleDecisions, int64(c.BusyTime), int64(c.IdleTime),
		c.DeadlineMisses, c.InversionWindows, int64(c.InversionTime), c.MinAdvances,
		c.ArenaBytesTouched, c.FixpointIters, c.InterferenceTerms,
	} {
		buf.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// policyStats reads the TimeDice policy's counters; other policies keep none.
func policyStats(sys *engine.System) core.Stats {
	if p, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		return p.Stats()
	}
	return core.Stats{}
}

// addCounters adds the counter deltas b−a that the per-layer metrics use.
func addCounters(acc *engine.Counters, b, a engine.Counters) {
	acc.Decisions += b.Decisions - a.Decisions
	acc.PolicyTime += b.PolicyTime - a.PolicyTime
	acc.PolicySamples += b.PolicySamples - a.PolicySamples
	acc.ShardMergeTime += b.ShardMergeTime - a.ShardMergeTime
	acc.ArenaBytesTouched += b.ArenaBytesTouched - a.ArenaBytesTouched
	acc.FixpointIters += b.FixpointIters - a.FixpointIters
	acc.InterferenceTerms += b.InterferenceTerms - a.InterferenceTerms
}

func addStats(acc *core.Stats, b, a core.Stats) {
	acc.Decisions += b.Decisions - a.Decisions
	acc.SchedTests += b.SchedTests - a.SchedTests
	acc.CacheHits += b.CacheHits - a.CacheHits
	acc.CacheMisses += b.CacheMisses - a.CacheMisses
	acc.SearchReuses += b.SearchReuses - a.SearchReuses
	acc.CandidateSum += b.CandidateSum - a.CandidateSum
}

func allEqual[T comparable](v []T) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
