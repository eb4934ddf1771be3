// Package gen is the deterministic scenario generator of the simulation
// fuzzer: schedulability-aware random sampling of partition sets, budget
// servers, and local task sets, plus an encoded scenario format and a
// shrinking minimizer. Everything is driven by one seeded rng.Rand, so a
// campaign is reproducible bit-for-bit from its seed.
//
// The generator only emits systems that pass the conservative offline
// schedulability test and whose every task has a finite analytic WCRT bound
// within its deadline — the precondition under which the check package's
// differential oracle may demand zero deadline misses from every
// schedulability-preserving policy. Utilizations are split with the UUniFast
// algorithm (Bini & Buttazzo) at both levels: across partitions and across
// each partition's local tasks.
package gen

import (
	"fmt"
	"math"

	"timedice/internal/analysis"
	"timedice/internal/check"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

// Scenario is one complete fuzz trial: a system, the global policy to run it
// under, the policy quantum, the RNG seed for the simulation, and the
// simulated horizon.
type Scenario struct {
	Spec    model.SystemSpec
	Policy  policies.Kind
	Quantum vtime.Duration
	Seed    uint64
	Horizon vtime.Duration
}

// Options bound the sampling space. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	MinPartitions, MaxPartitions int
	MinTasks, MaxTasks           int     // local tasks per partition
	MinUtil, MaxUtil             float64 // total Σ B_i/T_i target
	MinPeriodMS, MaxPeriodMS     int64   // partition period grid
	Servers                      []server.Policy
	Policies                     []policies.Kind
	Quantums                     []vtime.Duration
	MinHorizon, MaxHorizon       vtime.Duration
}

// DefaultOptions mirrors the scale of the paper's benchmark systems while
// covering all three budget-server policies and both TimeDice selection
// modes.
func DefaultOptions() Options {
	return Options{
		MinPartitions: 2,
		MaxPartitions: 6,
		MinTasks:      1,
		MaxTasks:      4,
		MinUtil:       0.30,
		MaxUtil:       0.85,
		MinPeriodMS:   5,
		MaxPeriodMS:   80,
		Servers:       []server.Policy{server.Polling, server.Deferrable, server.Sporadic},
		Policies:      []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW},
		Quantums:      []vtime.Duration{500 * vtime.Microsecond, vtime.Millisecond, 2 * vtime.Millisecond},
		MinHorizon:    200 * vtime.Millisecond,
		MaxHorizon:    500 * vtime.Millisecond,
	}
}

const (
	minBudget = 500 * vtime.Microsecond
	minWCET   = 50 * vtime.Microsecond
)

// Generate draws one scenario: a repaired, analytically certified system plus
// a random policy, quantum, simulation seed, and horizon from opts.
func Generate(r *rng.Rand, opts Options) Scenario {
	spec := GenerateSpec(r, opts)
	horizonSpan := int64(opts.MaxHorizon - opts.MinHorizon)
	horizon := opts.MinHorizon
	if horizonSpan > 0 {
		horizon += vtime.Duration(r.Int63n(horizonSpan + 1))
	}
	return Scenario{
		Spec:    spec,
		Policy:  opts.Policies[r.Intn(len(opts.Policies))],
		Quantum: opts.Quantums[r.Intn(len(opts.Quantums))],
		Seed:    r.Uint64(),
		Horizon: horizon,
	}
}

// GenerateSpec draws one system: partition budgets/periods via UUniFast,
// server policies, a priority order (rate-monotonic or Audsley's OPA), and
// per-partition task sets — then repairs it until it passes the conservative
// schedulability test with every task's universal WCRT bound inside its
// deadline. The result is guaranteed miss-free per check.GuaranteedMissFree.
func GenerateSpec(r *rng.Rand, opts Options) model.SystemSpec {
	for {
		spec := samplePartitions(r, opts)
		if !repairPartitions(&spec) {
			continue // pathological draw; resample
		}
		sampleTasks(r, opts, &spec)
		repairTasks(&spec)
		if check.GuaranteedMissFree(spec) {
			return spec
		}
	}
}

// samplePartitions draws the partition layer: count, total utilization split
// by UUniFast, periods on a millisecond grid, server policies, and a priority
// order.
func samplePartitions(r *rng.Rand, opts Options) model.SystemSpec {
	n := opts.MinPartitions + r.Intn(opts.MaxPartitions-opts.MinPartitions+1)
	total := opts.MinUtil + r.Float64()*(opts.MaxUtil-opts.MinUtil)
	utils := uuniFast(r, n, total)
	spec := model.SystemSpec{Name: "fuzz"}
	for i := 0; i < n; i++ {
		tms := opts.MinPeriodMS + r.Int63n(opts.MaxPeriodMS-opts.MinPeriodMS+1)
		T := vtime.MS(tms)
		B := vtime.FromFloatMS(utils[i] * float64(tms))
		if B < minBudget {
			B = minBudget
		}
		if B > T {
			B = T
		}
		spec.Partitions = append(spec.Partitions, model.PartitionSpec{
			Name:   fmt.Sprintf("P%d", i+1),
			Period: T,
			Budget: B,
			Server: opts.Servers[r.Intn(len(opts.Servers))],
		})
	}
	// Priority order: rate-monotonic, or Audsley's OPA on the raw draw.
	sortRM(spec.Partitions)
	if r.Bool(0.5) {
		if order, err := analysis.AssignPriorities(spec); err == nil {
			if re, err := analysis.Reorder(spec, order); err == nil {
				spec = re
			}
		}
	}
	return spec
}

func sortRM(ps []model.PartitionSpec) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Period < ps[j-1].Period; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// repairPartitions shrinks budgets (and ultimately drops the lowest-priority
// partition) until the system passes the conservative schedulability test.
// It reports false if no usable system remains.
func repairPartitions(spec *model.SystemSpec) bool {
	for iter := 0; iter < 256; iter++ {
		if analysis.SystemSchedulableConservative(*spec) {
			return true
		}
		shrunk := false
		for i := range spec.Partitions {
			p := &spec.Partitions[i]
			if p.Budget > minBudget {
				p.Budget = (p.Budget * 3 / 4).Max(minBudget)
				shrunk = true
			}
		}
		if !shrunk {
			if len(spec.Partitions) <= 1 {
				return false
			}
			spec.Partitions = spec.Partitions[:len(spec.Partitions)-1]
		}
	}
	return false
}

// sampleTasks fills each partition with local tasks. Tasks are either aligned
// (period an integer multiple of the partition period, zero offset — the
// critical-instant shape of the WCRT analyses) or free-phase (arbitrary
// period in [4T, 32T] with a random offset, exercising mid-period arrivals);
// local WCETs split a fraction of the partition's bandwidth via UUniFast.
func sampleTasks(r *rng.Rand, opts Options, spec *model.SystemSpec) {
	alignedMults := []int64{2, 3, 4, 6, 8, 16}
	for pi := range spec.Partitions {
		p := &spec.Partitions[pi]
		m := opts.MinTasks + r.Intn(opts.MaxTasks-opts.MinTasks+1)
		if m == 0 {
			continue
		}
		bw := float64(p.Budget) / float64(p.Period)
		target := (0.3 + 0.55*r.Float64()) * bw
		utils := uuniFast(r, m, target)
		for j := 0; j < m; j++ {
			var period vtime.Duration
			var offset vtime.Duration
			if r.Bool(0.6) { // aligned
				period = vtime.Duration(alignedMults[r.Intn(len(alignedMults))]) * p.Period
			} else { // free phase
				period = vtime.Duration(math.Round(float64(p.Period) * (4 + 28*r.Float64())))
				offset = vtime.Duration(r.Int63n(int64(period)))
			}
			wcet := vtime.Duration(utils[j] * float64(period))
			if wcet < minWCET {
				wcet = minWCET
			}
			if wcet > period/2 {
				wcet = period / 2
			}
			p.Tasks = append(p.Tasks, model.TaskSpec{
				Name:   fmt.Sprintf("t%d.%d", pi+1, j+1),
				Period: period,
				WCET:   wcet,
				Offset: offset,
			})
		}
		// Local priority: rate monotonic over the drawn periods.
		ts := p.Tasks
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j].Period < ts[j-1].Period; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		// Stable names after the sort.
		for j := range ts {
			ts[j].Name = fmt.Sprintf("t%d.%d", pi+1, j+1)
		}
	}
}

// repairTasks halves (and ultimately removes) task WCETs until every task's
// universal WCRT bound fits its deadline. The bound is modular — it depends
// only on the task's own partition — so repairs never invalidate other
// partitions. Tasks in sporadic partitions have no claimable bound (see
// check.UniversalBound); they are repaired against the same delayed-supply
// recurrence as a plausibility target so most runs stay miss-free, without
// any oracle arming on them.
func repairTasks(spec *model.SystemSpec) {
	for pi := range spec.Partitions {
		p := &spec.Partitions[pi]
		for rounds := 0; rounds < 128; rounds++ {
			fixed := true
			for tj := 0; tj < len(p.Tasks); {
				t := &p.Tasks[tj]
				d := t.Deadline
				if d == 0 {
					d = t.Period
				}
				b := check.UniversalBound(*spec, pi, tj)
				if b == analysis.Unschedulable && p.Server == server.Sporadic {
					b = analysis.WCRTTimeDiceDelayed(*spec, pi, tj, p.Period)
				}
				if b != analysis.Unschedulable && b <= d {
					tj++
					continue
				}
				fixed = false
				if t.WCET > minWCET {
					t.WCET = (t.WCET / 2).Max(minWCET)
					tj++
				} else {
					p.Tasks = append(p.Tasks[:tj], p.Tasks[tj+1:]...)
				}
			}
			if fixed {
				break
			}
		}
	}
}

// uuniFast draws n non-negative utilizations summing to total, uniformly over
// the simplex (Bini & Buttazzo).
func uuniFast(r *rng.Rand, n int, total float64) []float64 {
	out := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(r.Float64(), 1/float64(n-i-1))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
	return out
}
