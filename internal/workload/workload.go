// Package workload provides the named system configurations used throughout
// the paper's evaluation: the Table I 5-partition benchmark (and its
// light-load, ×2 and ×4 variants), the 4-partition self-driving-car platform
// of Fig. 5, the 3-partition trace example of Fig. 6, and a seeded random
// task-set generator for property tests.
package workload

import (
	"fmt"
	"math"

	"timedice/internal/model"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

// Table I of the paper: partition replenishment periods 20..60 ms, task
// periods 2T..32T, with B_i = α·T_i and e_{i,j} = β·p_{i,j}.
// Defaults: α = 16% (base load, total partition utilization 80%) and β = 3%.
const (
	DefaultAlpha = 0.16
	DefaultBeta  = 0.03
	// LightAlpha is the paper's "light load" configuration: budgets (and
	// execution times in the covert-channel experiments) cut in half,
	// total utilization 40%.
	LightAlpha = 0.08
)

// tableIPeriodsMS are the partition replenishment periods T_i of Table I.
var tableIPeriodsMS = []int64{20, 30, 40, 50, 60}

// TableI builds the paper's Table I benchmark system: 5 partitions with
// T_i ∈ {20,30,40,50,60} ms, each with 5 tasks of periods {2,4,8,16,32}·T_i,
// budgets B_i = alpha·T_i, and WCETs e_{i,j} = beta·p_{i,j}. Partition and
// task priorities follow Rate Monotonic order as in the paper.
func TableI(alpha, beta float64) model.SystemSpec {
	spec := model.SystemSpec{Name: fmt.Sprintf("tableI(α=%.2f,β=%.2f)", alpha, beta)}
	for i, tms := range tableIPeriodsMS {
		T := vtime.MS(tms)
		p := model.PartitionSpec{
			Name:   fmt.Sprintf("P%d", i+1),
			Period: T,
			Budget: vtime.FromFloatMS(alpha * float64(tms)),
		}
		mult := int64(2)
		for j := 0; j < 5; j++ {
			period := vtime.Duration(mult) * T
			p.Tasks = append(p.Tasks, model.TaskSpec{
				Name:   fmt.Sprintf("t%d,%d", i+1, j+1),
				Period: period,
				WCET:   vtime.FromFloatMS(beta * period.Milliseconds()),
			})
			mult *= 2
		}
		spec.Partitions = append(spec.Partitions, p)
	}
	return spec
}

// TableIBase returns Table I with the default α=16%, β=3%.
func TableIBase() model.SystemSpec { return TableI(DefaultAlpha, DefaultBeta) }

// TableILight returns the light-load variant (α=8%, β=1.5%): "partition
// budgets and task execution times are cut by half" (§III-f).
func TableILight() model.SystemSpec { return TableI(LightAlpha, DefaultBeta/2) }

// Scale duplicates every partition of spec n times (n=2 → |Π|=10, n=4 →
// |Π|=20 for Table I), dividing budgets and task execution times by n so the
// total system utilization is unchanged, exactly as the paper's overhead
// evaluation does (§V-B3). Duplicates get distinct priorities in round-robin
// order of the originals.
func Scale(spec model.SystemSpec, n int) model.SystemSpec {
	if n <= 1 {
		return spec
	}
	out := model.SystemSpec{Name: fmt.Sprintf("%s x%d", spec.Name, n)}
	for copyIdx := 0; copyIdx < n; copyIdx++ {
		for pi, p := range spec.Partitions {
			np := model.PartitionSpec{
				Name:   fmt.Sprintf("%s.%d", p.Name, copyIdx+1),
				Period: p.Period,
				Budget: (p.Budget / vtime.Duration(n)).Max(vtime.Millisecond / 2),
				Server: p.Server,
			}
			for _, t := range p.Tasks {
				np.Tasks = append(np.Tasks, model.TaskSpec{
					Name:   t.Name,
					Period: t.Period,
					WCET:   (t.WCET / vtime.Duration(n)).Max(50 * vtime.Microsecond),
				})
			}
			_ = pi
			out.Partitions = append(out.Partitions, np)
		}
	}
	return out
}

// Car builds the 1/10th-scale self-driving car platform of Fig. 5:
//
//	Π1 behavior control      T=10ms B=1ms
//	Π2 vision-based steering T=20ms B=10ms
//	Π3 path planning         T=30ms B=3ms
//	Π4 data logging          T=50ms B=5ms
//
// Each partition runs one application task; the planner (sender) task uses a
// 50 ms period as in §III-e. The paper does not list task WCETs; ours are
// sized from the Table III response times (sub-millisecond planning work,
// vision work filling most of its generous budget). Because the application
// periods are not multiples of their partition periods, the partitions use
// deferrable servers — like the sporadic-polling server of the paper's
// implementation, they retain budget for arrivals that occur mid-period.
func Car() model.SystemSpec {
	return model.SystemSpec{
		Name: "car",
		Partitions: []model.PartitionSpec{
			{
				Name: "behavior", Period: vtime.MS(10), Budget: vtime.MS(1), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "control", Period: vtime.MS(20), WCET: vtime.FromFloatMS(0.9), Deadline: vtime.MS(20)}},
			},
			{
				Name: "vision", Period: vtime.MS(20), Budget: vtime.MS(10), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "steering", Period: vtime.MS(50), WCET: vtime.MS(18), Deadline: vtime.MS(50)}},
			},
			{
				Name: "planner", Period: vtime.MS(30), Budget: vtime.MS(3), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "plan", Period: vtime.MS(50), WCET: vtime.FromFloatMS(1.5), Deadline: vtime.MS(50)}},
			},
			{
				Name: "logger", Period: vtime.MS(50), Budget: vtime.MS(5), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "log", Period: vtime.MS(150), WCET: vtime.MS(8)}},
			},
		},
	}
}

// ThreePartition builds the small example used for the Fig. 6 schedule
// traces: three partitions with clearly visible budget windows. Each task
// demands a full budget every other replenishment period, which keeps every
// task analytically schedulable under both NoRandom and TimeDice.
func ThreePartition() model.SystemSpec {
	return model.SystemSpec{
		Name: "three",
		Partitions: []model.PartitionSpec{
			{
				Name: "P1", Period: vtime.MS(10), Budget: vtime.MS(2),
				Tasks: []model.TaskSpec{{Name: "t1", Period: vtime.MS(20), WCET: vtime.MS(2)}},
			},
			{
				Name: "P2", Period: vtime.MS(15), Budget: vtime.MS(4),
				Tasks: []model.TaskSpec{{Name: "t2", Period: vtime.MS(30), WCET: vtime.MS(4)}},
			},
			{
				Name: "P3", Period: vtime.MS(20), Budget: vtime.MS(6),
				Tasks: []model.TaskSpec{{Name: "t3", Period: vtime.MS(40), WCET: vtime.MS(6)}},
			},
		},
	}
}

// RandomOptions parameterizes the random task-set generator.
type RandomOptions struct {
	Partitions  int
	TasksPer    int
	TotalUtil   float64 // Σ B_i/T_i target
	MinPeriodMS int64
	MaxPeriodMS int64
}

// DefaultRandomOptions mirror the scale of the paper's benchmark systems.
func DefaultRandomOptions() RandomOptions {
	return RandomOptions{
		Partitions:  5,
		TasksPer:    3,
		TotalUtil:   0.6,
		MinPeriodMS: 10,
		MaxPeriodMS: 100,
	}
}

// Random generates a seeded random system: partition utilizations are drawn
// by the UUniFast algorithm (Bini & Buttazzo) so they sum to TotalUtil, and
// each partition's local tasks use harmonic-ish periods with WCETs filling a
// fraction of the budget. The result is always partition-schedulable when
// TotalUtil is feasible; callers should verify with analysis when pushing
// high utilizations.
func Random(r *rng.Rand, opts RandomOptions) model.SystemSpec {
	n := opts.Partitions
	utils := uuniFast(r, n, opts.TotalUtil)
	spec := model.SystemSpec{Name: "random"}
	for i := 0; i < n; i++ {
		tms := opts.MinPeriodMS + r.Int63n(opts.MaxPeriodMS-opts.MinPeriodMS+1)
		T := vtime.MS(tms)
		B := vtime.FromFloatMS(utils[i] * float64(tms))
		if B < vtime.FromFloatMS(0.5) {
			B = vtime.FromFloatMS(0.5)
		}
		p := model.PartitionSpec{
			Name:   fmt.Sprintf("R%d", i+1),
			Period: T,
			Budget: B,
		}
		// Local tasks: periods k·T for k in {2,4,8,...}, WCETs sized so the
		// local demand fits within the budget supply.
		mult := int64(2)
		for j := 0; j < opts.TasksPer; j++ {
			period := vtime.Duration(mult) * T
			wcet := (B * vtime.Duration(mult) / vtime.Duration(2*opts.TasksPer)).Max(100 * vtime.Microsecond)
			if wcet > period/4 {
				wcet = period / 4
			}
			p.Tasks = append(p.Tasks, model.TaskSpec{
				Name:   fmt.Sprintf("r%d,%d", i+1, j+1),
				Period: period,
				WCET:   wcet,
			})
			mult *= 2
		}
		spec.Partitions = append(spec.Partitions, p)
	}
	// Sort partitions rate-monotonically (shorter period = higher priority),
	// matching the paper's priority assignment.
	ps := spec.Partitions
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Period < ps[j-1].Period; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return spec
}

// uuniFast draws n utilizations summing to total, uniformly over the simplex.
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

// Dense builds an n-partition system with dense activity — the opposite pole
// from Sparse and the heavy-inversion shape that stresses the Algorithm-3
// decision kernel. All partitions share one replenishment period (growing
// with n so per-partition budgets stay ≈1.2 ms at 75% total supply
// utilization) and run one task each whose releases are staggered across the
// period and whose WCET fills half the budget. At steady state a large
// fraction of partitions simultaneously hold queued work and undrained
// budget, so candidate lists are long, nearly every decision walks deep into
// the priority order, and each level-h test charges O(h) interference
// streams — the case where the divisionless incremental fixpoint matters
// most. Demand utilization is 37.5%, so queues drain every period and the
// steady state stays allocation-free. BenchmarkEngineStepDense steps this
// system next to BenchmarkEngineStepScale's Sparse sweep.
func Dense(n int) model.SystemSpec {
	spec := model.SystemSpec{Name: fmt.Sprintf("dense-%d", n)}
	period := vtime.MS(100) * vtime.Duration((n+63)/64)
	budget := period * 3 / (4 * vtime.Duration(n))
	for i := 0; i < n; i++ {
		spec.Partitions = append(spec.Partitions, model.PartitionSpec{
			Name:   fmt.Sprintf("dense%d", i),
			Budget: budget, Period: period,
			Tasks: []model.TaskSpec{{
				Name:   "t",
				Period: period,
				WCET:   budget / 2,
				Offset: period * vtime.Duration(i) / vtime.Duration(n),
			}},
		})
	}
	return spec
}

// Sparse builds an n-partition system with sparse activity: the first three
// partitions run short-period (hot) workloads while the long tail wakes on
// second-scale periods, so between wake-ups almost every partition is
// quiescent. The cold periods fall in 97 classes, 1 s + (i%97)·11 ms, all
// with zero offset, so a class wakes together: each wake-up is a burst of
// about (n−3)/97 partitions released at one instant (42 at n=4096, 169 at
// n=16384; TestSparseReleaseBursts in internal/engine measures them). The
// cold tail's per-partition WCET shrinks with n (clamped to [20µs, 500µs])
// so the aggregate cold demand stays ≈8–20% of the CPU regardless of n —
// the work to do is constant while the partition universe grows, which is
// the worst case for per-step O(P) scans and lets the system reach a true
// allocation-free steady state even at P=16384 (a constant WCET would
// overload the CPU above P≈2900 and grow job queues without bound). For
// n ≤ 256 the clamp leaves the historical 500µs WCET unchanged. The scaling
// benchmarks (BenchmarkEngineStepScale) step this system at
// P ∈ {2, 8, 64, 256, 1024, 4096, 16384}.
func Sparse(n int) model.SystemSpec {
	spec := model.SystemSpec{Name: fmt.Sprintf("sparse-%d", n)}
	hot := 3
	if n < hot {
		hot = n
	}
	for i := 0; i < hot; i++ {
		spec.Partitions = append(spec.Partitions, model.PartitionSpec{
			Name:   fmt.Sprintf("hot%d", i),
			Budget: vtime.MS(2), Period: vtime.MS(20),
			Tasks: []model.TaskSpec{{Name: "t", Period: vtime.MS(20), WCET: vtime.MS(1)}},
		})
	}
	// Σ_cold WCET/period ≈ (500µs·256/n)·n / 1.5s is constant in n until the
	// 20µs floor binds (n ≳ 6400), after which it grows only to ~22% at 16384.
	wcet := 500 * vtime.Microsecond * 256 / vtime.Duration(n)
	if wcet > 500*vtime.Microsecond {
		wcet = 500 * vtime.Microsecond
	}
	if wcet < 20*vtime.Microsecond {
		wcet = 20 * vtime.Microsecond
	}
	for i := hot; i < n; i++ {
		// Second-scale periods in 97 classes: a cold partition wakes rarely,
		// and together with the rest of its class.
		period := vtime.Second + vtime.Duration(i%97)*vtime.MS(11)
		spec.Partitions = append(spec.Partitions, model.PartitionSpec{
			Name:   fmt.Sprintf("cold%d", i),
			Budget: vtime.MS(1), Period: period,
			Tasks: []model.TaskSpec{{Name: "t", Period: period, WCET: wcet}},
		})
	}
	return spec
}
