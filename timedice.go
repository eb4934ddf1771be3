package timedice

import (
	"timedice/internal/analysis"
	"timedice/internal/blinder"
	"timedice/internal/core"
	"timedice/internal/covert"
	"timedice/internal/detect"
	"timedice/internal/engine"
	"timedice/internal/experiments"
	"timedice/internal/ml"
	"timedice/internal/model"
	"timedice/internal/multicore"
	"timedice/internal/policies"
	"timedice/internal/pubsub"
	"timedice/internal/rng"
	"timedice/internal/sched"
	"timedice/internal/server"
	"timedice/internal/stats"
	"timedice/internal/task"
	"timedice/internal/telemetry"
	"timedice/internal/trace"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// Time and Duration are the simulator's virtual time base: integer
// microseconds from the simulation start.
type (
	Time     = vtime.Time
	Duration = vtime.Duration
)

// Duration units.
const (
	Microsecond = vtime.Microsecond
	Millisecond = vtime.Millisecond
	Second      = vtime.Second
)

// MS and US build durations from milliseconds / microseconds.
func MS(ms int64) Duration { return vtime.MS(ms) }

// US builds a Duration from microseconds.
func US(us int64) Duration { return vtime.US(us) }

// System description types.
type (
	// SystemSpec declares a complete system: partitions in decreasing
	// priority order.
	SystemSpec = model.SystemSpec
	// PartitionSpec declares one partition (budget B, period T, task set).
	PartitionSpec = model.PartitionSpec
	// TaskSpec declares one sporadic task (period p, WCET e).
	TaskSpec = model.TaskSpec
	// Built is a realized system with handles to live tasks and schedulers.
	Built = model.Built
)

// TaskCompletion is delivered to local-scheduler completion callbacks
// (Built.Sched[name].OnComplete) for every finished job.
type TaskCompletion = task.Completion

// ServerPolicy selects the budget-server algorithm of a partition.
type ServerPolicy = server.Policy

// Budget-server policies.
const (
	// PollingServer discards idle budget (LITMUS^RT sporadic-polling
	// behaviour; the default).
	PollingServer = server.Polling
	// DeferrableServer retains unused budget until the end of the period.
	DeferrableServer = server.Deferrable
	// SporadicServer replenishes consumed chunks one period after use.
	SporadicServer = server.Sporadic
)

// Simulation types.
type (
	// System is the hierarchical-scheduling simulator.
	System = engine.System
	// Segment is one schedule-trace interval.
	Segment = engine.Segment
	// GlobalPolicy decides which partition runs at each decision point.
	GlobalPolicy = engine.GlobalPolicy
	// Recorder collects and renders schedule traces.
	Recorder = trace.Recorder
)

// PolicyKind names a global scheduling policy.
type PolicyKind = policies.Kind

// Global scheduling policies.
const (
	// NoRandom is the default fixed-priority scheduler.
	NoRandom = policies.NoRandom
	// TimeDiceU is TimeDice with uniform random selection.
	TimeDiceU = policies.TimeDiceU
	// TimeDiceW is TimeDice with weighted random selection (the paper's
	// default).
	TimeDiceW = policies.TimeDiceW
	// TDMA is the static-partitioning reference scheduler.
	TDMA = policies.TDMA
)

// TimeDicePolicy exposes the core randomized policy for direct use and
// inspection (per-decision statistics, custom quantum or selection mode).
type TimeDicePolicy = core.Policy

// NewTimeDicePolicy builds a TimeDice policy with options (see
// internal/core: WithQuantum, WithSelection, WithRand re-exported below).
var NewTimeDicePolicy = core.NewPolicy

// Policy options.
var (
	WithQuantum   = core.WithQuantum
	WithSelection = core.WithSelection
)

// Selection modes for TimeDice's Step 2.
const (
	SelectWeighted = core.SelectWeighted
	SelectUniform  = core.SelectUniform
)

// FixedPriority is the NoRandom policy value.
type FixedPriority = sched.FixedPriority

// SystemOption customizes NewSystem / NewBuiltSystem beyond the required
// (spec, policy, seed) triple.
type SystemOption func(*systemOptions)

type systemOptions struct {
	sink           telemetry.Sink
	quantum        Duration
	measureLatency bool
}

// WithTelemetry attaches a telemetry sink to the built system: every
// scheduling event (arrivals, dispatches, completions, deadline misses,
// budget depletion/replenishment, decisions, inversion windows, slices) is
// emitted as a structured TelemetryEvent. With no sink attached the engine
// pays only nil checks.
func WithTelemetry(sink TelemetrySink) SystemOption {
	return func(o *systemOptions) { o.sink = sink }
}

// WithPolicyQuantum overrides MIN_INV_SIZE for the TimeDice policies
// (default 1 ms).
func WithPolicyQuantum(q Duration) SystemOption {
	return func(o *systemOptions) { o.quantum = q }
}

// WithLatencyMeasurement turns on per-decision wall-clock latency
// measurement into Counters.PolicyLatency (a streaming quantile sketch).
func WithLatencyMeasurement() SystemOption {
	return func(o *systemOptions) { o.measureLatency = true }
}

// NewSystem builds spec and wires it to the policy kind with the given seed.
func NewSystem(spec SystemSpec, kind PolicyKind, seed uint64, opts ...SystemOption) (*System, error) {
	sys, _, err := NewBuiltSystem(spec, kind, seed, opts...)
	return sys, err
}

// NewBuiltSystem is NewSystem but also returns the Built handles so callers
// can instrument tasks (execution hooks, completion callbacks) before
// running.
func NewBuiltSystem(spec SystemSpec, kind PolicyKind, seed uint64, opts ...SystemOption) (*System, *Built, error) {
	var o systemOptions
	for _, opt := range opts {
		opt(&o)
	}
	built, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{Quantum: o.quantum})
	if err != nil {
		return nil, nil, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	if o.sink != nil {
		sys.AttachTelemetry(o.sink)
	}
	sys.MeasureLatency = o.measureLatency
	return sys, built, nil
}

// ReadSystem parses a JSON system specification (see internal/model for the
// schema; durations in milliseconds).
var ReadSystem = model.ReadSystem

// Workload constructors.
var (
	// TableI builds the paper's Table I benchmark (α budget fraction,
	// β WCET fraction).
	TableI = workload.TableI
	// TableIBase is Table I at α=16%, β=3% (80% utilization).
	TableIBase = workload.TableIBase
	// TableILight is the light-load variant (40% utilization).
	TableILight = workload.TableILight
	// Car is the Fig. 5 self-driving-car platform.
	Car = workload.Car
	// ThreePartition is the small Fig. 6 example.
	ThreePartition = workload.ThreePartition
	// ScaleSystem duplicates a system n× at constant total utilization.
	ScaleSystem = workload.Scale
)

// Analysis (§IV-B).
type AnalysisResult = analysis.TaskResult

var (
	// Analyze computes the analytic WCRT of every task under both
	// schedulers (the Table II "Anal." columns).
	Analyze = analysis.AnalyzeSystem
	// PartitionSchedulable tests Definition 1 for one partition.
	PartitionSchedulable = analysis.PartitionSchedulable
	// SystemSchedulable tests Definition 1 for every partition.
	SystemSchedulable = analysis.SystemSchedulable
	// WCRTNoRandom / WCRTTimeDice compute one task's analytic WCRT;
	// WCRTNoRandomDeferrable adds the deferrable back-to-back interference.
	WCRTNoRandom           = analysis.WCRTNoRandom
	WCRTTimeDice           = analysis.WCRTTimeDice
	WCRTNoRandomDeferrable = analysis.WCRTNoRandomDeferrable
	// SupplyBound / DemandBound / CompositionalSchedulable are the periodic
	// resource model's sbf/rbf machinery (Shin & Lee), whose supply bound is
	// exactly the TimeDice worst case.
	SupplyBound              = analysis.SupplyBound
	DemandBound              = analysis.DemandBound
	CompositionalSchedulable = analysis.CompositionalSchedulable
	// AssignPriorities finds a schedulable priority order (Audsley's OPA);
	// ReorderSystem applies it.
	AssignPriorities = analysis.AssignPriorities
	ReorderSystem    = analysis.Reorder
)

// Covert channel (§III).
type (
	// ChannelConfig describes a covert-channel experiment.
	ChannelConfig = covert.Config
	// ChannelResult is its outcome (accuracies, capacity, distributions).
	ChannelResult = covert.Result
	// Observation is one monitoring window's receiver-side evidence.
	Observation = covert.Observation
)

// SenderStrategy selects the sender's modulation family.
type SenderStrategy = covert.SenderStrategy

// Sender modulation strategies.
const (
	// AmplitudeModulation scales how much budget each sender job consumes
	// (the paper's Fig. 3 scheme).
	AmplitudeModulation = covert.AmplitudeModulation
	// PulsePosition encodes the symbol in which sender job bursts.
	PulsePosition = covert.PulsePosition
)

// RunChannel executes a covert-channel experiment; optional trainers add
// learning-based (execution-vector) receivers.
var RunChannel = covert.Run

// CovertMessageConfig transmits a real payload over the channel (repetition
// code + interleaving); CovertMessageResult reports recovery and goodput.
type (
	CovertMessageConfig = covert.MessageConfig
	CovertMessageResult = covert.MessageResult
)

// SendCovertMessage profiles the channel and transmits the payload.
var SendCovertMessage = covert.SendMessage

// Learners for the execution-vector receiver.
type (
	// Trainer fits a binary classifier.
	Trainer = ml.Trainer
	// Classifier predicts labels for execution vectors.
	Classifier = ml.Classifier
	// SVM is the paper's RBF-kernel support vector machine.
	SVM = ml.SVM
	// LogReg is a logistic-regression baseline.
	LogReg = ml.LogReg
	// Forest is a random-forest learner.
	Forest = ml.Forest
	// KNN is a k-nearest-neighbors baseline.
	KNN = ml.KNN
	// NaiveBayes is a Bernoulli naive Bayes classifier for execution vectors.
	NaiveBayes = ml.NaiveBayes
	// Confusion is a binary confusion matrix with derived metrics.
	Confusion = ml.Confusion
)

// MLEvaluate fills a confusion matrix from a classifier's predictions.
var MLEvaluate = ml.Evaluate

// CrossValidate estimates a trainer's accuracy by k-fold cross validation.
var CrossValidate = ml.CrossValidate

// BLINDER baseline (§V-C).
type (
	// OrderChannelConfig parameterizes the Fig. 18 task-order channel.
	OrderChannelConfig = blinder.OrderChannelConfig
	// OrderChannelResult reports both decoders' accuracies.
	OrderChannelResult = blinder.OrderChannelResult
)

var (
	// BlinderTransform applies BLINDER's release quantization to one
	// partition of a built system.
	BlinderTransform = blinder.Transform
	// RunOrderChannel simulates the Fig. 18 scenario.
	RunOrderChannel = blinder.RunOrderChannel
)

// Experiments: one harness per table/figure of the paper (see DESIGN.md).
type ExperimentScale = experiments.Scale

var (
	// QuickScale and FullScale are preset experiment sizes.
	QuickScale = experiments.Quick
	FullScale  = experiments.Full

	Fig04      = experiments.Fig04
	Fig06      = experiments.Fig06
	Fig12      = experiments.Fig12
	Fig13      = experiments.Fig13
	Fig14      = experiments.Fig14
	Fig15      = experiments.Fig15
	Fig16      = experiments.Fig16
	Fig18      = experiments.Fig18
	Table02    = experiments.Table02
	Table03    = experiments.Table03
	Overhead   = experiments.Overhead
	CarChannel = experiments.CarChannel
	// Ablation sweeps quantum, server policy, selection mode, multi-bit
	// levels, and noise sensitivity.
	Ablation = experiments.Ablation
	// Rate sweeps the monitoring-window length and reports covert bits/s.
	Rate = experiments.Rate
	// Naive contrasts TimeDice with unprincipled randomization (budget
	// shortfalls).
	Naive = experiments.Naive
	// Randomness measures slot entropy and budget-exhaustion spread.
	Randomness = experiments.Randomness
	// UtilizationSweep extends the base/light loads to a curve.
	UtilizationSweep = experiments.UtilizationSweep
)

// Overt inter-partition communication (§II): an auditable OS-layer
// publish–subscribe service driven by job completions.
type (
	// Bus is the message broker.
	Bus = pubsub.Bus
	// BusMessage is one published datum; BusDelivery a received one.
	BusMessage  = pubsub.Message
	BusDelivery = pubsub.Delivery
)

// NewBus returns an empty overt-channel broker.
var NewBus = pubsub.NewBus

// Defender-side monitoring: flag covert senders from their per-period budget
// consumption (policy-invariant — see internal/detect).
type (
	// ConsumptionObserver records per-partition per-period CPU consumption.
	ConsumptionObserver = detect.ConsumptionObserver
	// SenderRanking is one partition's modulation score.
	SenderRanking = detect.Ranking
)

var (
	// NewConsumptionObserver builds the monitor for a system spec.
	NewConsumptionObserver = detect.NewConsumptionObserver
	// BimodalityScore scores a consumption series in [0,1].
	BimodalityScore = detect.BimodalityScore
)

// Multicore extension: partitioned multiprocessor scheduling.
type (
	// CoreAssignment maps partitions onto cores.
	CoreAssignment = multicore.Assignment
	// MulticoreSystem runs one hierarchical scheduler per core.
	MulticoreSystem = multicore.System
	// CrossCoreChannelConfig parameterizes the cross-core channel check.
	CrossCoreChannelConfig = multicore.ChannelConfig
)

var (
	// FirstFitDecreasing packs partitions onto cores by utilization.
	FirstFitDecreasing = multicore.FirstFitDecreasing
	// NewMulticore builds one engine per core from an assignment.
	NewMulticore = multicore.New
	// CrossCoreChannel measures the covert channel across a placement.
	CrossCoreChannel = multicore.Channel
)

// RunChannelSeeds aggregates a channel experiment over several seeds.
var RunChannelSeeds = covert.RunSeeds

// RunChannelSeedsParallel is RunChannelSeeds over a bounded worker pool.
var RunChannelSeedsParallel = covert.RunSeedsParallel

// ChannelAggregate is RunChannelSeeds' result.
type ChannelAggregate = covert.Aggregate

// Statistics helpers used by the harness outputs.
type (
	// Histogram is a fixed-width histogram.
	Histogram = stats.Histogram
	// BoxPlot is a five-number summary.
	BoxPlot = stats.BoxPlot
)

// Telemetry: the structured observability layer (see internal/telemetry for
// the event taxonomy and metrics catalogue).
type (
	// TelemetryEvent is one structured scheduler event.
	TelemetryEvent = telemetry.Event
	// TelemetryEventKind discriminates TelemetryEvent records.
	TelemetryEventKind = telemetry.Kind
	// TelemetrySink receives emitted events (attach via WithTelemetry or
	// System.AttachTelemetry).
	TelemetrySink = telemetry.Sink
	// TelemetryFunc adapts a function to a TelemetrySink.
	TelemetryFunc = telemetry.Func
	// TelemetryMulti fans events out to several sinks.
	TelemetryMulti = telemetry.Multi
	// TelemetryRecorder buffers the whole event stream in memory.
	TelemetryRecorder = telemetry.Recorder
	// TelemetrySummary is the roll-up Summarize computes from a stream.
	TelemetrySummary = telemetry.Summary
	// MetricsRegistry holds named counters, gauges, and streaming quantile
	// histograms with deterministic text/CSV dumps.
	MetricsRegistry = telemetry.Registry
	// MetricsHistogram is the registry's histogram: a bounded-memory
	// quantile sketch, exact up to 1024 samples and within 1% after that.
	MetricsHistogram = stats.Sketch
	// MetricsCollector aggregates the event stream into a MetricsRegistry.
	MetricsCollector = telemetry.Collector
)

// Telemetry event kinds.
const (
	EventTaskArrival     = telemetry.KindTaskArrival
	EventTaskStart       = telemetry.KindTaskStart
	EventTaskPreempt     = telemetry.KindTaskPreempt
	EventTaskComplete    = telemetry.KindTaskComplete
	EventDeadlineMiss    = telemetry.KindDeadlineMiss
	EventBudgetDeplete   = telemetry.KindBudgetDeplete
	EventBudgetReplenish = telemetry.KindBudgetReplenish
	EventDecision        = telemetry.KindDecision
	EventInversionOpen   = telemetry.KindInversionOpen
	EventInversionClose  = telemetry.KindInversionClose
	EventSlice           = telemetry.KindSlice
)

// Telemetry constructors and exporters.
var (
	// NewTelemetryRecorder returns an empty in-memory event recorder.
	NewTelemetryRecorder = telemetry.NewRecorder
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = telemetry.NewRegistry
	// NewMetricsCollector builds an event→metrics bridge for the given
	// partition names.
	NewMetricsCollector = telemetry.NewCollector
	// NewJSONLSink streams events to a writer as JSONL.
	NewJSONLSink = telemetry.NewJSONLSink
	// ReadEventJSONL parses a JSONL event log back into events.
	ReadEventJSONL = telemetry.ReadJSONL
	// WriteChromeTrace exports a recorded event stream as Chrome trace-event
	// JSON, loadable in Perfetto or chrome://tracing.
	WriteChromeTrace = telemetry.WriteChromeTrace
	// SummarizeEvents folds an event stream into a TelemetrySummary.
	SummarizeEvents = telemetry.Summarize
)

// NewRecorder records schedule segments overlapping [from, until).
func NewRecorder(from, until Time) *Recorder { return trace.NewRecorder(from, until) }

// RenderGantt renders a recorded trace as an ASCII Gantt chart.
func RenderGantt(r *Recorder, names []string, cell Duration) string {
	return r.Gantt(names, cell)
}
