// Package sched implements the paper's core contribution: the deadline-
// aware co-scheduling algorithm of Fig. 10 that places OLAP queries across
// one CPU processing partition, one CPU translation partition and six GPU
// partitions, plus the baseline policies it is compared against.
//
// The scheduler is deliberately pure control logic over virtual queue
// clocks (the T_Q parameters): it owns no threads and performs no I/O, so
// the same decisions drive both the discrete-event system model and the
// real goroutine-backed engine. Like the paper's single scheduler thread
// it serialises itself: every method that touches its state holds one
// lock, so concurrent Serve calls, a cluster coordinator and a /stats
// reader share a Scheduler with no lock of their own. A caller reads now
// before the lock, so a now may trail one already seen by microseconds;
// that is harmless, because a booking only raises a clock and a
// correction floors it at now.
//
// On the real path Settle closes every booking — Submit, Resubmit,
// SubmitFused, SubmitMaintenance — by the feedback rule of Sec. III-G, so
// once nothing is in flight Submitted + Resubmitted + MaintenanceJobs ==
// Settled. The virtual-clock runners feed back per event instead.
package sched

import (
	"fmt"
	"sync"

	"hybridolap/internal/sched/tq"
)

// QueueKind distinguishes the scheduler's target queues.
type QueueKind int

const (
	// QueueCPU is the OLAP-cube processing partition (Q_CPU).
	QueueCPU QueueKind = iota
	// QueueGPU is one of the GPU partitions (Q_G1..Q_G6).
	QueueGPU
)

// String names the kind.
func (k QueueKind) String() string {
	switch k {
	case QueueCPU:
		return "cpu"
	case QueueGPU:
		return "gpu"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// QueueRef identifies a target queue; Index is meaningful for GPU queues.
type QueueRef struct {
	Kind  QueueKind
	Index int
}

// String renders "cpu", "trans" (the translation partition, CPU index
// −1) or "gpu[i]". The GPU names of the first NamedGPUQueues partitions
// are spelled once, so naming a queue on the serving path builds no string.
func (q QueueRef) String() string {
	if q.Kind == QueueCPU {
		if q.Index == -1 {
			return "trans"
		}
		return "cpu"
	}
	if q.Index >= 0 && q.Index < NamedGPUQueues {
		return gpuQueueNames[q.Index]
	}
	return fmt.Sprintf("gpu[%d]", q.Index)
}

// NamedGPUQueues is how many GPU partition names are spelled ahead of
// time: the paper's layout has six partitions.
const NamedGPUQueues = 16

var gpuQueueNames = func() (names [NamedGPUQueues]string) {
	for i := range names {
		names[i] = fmt.Sprintf("gpu[%d]", i)
	}
	return names
}()

// Policy selects the scheduling algorithm.
type Policy int

const (
	// PolicyPaper is the Fig. 10 algorithm: deadline set P_BD, CPU
	// preference when it beats the fastest GPU partition, slowest-first
	// GPU placement, min-|slack| fallback.
	PolicyPaper Policy = iota
	// PolicyGPUOnly never uses the CPU processing partition (the paper's
	// "GPU accelerator only with disabled CPU processing" measurement).
	PolicyGPUOnly
	// PolicyCPUOnly only uses the CPU partition; queries the CPU cannot
	// answer are rejected (Tables 1 and 2 workloads are all CPU-able).
	PolicyCPUOnly
	// PolicyMCT is minimal completion time (Braun et al. [2]): pick the
	// partition with the earliest completion, deadline-blind.
	PolicyMCT
	// PolicyMET is minimal execution time (Siegel & Ali [15]): pick the
	// partition with the smallest service time, load-blind.
	PolicyMET
	// PolicyRoundRobin cycles over CPU and GPU queues, estimation-blind.
	PolicyRoundRobin
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyPaper:
		return "paper"
	case PolicyGPUOnly:
		return "gpu-only"
	case PolicyCPUOnly:
		return "cpu-only"
	case PolicyMCT:
		return "mct"
	case PolicyMET:
		return "met"
	case PolicyRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Placement orders the GPU queue scan within the Fig. 10 algorithm.
type Placement int

const (
	// PlaceSlowestFirst is the paper's strategy: "task the slower queues
	// first so that GPU has resources available for the computationally
	// expensive queries that might be submitted later".
	PlaceSlowestFirst Placement = iota
	// PlaceFastestFirst is the greedy inverse, for the ablation.
	PlaceFastestFirst
	// PlaceRoundRobin rotates the scan start, for the ablation.
	PlaceRoundRobin
)

// TranslationMode selects where text-to-integer translation runs.
type TranslationMode int

const (
	// TransDedicated is the paper's design: a separate CPU partition with
	// its own queue Q_TRANS; GPU jobs are gated on
	// max(T_Q|Gi, T_Q|TRANS + T_TRANS).
	TransDedicated TranslationMode = iota
	// TransOnCPUQueue is the ablation: translation serialises onto the CPU
	// processing queue, contending with cube aggregation.
	TransOnCPUQueue
)

// Config parameterises a Scheduler.
type Config struct {
	// GPUWidths lists the SM width of each GPU partition in queue order
	// Q_G1..Q_Gn, slow to fast (the paper uses [1,1,2,2,4,4]).
	GPUWidths []int
	// DeadlineSeconds is T_C, the per-query relative deadline.
	DeadlineSeconds float64
	// Policy selects the algorithm (default PolicyPaper).
	Policy Policy
	// Placement orders the GPU scan (default PlaceSlowestFirst).
	Placement Placement
	// Translation selects the translation partition design (default
	// TransDedicated).
	Translation TranslationMode
	// DisableFeedback turns off the measured-vs-estimated queue-clock
	// correction (Sec. III-G last paragraph); for the ablation.
	DisableFeedback bool
	// QuarantineThreshold is the number of consecutive failures that
	// quarantines a GPU partition (default 3).
	QuarantineThreshold int
	// ReprobeSeconds is how long (virtual time) a quarantined partition
	// sits out before one probe job may test it again (default 5).
	ReprobeSeconds float64
	// FusionEpsilonSeconds is ε, the marginal service cost of evaluating
	// one extra member predicate set during a shared scan (default
	// DefaultFusionEpsilonSeconds). A fused job of K members is booked at
	// max(members) + K·ε instead of sum(members).
	FusionEpsilonSeconds float64
}

// Estimates carries the per-query model outputs of step 2 of Fig. 10.
type Estimates struct {
	// CPUSeconds is T_CPU. Valid only when CPUOK.
	CPUSeconds float64
	// CPUOK reports whether the CPU partition can answer at all: the query
	// has no text predicates and a stored cube is fine enough.
	CPUOK bool
	// GPUSeconds[i] is T_GPU for GPU partition i (already resolved from
	// the partition's SM width).
	GPUSeconds []float64
	// TransSeconds is T_TRANS; zero when NeedsTranslation is false.
	TransSeconds float64
	// NeedsTranslation reports untranslated text predicates.
	NeedsTranslation bool
	// LinkSeconds is the simulated network transfer time to move this
	// query's inputs to the serving node — the cluster coordinator's link
	// cost (bytes moved x bandwidth + latency; zero on a single node or
	// when the data is already resident). submit folds it into every
	// partition's service estimate, so deadline feasibility and the booked
	// queue clocks both pay for the movement, exactly as the paper's
	// estimator pays for kernel time.
	LinkSeconds float64
}

// Decision is the scheduler's placement for one query.
type Decision struct {
	Queue QueueRef
	// Deadline is T_D = T_Q(submit) + T_C.
	Deadline float64
	// TransStart/TransEnd bound the translation job on its queue; zero
	// unless the query needed translation.
	TransStart, TransEnd float64
	// Start/End bound the processing job on the target queue. End is the
	// estimated response time T_R.
	Start, End float64
	// MeetsDeadline reports End <= Deadline at decision time (step 4).
	MeetsDeadline bool
}

// Outcome is what became of a booking's jobs, for Settle: how long the
// translation and the processing job took, whether the processing job ran
// at all (one behind a failed translation, or on a node that crashed at
// dispatch, did not: it took no time and blames no partition), and
// whether it failed.
type Outcome struct {
	TransSeconds, Seconds float64
	Ran, Failed           bool
}

// Stats aggregates decisions for reporting.
type Stats struct {
	Submitted       int64
	ToCPU           int64
	ToGPU           []int64 // per GPU queue
	Translated      int64
	PredictedLate   int64
	RejectedQueries int64
	// MaintenanceJobs counts background jobs (delta-stripe compaction)
	// booked on the CPU processing queue via SubmitMaintenance.
	MaintenanceJobs int64
	// Resubmitted counts failed jobs re-booked through Resubmit.
	Resubmitted int64
	// PartitionFailures counts failures reported against GPU partitions.
	PartitionFailures int64
	// Quarantines counts Healthy/Probation → Quarantined transitions.
	Quarantines int64
	// Reprobes counts successful probes (Probation → Healthy).
	Reprobes int64
	// FusedJobs counts fused submissions (each books ONE job for K
	// members); FusedMembers sums the K values; FusionFanIn histograms
	// them into the FanInBucketLabels buckets.
	FusedJobs    int64
	FusedMembers int64
	FusionFanIn  []int64
	// Settled counts Settle calls: one per booking (fused jobs count in
	// Submitted).
	Settled int64
}

// Scheduler applies the configured policy over the queue clocks it holds.
// It is safe for concurrent use: mu is the paper's single scheduler
// thread.
type Scheduler struct {
	mu  sync.Mutex
	cfg Config

	clocks tq.Clocks

	health *HealthTracker

	pick   pickFunc   // the policy's steps 4–6
	cand   candidates // scratch: the candidate set of the query being placed
	fused  []float64  // scratch: a fused job's combined GPU estimates
	rrNext int        // round-robin cursor (policy and placement variants)
	stats  Stats
}

// New validates the config and returns a scheduler with empty queues.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.GPUWidths) == 0 && cfg.Policy != PolicyCPUOnly {
		return nil, fmt.Errorf("sched: need at least one GPU partition")
	}
	for i, w := range cfg.GPUWidths {
		if w <= 0 {
			return nil, fmt.Errorf("sched: GPU partition %d has width %d", i, w)
		}
	}
	if cfg.DeadlineSeconds <= 0 {
		return nil, fmt.Errorf("sched: DeadlineSeconds must be positive")
	}
	s := &Scheduler{
		cfg:    cfg,
		clocks: tq.New(len(cfg.GPUWidths)),
		health: NewHealthTracker(len(cfg.GPUWidths), cfg.QuarantineThreshold, cfg.ReprobeSeconds),
		pick:   policyPick(cfg.Policy),
	}
	s.stats.ToGPU = make([]int64, len(cfg.GPUWidths))
	s.stats.FusionFanIn = make([]int64, len(FanInBucketLabels))
	return s, nil
}

// Config returns the scheduler's configuration, which never changes.
func (s *Scheduler) Config() Config { return s.cfg }

// Stats returns a snapshot of the counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.ToGPU = append([]int64(nil), s.stats.ToGPU...)
	out.FusionFanIn = append([]int64(nil), s.stats.FusionFanIn...)
	return out
}

// QueueClock returns the current drain estimate T_Q of a queue (for tests
// and telemetry). The translation queue is addressed as kind QueueCPU with
// index -1.
func (s *Scheduler) QueueClock(ref QueueRef) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clocks.Get(lane(ref))
}

// lane maps a queue reference to its clock lane.
func lane(ref QueueRef) tq.Lane {
	if ref.Kind == QueueCPU {
		if ref.Index == -1 {
			return tq.Trans
		}
		return tq.CPU
	}
	return tq.Lane(ref.Index)
}

// Feedback applies the paper's estimation correction: "the real processing
// time is compared with estimated processing time. The difference of these
// two times [is] used to update the value T_Q of the queue". delta is
// actual − estimated seconds; now clamps the clock. A GPU reference out
// of range is ignored. The virtual-clock runners call it; the real path
// settles.
func (s *Scheduler) Feedback(ref QueueRef, delta, now float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref.Kind == QueueGPU && (ref.Index < 0 || ref.Index >= len(s.cfg.GPUWidths)) {
		return
	}
	s.shift(lane(ref), delta, now)
}

// shift is the feedback correction of one lane, unless the ablation
// disabled it.
func (s *Scheduler) shift(l tq.Lane, delta, now float64) {
	if !s.cfg.DisableFeedback {
		s.clocks.Shift(l, delta, now)
	}
}

// SubmitMaintenance books a background maintenance job (delta-stripe
// compaction) of estSeconds on the CPU processing partition queue and
// returns the booking. Maintenance contends with query processing for the
// same cores, so it must advance T_Q|CPU like any query — otherwise every
// CPU placement made while a compaction runs would be optimistically
// wrong. The caller closes it with Settle, like a query.
func (s *Scheduler) SubmitMaintenance(now, estSeconds float64) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if estSeconds < 0 {
		estSeconds = 0
	}
	d := Decision{Queue: QueueRef{Kind: QueueCPU}, Start: s.clocks.Start(tq.CPU, now)}
	d.End = d.Start + estSeconds
	s.clocks.Book(tq.CPU, d.End)
	s.stats.MaintenanceJobs++
	return d
}

// Settle closes booking d at now. Each lane d booked (a positive TransEnd
// marks a translation window) moves by the time its job took minus the
// time booked for it — the paper's feedback step — so a job that never
// ran gives its whole window back. A GPU job that ran then reports
// partition health: a failure counts toward quarantine, a success ends a
// probation.
func (s *Scheduler) Settle(d Decision, now float64, o Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Settled++
	if d.TransEnd > 0 {
		s.shift(s.transLane(), o.TransSeconds-(d.TransEnd-d.TransStart), now)
	}
	s.shift(lane(d.Queue), o.Seconds-(d.End-d.Start), now)
	switch {
	case !o.Ran:
	case o.Failed:
		s.reportFailure(d.Queue, now)
	default:
		s.reportSuccess(d.Queue)
	}
}

// ErrUnanswerable is returned when the policy cannot place the query (for
// example PolicyCPUOnly with a GPU-only query).
var ErrUnanswerable = fmt.Errorf("sched: no partition can answer this query")
