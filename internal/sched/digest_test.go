package sched

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// decisionDigestWant is the FNV-64a digest of everything decisionDigest
// observes: every decision, error, booked queue clock, health state and
// counter, bit for bit. It was recorded on the scheduler whose policies
// each computed and booked their own windows.
const decisionDigestWant = 0x7f9dfe0fbd095e19

// digester hashes scheduler outputs.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func (g *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *digester) f64(v float64) { g.u64(math.Float64bits(v)) }

func (g *digester) boolean(b bool) {
	if b {
		g.u64(1)
	} else {
		g.u64(0)
	}
}

func (g *digester) decision(d Decision, err error) {
	if err != nil {
		g.h.Write([]byte(err.Error()))
		return
	}
	g.u64(uint64(d.Queue.Kind))
	g.u64(uint64(int64(d.Queue.Index)))
	g.f64(d.Deadline)
	g.f64(d.TransStart)
	g.f64(d.TransEnd)
	g.f64(d.Start)
	g.f64(d.End)
	g.boolean(d.MeetsDeadline)
}

// state hashes every queue clock, every partition's health and every
// counter.
func (g *digester) state(s *Scheduler) {
	g.f64(s.QueueClock(QueueRef{Kind: QueueCPU}))
	g.f64(s.QueueClock(QueueRef{Kind: QueueCPU, Index: -1}))
	for i := range s.cfg.GPUWidths {
		g.f64(s.QueueClock(QueueRef{Kind: QueueGPU, Index: i}))
		st, at := s.Health(i)
		g.u64(uint64(st))
		g.f64(at)
	}
	st := s.Stats()
	for _, v := range []int64{st.Submitted, st.ToCPU, st.Translated, st.PredictedLate,
		st.RejectedQueries, st.MaintenanceJobs, st.Resubmitted, st.PartitionFailures,
		st.Quarantines, st.Reprobes, st.FusedJobs, st.FusedMembers} {
		g.u64(uint64(v))
	}
	for _, v := range st.ToGPU {
		g.u64(uint64(v))
	}
	for _, v := range st.FusionFanIn {
		g.u64(uint64(v))
	}
}

// randEstimates draws one query's step-2 estimates: CPU-answerable,
// translated or GPU-only, with and without a link cost, with per-partition
// jitter or tied across partitions of one width.
func randEstimates(r *rand.Rand, widths []int) Estimates {
	est := Estimates{GPUSeconds: make([]float64, len(widths))}
	base := 0.005 + r.Float64()*0.4
	jitter := r.Intn(2) == 0 // without it, equal widths tie
	for i, w := range widths {
		est.GPUSeconds[i] = base / float64(w)
		if jitter {
			est.GPUSeconds[i] += r.Float64() * 0.01
		}
	}
	switch r.Intn(3) {
	case 0:
		est.CPUOK = true
		est.CPUSeconds = 0.002 + r.Float64()*0.5
	case 1:
		est.NeedsTranslation = true
		est.TransSeconds = r.Float64() * 0.05
	}
	if r.Intn(4) == 0 {
		est.LinkSeconds = r.Float64() * 0.02
	}
	return est
}

func randQueue(r *rand.Rand, n int) QueueRef {
	switch k := r.Intn(n + 3); {
	case k < n:
		return QueueRef{Kind: QueueGPU, Index: k}
	case k == n:
		return QueueRef{Kind: QueueCPU}
	case k == n+1:
		return QueueRef{Kind: QueueCPU, Index: -1}
	default:
		return QueueRef{Kind: QueueGPU, Index: n + 1} // out of range: ignored
	}
}

// digestStream drives one scheduler through a seeded stream of every
// entry point and hashes what each returns and the state it leaves.
func digestStream(t *testing.T, g *digester, s *Scheduler, r *rand.Rand, ops int) {
	t.Helper()
	widths := s.cfg.GPUWidths
	n := len(widths)
	now := 0.0
	for k := 0; k < ops; k++ {
		now += r.ExpFloat64() * 0.03
		switch op := r.Intn(20); {
		case op < 7:
			est := randEstimates(r, widths)
			switch r.Intn(60) {
			case 0:
				est.GPUSeconds = est.GPUSeconds[:0]
			case 1:
				est.CPUOK, est.NeedsTranslation = true, true
			}
			g.decision(s.Submit(now, est))
		case op < 9:
			g.decision(s.Resubmit(now, now+r.Float64()*s.cfg.DeadlineSeconds, randEstimates(r, widths)))
		case op < 10:
			members := make([]Estimates, 1+r.Intn(5))
			for i := range members {
				members[i] = randEstimates(r, widths)
				members[i].CPUOK, members[i].NeedsTranslation = false, false
			}
			g.decision(s.SubmitFused(now, now+r.Float64()*s.cfg.DeadlineSeconds, members))
		case op < 12:
			g.decision(s.Peek(now, randEstimates(r, widths)))
		case op < 14:
			s.Feedback(randQueue(r, n), (r.Float64()-0.5)*0.1, now)
		case op < 17 && n > 0:
			// Failures come in bursts on one partition so thresholds trip.
			ref := QueueRef{Kind: QueueGPU, Index: r.Intn(n)}
			for b := r.Intn(4); b >= 0; b-- {
				s.ReportFailure(ref, now)
			}
		case op < 19:
			s.ReportSuccess(randQueue(r, n))
		default:
			start, end := s.SubmitMaintenance(now, r.Float64()*0.06-0.01)
			g.f64(start)
			g.f64(end)
		}
		g.state(s)
	}
}

// decisionDigest runs every Policy × Placement × TranslationMode ×
// DisableFeedback through digestStream (with and without eviction, under
// a loose, a middling and a tight T_C), then a CPU-only scheduler with no
// GPU partitions, then PlanBatch's three flavors on healthy schedulers.
func decisionDigest(t *testing.T) uint64 {
	t.Helper()
	g := &digester{h: fnv.New64a()}
	widths := []int{1, 1, 2, 2, 4, 4}
	seed := int64(1)
	for p := PolicyPaper; p <= PolicyRoundRobin; p++ {
		for pl := PlaceSlowestFirst; pl <= PlaceRoundRobin; pl++ {
			for tm := TransDedicated; tm <= TransOnCPUQueue; tm++ {
				for _, fb := range []bool{false, true} {
					for _, deadline := range []float64{1.0, 0.25, 0.05} {
						s, err := New(Config{GPUWidths: widths, DeadlineSeconds: deadline,
							Policy: p, Placement: pl, Translation: tm, DisableFeedback: fb,
							ReprobeSeconds: 0.3})
						if err != nil {
							t.Fatal(err)
						}
						if seed%2 == 0 {
							s.health.SetEviction(3, 2)
						}
						digestStream(t, g, s, rand.New(rand.NewSource(seed)), 300)
						seed++
					}
				}
			}
		}
	}
	// A CPU-only scheduler with no GPU partitions at all.
	s, err := New(Config{DeadlineSeconds: 1, Policy: PolicyCPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	digestStream(t, g, s, rand.New(rand.NewSource(seed)), 300)

	for f := MinMin; f <= Sufferage; f++ {
		for _, tm := range []TranslationMode{TransDedicated, TransOnCPUQueue} {
			r := rand.New(rand.NewSource(int64(100 + 10*int(f) + int(tm))))
			s, err := New(Config{GPUWidths: widths, DeadlineSeconds: 0.5, Translation: tm})
			if err != nil {
				t.Fatal(err)
			}
			now := 0.0
			for round := 0; round < 8; round++ {
				now += r.Float64() * 0.2
				ests := make([]Estimates, 1+r.Intn(12))
				for i := range ests {
					ests[i] = randEstimates(r, widths)
					ests[i].LinkSeconds = 0
				}
				ds, err := s.PlanBatch(now, ests, f)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ds {
					g.decision(d, nil)
				}
				g.state(s)
				g.decision(s.Submit(now, randEstimates(r, widths)))
			}
		}
	}
	if s, err = New(Config{GPUWidths: widths, DeadlineSeconds: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = s.PlanBatch(0, []Estimates{randEstimates(rand.New(rand.NewSource(seed)), widths)}, Sufferage+1)
	g.decision(Decision{}, err)
	return g.h.Sum64()
}

// TestDecisionDigest pins every decision the scheduler makes across all
// policies, placements, translation modes and health timings.
func TestDecisionDigest(t *testing.T) {
	if got := decisionDigest(t); got != decisionDigestWant {
		t.Fatalf("decision digest %#x, want %#x: a placement, booking or counter changed",
			got, uint64(decisionDigestWant))
	}
}
