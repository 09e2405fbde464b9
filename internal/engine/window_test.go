package engine

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// raceEnabled is set by race_enabled_test.go under -race, where heap sizes
// and AllocsPerRun are not meaningful.
var raceEnabled = false

// TestServeSolitaryMissFiresAtOnce is the idle-close regression: with
// nobody else inside Serve, a GPU-bound miss must not sleep out
// FusionWindow — it runs at once as the fan-in-1 fused job it is.
func TestServeSolitaryMissFiresAtOnce(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = 200 * time.Millisecond
	})
	q := serveFamilyQuery(rand.New(rand.NewSource(5)), table.AggSum, 0)
	t0 := time.Now()
	out, err := s.Serve(q)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fused || out.FanIn != 1 {
		t.Fatalf("solitary miss should be a fused job of one: %+v", out)
	}
	if took >= 50*time.Millisecond {
		t.Fatalf("solitary miss took %v with a 200ms window: the leader waited for nobody", took)
	}
	if !resultBits(out.Result, faultFreeAt(t, s, q, out.Queue)) {
		t.Fatalf("wrong answer: %+v", out)
	}
}

// TestServeWindowCappedByDeadline pins the other bound on a leader's hold:
// with FusionWindow far beyond T_C and a partner that never arrives, the
// window closes when the member's slack (arrival + T_C − estimate) runs
// out — before the deadline, not after the window — and the fused booking
// carries the member's own deadline.
func TestServeWindowCappedByDeadline(t *testing.T) {
	const tc = 0.3
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = time.Minute
		spec.DeadlineSeconds = tc
	})

	// The hold itself, on a member whose estimates leave 0.1 s of slack.
	arrival := s.nowS()
	m := &fusionMember{
		req:      table.ScanRequest{Op: table.AggCount},
		est:      sched.Estimates{GPUSeconds: []float64{0.8, 0.8, 0.4, 0.4, 0.2, 0.2}},
		deadline: arrival + tc,
	}
	g, leader := s.joinWindow(s.pin(), m)
	if !leader {
		t.Fatal("first member of a key did not become the window's leader")
	}
	s.arriving.Add(1) // the partner that never arrives
	s.holdWindow(g)
	fired := s.nowS()
	s.arriving.Add(-1)
	if fired < arrival+tc-0.2 || fired >= arrival+tc {
		t.Fatalf("leader fired %.3fs after arrival; want within [%.1f, %.1f): slack spent, deadline ahead",
			fired-arrival, tc-0.2, tc)
	}
	// The booking is held to the member's arrival + T_C: fired with exactly
	// the fastest estimate left, it is late by the fused overhead ε. Against
	// a fresh now + T_C the same job would have met its deadline easily.
	s.executeFused(g)
	if st := s.Scheduler().Stats(); m.fallback || st.FusedJobs != 1 || st.PredictedLate != 1 {
		t.Fatalf("fused booking not held to the member's deadline: fallback %v, %+v", m.fallback, st)
	}

	// End to end: with the partner still missing, a Serve call returns
	// around T_C, not after the one-minute window.
	s.arriving.Add(1)
	t0 := time.Now()
	out, err := s.Serve(serveFamilyQuery(rand.New(rand.NewSource(5)), table.AggSum, 0))
	took := time.Since(t0).Seconds()
	s.arriving.Add(-1)
	if err != nil {
		t.Fatal(err)
	}
	if took < tc/2 || took > 20 {
		t.Fatalf("Serve took %.3fs holding for a partner; want about T_C = %.1fs", took, tc)
	}
	if !out.Fused || out.FanIn != 1 {
		t.Fatalf("outcome %+v", out)
	}
}

// TestServeCacheHitSkipsWindow pins what an exact cache hit may cost now
// that every Serve call is counted as arriving: no window lock (the hit
// completes while the test holds fusionMu) and one allocation per hit, the
// scan request's predicate slice.
func TestServeCacheHitSkipsWindow(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.Cache = true
	})
	q := serveFamilyQuery(rand.New(rand.NewSource(3)), table.AggSum, 0)
	if _, err := s.Serve(q); err != nil {
		t.Fatal(err)
	}
	s.fusionMu.Lock()
	done := make(chan ServeOutcome, 1)
	go func() {
		out, _ := s.Serve(q)
		done <- out
	}()
	select {
	case out := <-done:
		if !out.CacheHit {
			t.Errorf("repeat was not a cache hit: %+v", out)
		}
	case <-time.After(10 * time.Second):
		t.Error("a cache hit blocked on fusionMu")
	}
	s.fusionMu.Unlock()

	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	const hitAllocs = 1
	if got := testing.AllocsPerRun(200, func() { _, _ = s.Serve(q) }); got > hitAllocs {
		t.Fatalf("cache hit allocates %v times, want at most %d", got, hitAllocs)
	}
}

// TestServeBypassIsInline pins what the attempt loop is: one procedure on
// the caller's goroutine. A cube-answerable Serve — the bypass — allocates
// no more than 30 times (58 through the per-call worker mesh it replaced)
// and leaves no goroutine behind, and the same query books and reports
// identically whichever shape brings it to the loop.
func TestServeBypassIsInline(t *testing.T) {
	q := &query.Query{
		Conditions: []query.Condition{{Dim: 0, Level: 1, From: 2, To: 9}},
		Op:         table.AggSum,
	}
	fresh := func() *System {
		return testSystem(t, func(spec *SetupSpec) { spec.Fusion = true })
	}

	s := fresh()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		out, err := s.Serve(q)
		if err != nil || out.Queue.Kind != sched.QueueCPU || out.Fused || out.Attempts != 1 {
			t.Fatalf("serve %d is not a CPU bypass: %+v, %v", i, out, err)
		}
	}
	// The cube walk's own fork/join workers signal done before they exit:
	// give the last of them a moment, a leaked goroutine never goes away.
	for giveUp := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(giveUp); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 1000 bypasses, %d after", before, after)
	}
	if !raceEnabled { // allocation counts are not meaningful under -race
		if got := testing.AllocsPerRun(200, func() { _, _ = s.Serve(q) }); got > 30 {
			t.Fatalf("a CPU bypass allocates %v times, want <= 30", got)
		}
	}

	grouped := q.Clone()
	grouped.GroupBy = []query.GroupRef{{Dim: 2, Level: 0}}
	entries := map[string]func(*System) error{
		"Serve":         func(s *System) error { _, err := s.Serve(q); return err },
		"Serve grouped": func(s *System) error { _, err := s.Serve(grouped); return err },
	}
	var first sched.Stats
	for name, enter := range entries {
		s := fresh()
		if err := enter(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := s.Scheduler().Stats()
		if st.Submitted != 1 || st.ToCPU != 1 || st.Resubmitted != 0 {
			t.Fatalf("%s: want one booking, on the CPU: %+v", name, st)
		}
		if first.Submitted == 0 {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			t.Fatalf("%s left %+v, another shape %+v", name, st, first)
		}
		if tq := s.Scheduler().QueueClock(sched.QueueRef{Kind: sched.QueueCPU}); tq > s.nowS() {
			t.Fatalf("%s returned with the CPU queue booked %.6fs ahead of the clock", name, tq-s.nowS())
		}
	}
}

// TestServeHeapNoHigherThanParent guards the system's own heap: Setup at
// 50K rows plus 10 000 unique GPU-bound serves (cache full and evicting)
// must leave no more live heap than the parent commit did under this same
// test body — 5.29 MB there (4.22 after Setup), 5.15 MB here (4.09: the
// preallocated table carries no spare column capacity).
func TestServeHeapNoHigherThanParent(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	const parentMB = 5.288
	liveMB := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	before := liveMB() // whatever earlier tests left behind
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Rows = 50_000
		spec.Fusion = true
		spec.Cache = true
	})
	rng := rand.New(rand.NewSource(3))
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg}
	for i := 0; i < 10_000; i++ {
		if _, err := s.Serve(serveFamilyQuery(rng, ops[i%len(ops)], i%2)); err != nil {
			t.Fatal(err)
		}
	}
	mb := liveMB() - before
	runtime.KeepAlive(s)
	t.Logf("Setup + 10 000 serves hold %.3f MB (parent %.3f MB)", mb, parentMB)
	if mb > parentMB {
		t.Fatalf("system heap %.3f MB is above the parent's %.3f MB", mb, parentMB)
	}
}

// TestOneClockQueuesDrain is the time-base regression: Serve books and
// reports scalar and grouped queries on the one system clock, so 3000
// sequential queries at a 50 ms deadline never see a queue that failed to
// drain — none is predicted late, and once idle no T_Q lies in the future.
func TestOneClockQueuesDrain(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.DeadlineSeconds = 0.05
		spec.Fusion = true
	})
	gen := testGen(t, s, 9, 0.3)
	for i := 0; i < 3000; i++ {
		q := gen.Next()
		if i%3 == 0 {
			q.GroupBy = []query.GroupRef{{Dim: 2, Level: 0}}
		}
		if _, err := s.Serve(q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	st := s.scheduler.Stats()
	if st.PredictedLate != 0 || st.Submitted != 3000 {
		t.Fatalf("%d of %d bookings predicted late: %+v", st.PredictedLate, st.Submitted, st)
	}
	now := s.nowS()
	refs := []sched.QueueRef{{Kind: sched.QueueCPU}, {Kind: sched.QueueCPU, Index: -1}}
	for i := range s.widths {
		refs = append(refs, sched.QueueRef{Kind: sched.QueueGPU, Index: i})
	}
	for _, ref := range refs {
		if tq := s.scheduler.QueueClock(ref); tq > now {
			t.Errorf("idle system: T_Q of %v (index %d) is %.6fs, %.6fs ahead of the clock",
				ref, ref.Index, tq, tq-now)
		}
	}
}
