package engine

import (
	"slices"
	"strconv"
	"time"

	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// Serve is the high-QPS serving path: one query in, one answer out. A
// scalar query consults the result cache first, and compatible concurrent
// GPU-bound scalar queries fuse into shared scans; a grouped query goes
// straight to the attempt loop.
//
//	GROUP BY → attempt loop (cube walk / grouped scan)
//	pin epoch → translate → cache lookup → estimate
//	  ├── CPU-answerable or fusion off → attempt loop (cube walk / solo scan)
//	  └── GPU-bound → fusion window → ONE fused job for K members
//
// A window closes once no other Serve call can still join it (a solitary
// miss runs at once, fan-in 1); FusionWindow, FusionMaxFanIn and the
// members' deadlines only bound the wait.
//
// Soundness is preserved at every turn: fused members get bit-identical
// answers to solo execution on any partition (gpusim's fused kernel pins
// this), cache hits replay stored execution bits or exact count/min/max
// folds, and a fused job failure sends every member through
// the deadline-aware attempt loop individually, so fusion never reduces
// fault tolerance. Whatever route answers, it answers the epoch pinned
// here.
type ServeOutcome struct {
	Result table.ScanResult
	// Groups holds a grouped query's rows, sorted by key; Result is then
	// zero.
	Groups []table.GroupRow
	// Queue is the placement that produced the answer (for cache hits,
	// the placement that produced the stored entry).
	Queue sched.QueueRef
	// Fused reports the answer came from a fused job of FanIn members.
	Fused bool
	FanIn int
	// CacheHit/Subsumed report a cache answer (exact / interval-subsumed).
	CacheHit bool
	Subsumed bool
	// Attempts counts real executions (0 for cache hits).
	Attempts int
	Latency  time.Duration
}

// fusionMember is one query waiting in a fusion window.
type fusionMember struct {
	// member is the query's scalar request; Cells asks the kernel for an
	// anchor's per-cell aggregates (wantCells).
	member table.Member
	est    sched.Estimates
	// deadline is the member's absolute T_D on the nowS clock: its arrival
	// at Serve + T_C, so window time is charged against T_C.
	deadline float64
	// out is filled by the window leader; fallback marks members that must
	// re-run individually (failed fused job or unplaceable booking).
	out      ServeOutcome
	fallback bool
}

// fusionGroup is one open fusion window: every member shares the pinned
// epoch and the predicate-column compatibility key.
type fusionGroup struct {
	key     string
	snap    *table.Snapshot
	members []*fusionMember
	// fireBy is the latest instant (nowS clock) the leader may hold the
	// window to: its opening + FusionWindow, capped by every member's
	// slack (T_D − its fastest-partition estimate). Guarded by fusionMu.
	fireBy float64
	wake   chan struct{} // buffered 1: tells the leader to re-check its hold
	done   chan struct{} // closed by the leader when outcomes are ready
	fired  bool          // no further joins; guarded by System.fusionMu
}

// nudge makes the leader re-evaluate its hold; a pending nudge suffices.
func (g *fusionGroup) nudge() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// nowS is the real path's one scheduler clock: seconds since system
// construction, the monotone origin every Submit, Feedback and health
// report of Serve and maintenance shares.
func (s *System) nowS() float64 { return time.Since(s.start).Seconds() }

// Serve answers one query through the serving path. Safe for concurrent
// use; concurrency is what fills fusion windows.
func (s *System) Serve(q0 *query.Query) (ServeOutcome, error) {
	started := time.Now()
	if q0.Grouped() {
		// No cache entry and no window, so it never counts as arriving:
		// priced with its grouping columns in C_QD, then the attempt loop.
		j, err := s.newJob(q0)
		if err != nil {
			return ServeOutcome{}, err
		}
		a, err := s.run(&j)
		return ServeOutcome{Groups: a.Groups, Queue: j.d.Queue, Attempts: j.attempts, Latency: time.Since(started)}, err
	}
	// This call may still join a window until it does, bypasses or
	// returns; leaders hold their windows only while such calls exist.
	s.arriving.Add(1)
	arriving := true
	settle := func() {
		if arriving {
			arriving = false
			s.settle()
		}
	}
	defer settle()
	q := q0
	if q.NeedsTranslation() {
		q = q0.Clone() // translation writes codes into its text conditions
	}
	snap := s.pin()

	// Translate before the window: fused members must already be integer
	// predicates. A dictionary fault here leaves the translation to the
	// attempt loop, which owns deadline-aware retries.
	if q.NeedsTranslation() && s.translate(q) != nil {
		est, err := s.Estimate(q)
		if err != nil {
			return ServeOutcome{}, err
		}
		settle()
		return s.serveAlone(q, snap, est, 0, started)
	}
	req, empty, err := q.ToScanRequest(s.cfg.Table.Schema())
	if err != nil {
		return ServeOutcome{}, err
	}
	if empty {
		// A predicate names a string no dictionary knows: no row can match
		// at any epoch, and translation was the only step that ran.
		return ServeOutcome{Queue: s.transQueue(), Latency: time.Since(started)}, nil
	}

	if s.cache != nil {
		if ans, ok := s.cache.lookup(&req, snap); ok {
			return ServeOutcome{
				Result: ans.result, Queue: ans.queue,
				CacheHit: true, Subsumed: ans.subsumed,
				Latency: time.Since(started),
			}, nil
		}
	}

	est, err := s.Estimate(q)
	if err != nil {
		return ServeOutcome{}, err
	}
	// CPU-answerable queries bypass the window: shared scans target the
	// GPU fact-table path, and the cube walk is already cheap.
	if !s.cfg.FusionEnabled || est.CPUOK {
		settle()
		return s.serveAlone(q, snap, est, 0, started)
	}

	m := &fusionMember{
		member: table.Member{ScanRequest: req, Cells: s.wantCells(&req)}, est: est,
		deadline: started.Sub(s.start).Seconds() + s.cfg.Sched.DeadlineSeconds,
	}
	g, leader := s.joinWindow(snap, m)
	settle()
	if leader {
		s.holdWindow(g)
		s.executeFused(g)
		close(g.done)
	} else {
		<-g.done
	}
	if m.fallback {
		// Fused booking or execution failed: this member retries alone,
		// re-booked against its own arrival + T_C — the window wait and the
		// failed scan are charged to it, not forgiven.
		return s.serveAlone(q, snap, est, m.deadline, started)
	}
	m.out.Latency = time.Since(started)
	return m.out, nil
}

// cellCoverageFloor gates per-cell accumulation to near-full-domain
// anchor queries: a cell pass costs a map insert per matching row (orders
// of magnitude above a plain scalar scan), so it is only paid for entries
// wide enough that nearly every future narrower query on the same columns
// can fold from them. Everything narrower caches exact-match only.
const cellCoverageFloor = 0.95

// wantCells reports whether Serve should ask the fused kernel for
// per-cell aggregates: the request must be subsumption-shaped, cover
// (nearly) its whole predicate domain — see cellCoverageFloor — and span a
// box of codes the cache keeps a plane for.
func (s *System) wantCells(req *table.ScanRequest) bool {
	if s.cache == nil {
		return false
	}
	order, ok := table.CellShape(req, nil)
	if !ok || planeCells(cellIntervals(req, order, nil)) == 0 {
		return false
	}
	sc := s.cfg.Table.Schema()
	coverage := 1.0
	for _, p := range req.Predicates {
		// The codes of [From, To] that exist: To past the level's last code
		// covers nothing more, and an inverted interval covers nothing.
		card := sc.LevelCardinality(p.Dim, p.Level)
		to := min(int64(p.To), int64(card)-1)
		if int64(p.From) > to {
			return false
		}
		coverage *= float64(to-int64(p.From)+1) / float64(card)
	}
	return coverage >= cellCoverageFloor
}

// serveAlone takes one query through the attempt loop (scheduling,
// feedback, retries included) and caches the answer under the epoch Serve
// pinned, which is the epoch the loop answered. A zero deadline is a first
// booking. The loop gets its own clone: its answer callbacks take the
// query to the heap, and Serve's copy — all a cache hit ever touches —
// stays on the stack.
func (s *System) serveAlone(q *query.Query, snap *table.Snapshot, est sched.Estimates, deadline float64, started time.Time) (ServeOutcome, error) {
	j := &job{q: q.Clone(), snap: snap, est: est, d: sched.Decision{Deadline: deadline}}
	a, err := s.run(j)
	out := ServeOutcome{
		Result: a.Result, Queue: j.d.Queue,
		Attempts: j.attempts, Latency: time.Since(started),
	}
	if err != nil || s.cache == nil {
		return out, err
	}
	// The loop has translated whatever Serve could not.
	if req, empty, err := j.q.ToScanRequest(s.cfg.Table.Schema()); err == nil && !empty {
		s.cache.store(&req, j.snap, a, j.d.Queue)
	}
	return out, nil
}

// settle ends a Serve call's time as a possible window partner. The last
// one out wakes the leaders holding a window for it; when no leader is
// holding — every cache hit, every solitary miss — it takes no lock.
func (s *System) settle() {
	if s.arriving.Add(-1) > 0 || s.holding.Load() == 0 {
		return
	}
	s.fusionMu.Lock()
	for _, g := range s.fusionGroups {
		g.nudge()
	}
	s.fusionMu.Unlock()
}

// holdWindow is the leader's wait, and closes the window when it ends. The
// window stays open only while some other Serve call is still arriving (a
// partner is microseconds away), and never past g.fireBy or FusionMaxFanIn;
// with nobody arriving it closes at once, without a timer. Everything that
// can end or shorten the hold — the last arrival settling, the window
// filling, a tighter member, the timer — is a nudge, after which the
// leader looks again. No nudge is lost: the leader publishes holding before
// it reads arriving, settle decrements arriving before it reads holding,
// so one sees the other.
func (s *System) holdWindow(g *fusionGroup) {
	s.holding.Add(1)
	defer s.holding.Add(-1)
	for left := s.holdLeft(g); left > 0; left = s.holdLeft(g) {
		timer := time.AfterFunc(time.Duration(left*float64(time.Second)), g.nudge)
		<-g.wake
		timer.Stop()
	}
}

// holdLeft is one look of holdWindow's under fusionMu: how long the leader
// may still hold g open, or 0 once it may not, in which case it has closed
// the window.
func (s *System) holdLeft(g *fusionGroup) float64 {
	s.fusionMu.Lock()
	defer s.fusionMu.Unlock()
	if s.arriving.Load() > 0 && !g.fired {
		if left := g.fireBy - s.nowS(); left > 0 {
			return left
		}
	}
	if !g.fired {
		g.fired = true
		delete(s.fusionGroups, g.key)
	}
	return 0
}

// joinWindow adds a member to the open window of its compatibility key,
// creating one (and making the caller its leader) when none is open.
func (s *System) joinWindow(snap *table.Snapshot, m *fusionMember) (*fusionGroup, bool) {
	key := strconv.FormatUint(snap.Epoch(), 10) + "/" + table.FusionKey(m.member.ScanRequest)
	fireBy := m.deadline - slices.Min(m.est.GPUSeconds)
	s.fusionMu.Lock()
	defer s.fusionMu.Unlock()
	if g, ok := s.fusionGroups[key]; ok && !g.fired {
		g.members = append(g.members, m)
		if fireBy < g.fireBy {
			g.fireBy = fireBy
			g.nudge() // the leader's timer is now too long
		}
		if len(g.members) >= s.cfg.FusionMaxFanIn {
			g.fired = true
			delete(s.fusionGroups, key)
			g.nudge()
		}
		return g, false
	}
	g := &fusionGroup{
		key: key, snap: snap,
		members: []*fusionMember{m},
		fireBy:  min(fireBy, s.nowS()+s.cfg.FusionWindow.Seconds()),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if s.cfg.FusionMaxFanIn <= 1 {
		g.fired = true // a window of one is full already
	} else {
		s.fusionGroups[key] = g
	}
	return g, true
}

// executeFused books and runs one window's members as a single fused GPU
// job, then distributes answers (or marks everyone for individual
// fallback — a fused failure must never fail a member outright).
//
// Identical members are coalesced first: a hot template arriving K times
// in one window executes ONCE, and every duplicate receives the same
// answer — trivially bit-identical (one execution, one set of bits), and
// the kernel refines each distinct predicate set once instead of K times.
func (s *System) executeFused(g *fusionGroup) {
	members := g.members
	rep := make([]int, len(members)) // member -> index into the unique set
	uniq := make(map[string]int, len(members))
	ests := make([]sched.Estimates, len(members))
	var kernel []table.Member       // the unique set
	deadline := members[0].deadline // the job's T_D is its earliest member's
	for i, m := range members {
		// The scheduler books the served fan-in (every member pays its ε);
		// the kernel runs the unique request set.
		ests[i] = m.est
		deadline = min(deadline, m.deadline)
		_, k := cacheKeys(&m.member.ScanRequest, table.CanonicalPredOrder(m.member.Predicates, nil))
		if ui, ok := uniq[k]; ok {
			rep[i] = ui
			kernel[ui].Cells = kernel[ui].Cells || m.member.Cells
			continue
		}
		uniq[k] = len(kernel)
		rep[i] = len(kernel)
		kernel = append(kernel, m.member)
	}
	s.schedMu.Lock()
	d, err := s.scheduler.SubmitFused(s.nowS(), deadline, ests)
	s.schedMu.Unlock()
	if err != nil {
		for _, m := range members {
			m.fallback = true
			s.fusionFallbacks.Add(1)
		}
		return
	}
	part := s.cfg.Device.Partitions()[d.Queue.Index]
	t0 := time.Now()
	answers, execErr := part.Execute(g.snap, kernel)
	act := time.Since(t0).Seconds()
	s.reportGPU(d.Queue, act-(d.End-d.Start), execErr)
	if execErr != nil {
		for _, m := range members {
			m.fallback = true
			s.fusionFallbacks.Add(1)
		}
		return
	}
	for i, m := range members {
		a := &answers[rep[i]]
		m.out = ServeOutcome{
			Result: a.Result, Queue: d.Queue,
			Fused: true, FanIn: len(members), Attempts: 1,
		}
	}
	if s.cache != nil {
		for ui := range kernel {
			s.cache.store(&kernel[ui].ScanRequest, g.snap, answers[ui], d.Queue)
		}
	}
}
