package engine

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// The result cache: epoch + predicate-interval keyed answers for the
// high-QPS serving path. Two hit kinds:
//
//   - exact: the same translated request (canonical predicate order) at
//     the cache's epoch replays the stored execution result verbatim —
//     bit-for-bit the answer the producing partition computed, for any op;
//   - subsumption: a request whose per-column intervals are contained in a
//     cached entry's intervals is folded from the entry's per-cell
//     aggregates. Served ONLY for count/min/max: their folds are exact
//     (integer addition / selection), so the folded answer is bit-identical
//     to running the narrowed query unfused. Sum/avg folds would replay
//     float additions in cell order instead of row order, so those ops are
//     exact-match only — soundness beats hit rate.
//
// The cache owns exactly one epoch: the first lookup or store that
// observes a newer pinned epoch wipes everything (ingest epoch publication
// is the invalidation signal); lookups for older epochs miss without
// wiping. Eviction is FIFO.

// DefaultCacheMaxEntries bounds the cache when Config.CacheMaxEntries is
// zero.
const DefaultCacheMaxEntries = 4096

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits               int64 // exact-key hits
	Misses             int64
	SubsumptionHits    int64
	EpochInvalidations int64
	Stores             int64
	Evictions          int64
}

// cacheInterval is one predicate's [from, to] code interval, canonical
// column order.
type cacheInterval struct{ from, to uint32 }

type cacheEntry struct {
	key    string
	sig    string
	op     table.AggOp
	result table.ScanResult
	// queue is the placement that produced the stored bits; differential
	// tests recompute on the same partition (unit cutting depends on SM
	// width, so sum/avg bits are partition-specific).
	queue sched.QueueRef
	// hasCells + ivals + keys + vals make the entry subsumption-servable:
	// per-cell partials keyed by packed predicate-column codes, and the
	// entry's own intervals in the same canonical order. The cells are laid
	// out as two aligned arrays sorted by key once at store time, so a fold
	// is a binary search plus a contiguous array scan — no per-cell map
	// lookup, no re-sort.
	hasCells bool
	ivals    []cacheInterval
	keys     []table.GroupKey
	vals     []table.ScanResult
}

type resultCache struct {
	mu      sync.Mutex
	max     int
	epoch   uint64
	entries map[string]*cacheEntry
	bySig   map[string][]*cacheEntry
	order   []string // FIFO eviction order
	stats   CacheStats
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = DefaultCacheMaxEntries
	}
	return &resultCache{
		max:     max,
		entries: make(map[string]*cacheEntry),
		bySig:   make(map[string][]*cacheEntry),
	}
}

// cacheSig is the subsumption signature: op, measure and the canonical
// column list — everything but the intervals.
func cacheSig(req *table.ScanRequest, order []int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(req.Op)))
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(req.Measure))
	for _, pi := range order {
		p := &req.Predicates[pi]
		b.WriteByte(';')
		if p.Text {
			b.WriteByte('t')
			b.WriteString(strconv.Itoa(p.TextIndex))
		} else {
			b.WriteByte('d')
			b.WriteString(strconv.Itoa(p.Dim))
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(p.Level))
		}
	}
	return b.String()
}

// cacheKey is the exact key: the signature plus every interval (and Or
// list) in canonical order.
func cacheKey(req *table.ScanRequest, order []int) string {
	var b strings.Builder
	b.WriteString(cacheSig(req, order))
	for _, pi := range order {
		p := &req.Predicates[pi]
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(p.From), 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatUint(uint64(p.To), 10))
		for _, r := range p.Or {
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(uint64(r.From), 10))
			b.WriteByte('-')
			b.WriteString(strconv.FormatUint(uint64(r.To), 10))
		}
	}
	return b.String()
}

// cellIntervals returns a table.CellShape request's intervals in its
// cells' coordinate order. Whether a request can be served from (or can
// produce) per-cell aggregates is table.CellShape's call — the rule a plan
// member's cell grant follows too — and the cardinality gate lives in the
// table layer as well; the engine trusts the granted cells' presence.
func cellIntervals(req *table.ScanRequest, order []int) []cacheInterval {
	ivals := make([]cacheInterval, len(order))
	for i, pi := range order {
		ivals[i] = cacheInterval{from: req.Predicates[pi].From, to: req.Predicates[pi].To}
	}
	return ivals
}

// cacheAnswer is one lookup's result.
type cacheAnswer struct {
	result   table.ScanResult
	queue    sched.QueueRef
	subsumed bool
}

// checkEpoch wipes the cache when a newer epoch is observed and reports
// whether the given epoch is current. Callers hold c.mu.
func (c *resultCache) checkEpoch(epoch uint64) bool {
	if epoch > c.epoch {
		if len(c.entries) > 0 {
			c.stats.EpochInvalidations++
		}
		c.entries = make(map[string]*cacheEntry)
		c.bySig = make(map[string][]*cacheEntry)
		c.order = c.order[:0]
		c.epoch = epoch
	}
	return epoch == c.epoch
}

// lookup serves a request at the given pinned epoch. Subsumption folds
// run OUTSIDE the cache mutex: entries are immutable once stored (eviction
// only unlinks them), so concurrent lookups fold in parallel instead of
// convoying every worker behind one fold.
func (c *resultCache) lookup(req *table.ScanRequest, epoch uint64) (cacheAnswer, bool) {
	order, cellShaped := table.CellShape(req)
	key := cacheKey(req, order)
	var donor *cacheEntry
	var ivals []cacheInterval
	c.mu.Lock()
	if !c.checkEpoch(epoch) {
		c.stats.Misses++
		c.mu.Unlock()
		return cacheAnswer{}, false
	}
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return cacheAnswer{result: e.result, queue: e.queue}, true
	}
	if cellShaped {
		iv := cellIntervals(req, order)
		for _, e := range c.bySig[cacheSig(req, order)] {
			if e.hasCells && contains(e.ivals, iv) {
				donor, ivals = e, iv
				c.stats.SubsumptionHits++
				break
			}
		}
	}
	if donor == nil {
		c.stats.Misses++
	}
	c.mu.Unlock()
	if donor == nil {
		return cacheAnswer{}, false
	}
	return cacheAnswer{
		result:   table.Finalize(req.Op, foldCellsWithin(req.Op, donor, ivals)),
		queue:    donor.queue,
		subsumed: true,
	}, true
}

// contains reports whether every inner interval lies within the
// corresponding outer interval.
func contains(outer, inner []cacheInterval) bool {
	if len(outer) != len(inner) {
		return false
	}
	for i := range inner {
		if inner[i].from < outer[i].from || inner[i].to > outer[i].to {
			return false
		}
	}
	return true
}

// foldCellsWithin folds the entry's cells whose coordinates fall inside
// ivals — exact for count/min/max, the only ops that reach it. The keys
// were sorted at store time; since the first coordinate occupies the high
// bits of the packed key, the candidates form one contiguous run that a
// binary search finds without touching the rest of the cell set.
func foldCellsWithin(op table.AggOp, e *cacheEntry, ivals []cacheInterval) table.ScanResult {
	n := len(ivals)
	headShift := uint(16 * (n - 1)) // first coordinate lives in the high bits
	lo := sort.Search(len(e.keys), func(i int) bool {
		return uint32(e.keys[i]>>headShift) >= ivals[0].from
	})
	var acc table.ScanResult
	for ki := lo; ki < len(e.keys); ki++ {
		k := e.keys[ki]
		if uint32(k>>headShift) > ivals[0].to {
			break
		}
		in := true
		for i := n - 1; i >= 1; i-- {
			c := uint32(k>>(uint(16*(n-1-i)))) & 0xFFFF
			if c < ivals[i].from || c > ivals[i].to {
				in = false
				break
			}
		}
		if in {
			acc = table.Merge(op, acc, e.vals[ki])
		}
	}
	return acc
}

// store records an executed answer at its pinned epoch. cells may be nil
// (exact-match-only entry). Stale-epoch stores are dropped; an existing
// entry is kept (first-stored bits win, so repeated executions on
// different partitions never flap a cached sum's bits).
func (c *resultCache) store(req *table.ScanRequest, epoch uint64, res table.ScanResult, cells table.Groups, queue sched.QueueRef) {
	order, cellShaped := table.CellShape(req)
	key := cacheKey(req, order)
	// Build the entry (including the potentially large key sort) before
	// taking the lock; a stale-epoch or duplicate store wastes the work but
	// never stalls concurrent lookups.
	e := &cacheEntry{key: key, op: req.Op, result: res, queue: queue}
	if cells != nil && cellShaped {
		e.hasCells = true
		e.ivals = cellIntervals(req, order)
		e.sig = cacheSig(req, order)
		e.keys = make([]table.GroupKey, 0, len(cells))
		for k := range cells {
			e.keys = append(e.keys, k)
		}
		sort.Slice(e.keys, func(i, j int) bool { return e.keys[i] < e.keys[j] })
		e.vals = make([]table.ScanResult, len(e.keys))
		for i, k := range e.keys {
			e.vals[i] = cells[k]
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.checkEpoch(epoch) {
		return
	}
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	if e.hasCells {
		c.bySig[e.sig] = append(c.bySig[e.sig], e)
	}
	c.stats.Stores++
	for len(c.entries) > c.max {
		victim := c.order[0]
		c.order = c.order[1:]
		v, ok := c.entries[victim]
		if !ok {
			continue
		}
		delete(c.entries, victim)
		if v.hasCells {
			peers := c.bySig[v.sig]
			for i, p := range peers {
				if p == v {
					c.bySig[v.sig] = append(peers[:i], peers[i+1:]...)
					break
				}
			}
			if len(c.bySig[v.sig]) == 0 {
				delete(c.bySig, v.sig)
			}
		}
		c.stats.Evictions++
	}
}

// snapshotStats copies the counters.
func (c *resultCache) snapshotStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CacheStats returns the result cache counters (zero when the cache is
// disabled).
func (s *System) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.snapshotStats()
}
