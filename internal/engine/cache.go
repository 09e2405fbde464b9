package engine

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hybridolap/internal/gpusim"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// The result cache: epoch + predicate-interval keyed answers for the
// high-QPS serving path. Two hit kinds:
//
//   - exact: the same translated request (canonical predicate order) at
//     the cache's epoch replays the stored result verbatim — bit-for-bit
//     the answer the producing execution computed, for any op;
//   - subsumption: a request whose per-column intervals are contained in a
//     cached entry's intervals is folded from the entry's per-cell
//     aggregates. Served ONLY for count/min/max: their folds are exact
//     (integer addition / selection), so the folded answer is bit-identical
//     to running the narrowed query unfused. Sum/avg are exact-match only
//     (table.CellShape says why): their cell folds would be exact integer
//     units too.
//
// The cache owns one epoch at a time and CARRIES its entries to the next.
// Ingest only appends and compaction preserves logical row order, so the
// rows of epoch n are a prefix of the rows of every later epoch: the first
// lookup or store that pins a newer snapshot advances the cache by scanning
// only the tail rows [rows of the owned epoch, rows of the new one) — one
// bound plan per fusion key, every carried entry a member — into a
// copy-on-write successor of each entry:
//
//   - every entry, whatever its op and whichever route answered it (a fused
//     or solo GPU scan, a cube walk), stores the unfinalised partial its
//     result was finalised from, and its successor's partial is
//     Merge(entry partial, tail partial): partials are exact integer units,
//     so a count, sum or avg over prefix ++ tail is the integer sum of the
//     two sides and a min/max the selection between them, whatever order
//     either side was scanned in;
//   - an anchor also merges the tail's cells into its plane; a plain
//     count/min/max entry that a carried anchor contains is not carried (a
//     fold answers it anyway).
//
// Bit-identity: a carried entry holds exactly the bits a
// from-scratch execution at the new epoch would store. A compaction-only
// epoch has an empty tail and re-stamps the entries for free. The tail is
// found by row range, never by stripe identity: a compaction may have
// merged old and new deltas into one stripe.
//
// An advance is single-flight and runs outside the mutex (entries are
// immutable but for their use stamps, which only c.mu holders touch;
// successors replace them): lookups pinned to the old epoch keep hitting
// while it runs, callers at the new epoch wait for it to land, and lookups
// for epochs older than the owned one miss without disturbing it. One
// advance scans at most carryBudget member-rows, so after a long idle gap
// it loses entries instead of stalling the lookup that found the gap. It
// picks in a fixed order until the budget is spent: the anchors, then the
// other entries most recently used (hit, folded from or stored) first — a
// burst of one-off stores cannot push the hot entries out.
//
// Eviction is FIFO within two classes. Plain entries are bounded by
// CacheMaxEntries and evicted only by plain stores; anchors are bounded by
// maxAnchors and evicted only by another anchor. An anchor is stored once
// and folded from ever after, a plain entry is one answer: under one bound
// CacheMaxEntries one-off answers push out the few entries that answer
// whole families (on dashboard_hot the subsumed share fell from 0.54 to
// 0.20 within ten seconds), under two they cannot.

// DefaultCacheMaxEntries bounds the cache when Config.CacheMaxEntries is
// zero.
const DefaultCacheMaxEntries = 4096

// maxAnchors bounds the cell-bearing entries: at most 16 planes of at most
// maxPlaneCells 16-byte cells, 16 MB. A dashboard has a handful of
// families; a seventeenth evicts the first.
const maxAnchors = 16

// carryBudget bounds the tail scan of one advance, in member-rows (carried
// entries × tail rows): about 15 ms of keyed accumulation at worst, paid by
// whichever lookup first sees the new epoch.
const carryBudget = 1 << 18

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits            int64 `json:"hits"` // exact-key hits
	Misses          int64 `json:"misses"`
	SubsumptionHits int64 `json:"subsumption_hits"`
	// An advance carries an entry (Carried) or loses it. A lost entry that
	// had been used — hit or folded from — since it was stored or last
	// carried counts as Dropped, one that had not as Expired (most are cut
	// by the carry budget). EpochInvalidations counts the epochs at which
	// the advance dropped at least one used entry.
	EpochInvalidations int64 `json:"epoch_invalidations"`
	Carried            int64 `json:"carried"`
	Dropped            int64 `json:"dropped"`
	Expired            int64 `json:"expired"`
	Stores             int64 `json:"stores"`
	Evictions          int64 `json:"evictions"`
}

// cacheInterval is one predicate's [from, to] code interval, canonical
// column order.
type cacheInterval struct{ from, to uint32 }

// cacheEntry is one cached answer, immutable once stored. It keeps no copy
// of its request: the key spells it out (requestOf), and at 4096 entries two
// 64-byte predicates apiece would weigh as much as the rest of the cache.
type cacheEntry struct {
	key    string
	op     table.AggOp
	result table.ScanResult
	// partial is what result was finalised from, and what an advance
	// merges the tail's partial into.
	partial table.ScanResult
	// queue is the placement that produced the stored bits, reported with
	// every hit. The bits do not depend on it: a cube walk and every GPU
	// partition fold the same integer units.
	queue sched.QueueRef
	// cells, when non-nil, makes the entry an anchor.
	cells *cellSet
	// last is the cache's use sequence number at the entry's last hit, fold
	// or store, and used whether one of the first two happened since it was
	// stored or carried: what an advance picks carriers by and counts losses
	// by. Written and read under the cache's mu only.
	last uint64
	used bool
}

// cellSet is what subsumption folds from: an anchor's signature, its own
// intervals in canonical column order, and its per-cell partials as a dense
// row-major plane over those intervals (the last column's codes are
// contiguous). A fold walks exactly the cells inside the request's box — no
// key to decode, none to skip — and an advance copies 16 bytes a cell.
type cellSet struct {
	sig   string
	ivals []cacheInterval
	vals  []table.ScanResult
}

// maxPlaneCells bounds one anchor's plane (1 MB): a request whose box of
// codes is larger caches exact-match only, and Serve asks no cell pass for
// it.
const maxPlaneCells = 1 << 16

// planeCells returns the number of cells in the box of a cell-shaped
// request's intervals, or 0 when the box is empty (an inverted interval) or
// exceeds maxPlaneCells.
func planeCells(ivals []cacheInterval) int {
	n := int64(1)
	for _, iv := range ivals {
		if iv.from > iv.to {
			return 0
		}
		if n *= int64(iv.to-iv.from) + 1; n > maxPlaneCells {
			return 0
		}
	}
	return int(n)
}

// at returns the plane position of the cell with the given codes, one per
// column, each inside the anchor's interval on that column.
func (cs *cellSet) at(codes []uint32) int {
	i := 0
	for c, iv := range cs.ivals {
		i = i*int(iv.to-iv.from+1) + int(codes[c]-iv.from)
	}
	return i
}

// add merges per-cell partials into the plane. A key packs one 16-bit code
// per column, first column highest; its codes lie inside the anchor's
// intervals because its rows passed the anchor's predicates.
func (cs *cellSet) add(op table.AggOp, cells table.Groups) {
	var codes [table.MaxGroupCols]uint32
	n := len(cs.ivals)
	for k, v := range cells {
		for c := n - 1; c >= 0; c-- {
			codes[c] = uint32(k & 0xFFFF)
			k >>= 16
		}
		i := cs.at(codes[:n])
		cs.vals[i] = table.Merge(op, cs.vals[i], v)
	}
}

// fold folds the cells inside the box `in`, which the anchor's intervals
// contain, in row-major order — exact for count/min/max, the only ops that
// reach it. An empty cell is the identity of every merge.
func (cs *cellSet) fold(op table.AggOp, in []cacheInterval) table.ScanResult {
	var acc table.ScanResult
	var codes [table.MaxGroupCols]uint32 // the odometer: the box's current row
	for c, iv := range in {
		if iv.from > iv.to {
			return acc // an inverted interval selects no cell
		}
		codes[c] = iv.from
	}
	last := len(in) - 1
	run := int(in[last].to-in[last].from) + 1 // the last column is contiguous
	for {
		from := cs.at(codes[:len(in)])
		for _, v := range cs.vals[from : from+run] {
			acc = table.Merge(op, acc, v)
		}
		c := last - 1
		for ; c >= 0 && codes[c] == in[c].to; c-- {
			codes[c] = in[c].from
		}
		if c < 0 {
			return acc
		}
		codes[c]++
	}
}

type resultCache struct {
	mu  sync.Mutex
	max int
	// epoch is the owned epoch: written under mu, read without it by the
	// hit path's is-there-a-newer-epoch check.
	epoch atomic.Uint64
	// rows is the owned epoch's row count whenever the cache holds an entry:
	// where the next advance's tail begins.
	rows    int
	entries map[string]*cacheEntry
	// The two eviction classes, each oldest first; every entry is in one.
	plain   []*cacheEntry // no cells: at most max
	anchors []*cacheEntry // cell-bearing: at most maxAnchors
	// advancing is non-nil while an advance is in flight, closed when it
	// lands.
	advancing chan struct{}
	// uses numbers hits, folds and stores (cacheEntry.last).
	uses  uint64
	stats CacheStats
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = DefaultCacheMaxEntries
	}
	return &resultCache{max: max, entries: make(map[string]*cacheEntry)}
}

// inlinePreds and keyBufLen size the stack buffers a lookup orders a
// request's predicates and builds its key in; a request past either (many
// predicates, long Or lists) spills to the heap.
const (
	inlinePreds = 8
	keyBufLen   = 256
)

// cacheKeys returns a request's two cache strings, what an entry keeps:
// see putKey.
func cacheKeys(req *table.ScanRequest, order []int) (sig, key string) {
	var buf [keyBufLen]byte
	k, sigLen := keyBytes(buf[:], req, order)
	key = string(k)
	return key[:sigLen], key
}

// keyBytes returns a request's exact key and its signature's length, built
// in buf when it fits and on the heap otherwise. A lookup passes a stack
// array: probing c.entries[string(key)] copies nothing.
func keyBytes(buf []byte, req *table.ScanRequest, order []int) (key []byte, sigLen int) {
	n, sigLen := putKey(buf, req, order)
	if n > len(buf) {
		buf = make([]byte, n)
		putKey(buf, req, order)
	}
	return buf[:n], sigLen
}

// putKey writes a request's exact key into buf as far as it fits and
// returns the key's whole length n (the key is buf[:n] when n <= len(buf))
// and the length of its prefix sig, the subsumption signature. sig is op,
// measure and the canonical column list — everything but the intervals —
// and the key extends it with every interval (and Or list) in canonical
// order: "op;measure;d<dim>.<level>;t<text>|from-to,from-to|from-to".
//
//olaplint:noalloc
func putKey(buf []byte, req *table.ScanRequest, order []int) (n, sigLen int) {
	w := keyWriter{buf: buf}
	w.putInt(int(req.Op))
	w.putByte(';')
	w.putInt(req.Measure)
	for _, pi := range order {
		p := &req.Predicates[pi]
		w.putByte(';')
		if p.Text {
			w.putByte('t')
			w.putInt(p.TextIndex)
		} else {
			w.putByte('d')
			w.putInt(p.Dim)
			w.putByte('.')
			w.putInt(p.Level)
		}
	}
	sigLen = w.n
	for _, pi := range order {
		p := &req.Predicates[pi]
		w.putByte('|')
		w.putRange(p.From, p.To)
		for _, r := range p.Or {
			w.putByte(',')
			w.putRange(r.From, r.To)
		}
	}
	return w.n, sigLen
}

// keyWriter writes a key into buf while it fits, and counts every byte.
type keyWriter struct {
	buf []byte
	n   int
}

//olaplint:noalloc
func (w *keyWriter) putByte(c byte) {
	if w.n < len(w.buf) {
		w.buf[w.n] = c
	}
	w.n++
}

// putUint writes v in decimal.
//
//olaplint:noalloc
func (w *keyWriter) putUint(v uint64) {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + v%10)
		if v /= 10; v == 0 {
			break
		}
	}
	for _, c := range digits[i:] {
		w.putByte(c)
	}
}

// putInt writes v in decimal, as strconv.Itoa spells it.
//
//olaplint:noalloc
func (w *keyWriter) putInt(v int) {
	if v < 0 {
		w.putByte('-')
		w.putUint(uint64(-int64(v)))
		return
	}
	w.putUint(uint64(v))
}

//olaplint:noalloc
func (w *keyWriter) putRange(from, to uint32) {
	w.putUint(uint64(from))
	w.putByte('-')
	w.putUint(uint64(to))
}

// requestOf rebuilds the request a key was built from, predicates in
// canonical order: what an advance binds against the tail rows. ok is false
// for a string cacheKeys did not build.
func requestOf(key string) (req table.ScanRequest, ok bool) {
	ok = true
	num := func(s string) int {
		v, err := strconv.ParseUint(s, 10, 32)
		ok = ok && err == nil
		return int(v)
	}
	head, rest, _ := strings.Cut(key, "|")
	cols := strings.Split(head, ";")
	if len(cols) < 2 {
		return req, false
	}
	req.Op, req.Measure = table.AggOp(num(cols[0])), num(cols[1])
	if cols = cols[2:]; len(cols) == 0 {
		return req, ok && rest == ""
	}
	ivals := strings.Split(rest, "|")
	if len(ivals) != len(cols) {
		return req, false
	}
	req.Predicates = make([]table.RangePredicate, len(cols))
	for i, col := range cols {
		p := &req.Predicates[i]
		if text, isText := strings.CutPrefix(col, "t"); isText {
			p.Text, p.TextIndex = true, num(text)
		} else {
			dim, level, _ := strings.Cut(strings.TrimPrefix(col, "d"), ".")
			p.Dim, p.Level = num(dim), num(level)
		}
		for j, iv := range strings.Split(ivals[i], ",") {
			from, to, _ := strings.Cut(iv, "-")
			r := table.CodeRange{From: uint32(num(from)), To: uint32(num(to))}
			if j == 0 {
				p.From, p.To = r.From, r.To
			} else {
				p.Or = append(p.Or, r)
			}
		}
	}
	return req, ok
}

// cellIntervals returns a table.CellShape request's intervals in its
// cells' coordinate order. Whether a request can be served from (or can
// produce) per-cell aggregates is table.CellShape's call — the rule a plan
// member's cell grant follows too — and the cardinality gate lives in the
// table layer as well; the engine trusts the granted cells' presence.
// The intervals go into buf's storage when it has room.
func cellIntervals(req *table.ScanRequest, order []int, buf []cacheInterval) []cacheInterval {
	ivals := buf[:0]
	for _, pi := range order {
		ivals = append(ivals, cacheInterval{from: req.Predicates[pi].From, to: req.Predicates[pi].To})
	}
	return ivals
}

// cacheAnswer is one lookup's result.
type cacheAnswer struct {
	result   table.ScanResult
	queue    sched.QueueRef
	subsumed bool
}

// catchUp advances the cache until it owns snap's epoch or a newer one.
// Callers do not hold c.mu.
func (c *resultCache) catchUp(snap *table.Snapshot) {
	for snap.Epoch() > c.epoch.Load() {
		c.advance(snap)
	}
}

// advance carries the cache from the epoch it owns to snap's, or waits for
// the advance already in flight (whose target may differ: catchUp looks
// again). The tail scan and the cell merges run between the two critical
// sections, never inside one.
func (c *resultCache) advance(snap *table.Snapshot) {
	var landing, landed chan struct{}
	var from int
	var held []*cacheEntry
	var stamps []uint64
	c.mu.Lock()
	owned := snap.Epoch() <= c.epoch.Load()
	if !owned {
		if landing = c.advancing; landing == nil {
			landed = make(chan struct{})
			c.advancing = landed
			from = c.rows
			held = append(slices.Clone(c.anchors), c.plain...)
			stamps = make([]uint64, len(held))
			for i, e := range held {
				stamps[i] = e.last
			}
		}
	}
	c.mu.Unlock()
	if owned {
		return
	}
	if landing != nil {
		<-landing
		return
	}

	next := carry(snap, from, held, stamps)

	c.mu.Lock()
	c.plain, c.anchors = nil, nil
	c.entries = make(map[string]*cacheEntry, len(held))
	lostUsed := false
	for i, e := range held { // each class stays oldest first
		switch n := next[i]; {
		case n != nil:
			n.last, n.used = e.last, false
			c.entries[n.key] = n
			class, _ := c.classOf(n)
			*class = append(*class, n)
			c.stats.Carried++
		case e.used:
			c.stats.Dropped++
			lostUsed = true
		default:
			c.stats.Expired++
		}
	}
	if lostUsed {
		c.stats.EpochInvalidations++
	}
	c.epoch.Store(snap.Epoch())
	c.rows = snap.Rows()
	c.advancing = nil
	c.mu.Unlock()
	close(landed)
}

// anchorFor returns the first anchor a request with the given signature
// and cell intervals folds from, or nil.
func anchorFor(anchors []*cacheEntry, sig []byte, ivals []cacheInterval) *cacheEntry {
	for _, a := range anchors {
		if a.cells.sig == string(sig) && contains(a.cells.ivals, ivals) {
			return a
		}
	}
	return nil
}

// anchored reports whether some anchor contains the plain entry, so that a
// fold answers its request without it. A key is its signature, then '|' and
// the intervals of a request with predicates — which a cell-shaped one has —
// and no signature holds a '|': the prefix test is signature equality.
func anchored(anchors []*cacheEntry, e *cacheEntry) bool {
	for _, a := range anchors {
		if sig := a.cells.sig; len(e.key) <= len(sig) || e.key[len(sig)] != '|' || e.key[:len(sig)] != sig {
			continue
		}
		req, ok := requestOf(e.key)
		if !ok {
			return false
		}
		if order, ok := table.CellShape(&req, nil); ok && contains(a.cells.ivals, cellIntervals(&req, order, nil)) {
			return true
		}
	}
	return false
}

// carry returns, parallel to held (anchors first), the successors at
// snap's epoch of the entries that answer snap's first `from` rows: each
// carried entry's partial merged with its tail partial over the rows
// [from, snap.Rows()), nil for an entry lost. stamps[i] is held[i].last.
// Carriers are picked in a fixed order while they fit carryBudget — the
// anchors in held's order, then the other entries most recently used
// first — skipping a plain entry that a picked anchor contains.
func carry(snap *table.Snapshot, from int, held []*cacheEntry, stamps []uint64) []*cacheEntry {
	next := make([]*cacheEntry, len(held))
	tail := snap.Rows() - from
	room := len(held)
	if tail > 0 {
		room = min(room, carryBudget/tail)
	}
	order := make([]int, len(held))
	for i := range order {
		order[i] = i
	}
	nAnchors := 0
	for nAnchors < len(held) && held[nAnchors].cells != nil {
		nAnchors++
	}
	slices.SortStableFunc(order[nAnchors:], func(a, b int) int { return cmp.Compare(stamps[b], stamps[a]) })
	var anchors []*cacheEntry
	var picked []int
	for _, i := range order {
		if len(picked) == room {
			break
		}
		e := held[i]
		if e.cells == nil && anchored(anchors, e) {
			continue
		}
		if e.cells != nil {
			anchors = append(anchors, e)
		}
		picked = append(picked, i)
	}
	if tail == 0 {
		for _, i := range picked {
			next[i] = held[i]
		}
		return next
	}

	// One plan per fusion key: members of a plan must filter one column set.
	reqs := make(map[int]table.ScanRequest, len(picked))
	byKey := make(map[string][]int)
	for _, i := range picked {
		if req, ok := requestOf(held[i].key); ok {
			reqs[i] = req
			k := table.FusionKey(req)
			byKey[k] = append(byKey[k], i)
		}
	}
	for _, idx := range byKey {
		// Every carrier is a scalar member; an anchor is a second,
		// cell-granted one as well (the same request always is: one
		// schema), whose tail cells its plane merges.
		members := make([]table.Member, len(idx), 2*len(idx))
		cellsAt := make([]int, len(idx)) // an anchor's cell member; 0, a scalar member's place, for none
		for mi, i := range idx {
			members[mi] = table.Member{ScanRequest: reqs[i]}
			if held[i].cells != nil {
				cellsAt[mi] = len(members)
				members = append(members, table.Member{ScanRequest: reqs[i], Cells: true})
			}
		}
		states := make([]table.State, len(members))
		for mi, at := range cellsAt {
			if at > 0 {
				// Sized once: at most a cell per tail row, or the whole plane.
				states[at].Groups = make(table.Groups, min(tail, len(held[idx[mi]].cells.vals)))
			}
		}
		if err := scanTail(snap, from, members, states); err != nil {
			continue // the plan's members are lost; they re-enter by executing
		}
		for mi, i := range idx {
			scale := snap.Schema().MeasureScale(reqs[i].Measure)
			next[i] = held[i].successor(states[mi].Scalar, states[cellsAt[mi]].Groups, scale)
		}
	}
	return next
}

// scanTail accumulates snap's rows [from, snap.Rows()) into states, one per
// member, in one pass: one plan bound per stripe the tail touches.
func scanTail(snap *table.Snapshot, from int, members []table.Member, states []table.State) error {
	return snap.RowRange(from, snap.Rows(), func(_ int, t *table.FactTable, lo, hi int) error {
		pl, err := table.Bind(t, members)
		if err != nil {
			return err
		}
		return pl.RangeInto(lo, hi, states)
	})
}

// successor returns the entry carried over a tail: its partial merged with
// the tail's, its answer that partial's over a measure stored at scale and,
// for an anchor, its plane merged with the tail's cells. Built field by
// field: the use stamps are the cache's to set.
func (e *cacheEntry) successor(tail table.ScanResult, cells table.Groups, scale int) *cacheEntry {
	partial := table.Merge(e.op, e.partial, tail)
	n := &cacheEntry{key: e.key, op: e.op, result: table.Finalize(e.op, scale, partial), partial: partial, queue: e.queue}
	if e.cells != nil {
		plane := *e.cells
		plane.vals = slices.Clone(plane.vals)
		plane.add(e.op, cells)
		n.cells = &plane
	}
	return n
}

// tick returns the next use sequence number. Callers hold c.mu.
func (c *resultCache) tick() uint64 {
	c.uses++
	return c.uses
}

// use stamps an entry as just used (a hit or a fold). Callers hold c.mu.
func (c *resultCache) use(e *cacheEntry) { e.last, e.used = c.tick(), true }

// lookup serves a request at its pinned snapshot's epoch. Subsumption
// folds run OUTSIDE the cache mutex: entries are immutable once stored
// (eviction and advances only unlink them), so concurrent lookups fold in
// parallel instead of convoying every worker behind one fold.
//
// A hit allocates nothing: the order, the key and the fold's intervals are
// built in stack buffers (for up to inlinePreds predicates and keyBufLen
// key bytes), and the key is materialised as a string only by store.
func (c *resultCache) lookup(req *table.ScanRequest, snap *table.Snapshot) (cacheAnswer, bool) {
	var orderBuf [inlinePreds]int
	var keyBuf [keyBufLen]byte
	var ivalBuf [table.MaxGroupCols]cacheInterval
	order, cellShaped := table.CellShape(req, orderBuf[:])
	key, sigLen := keyBytes(keyBuf[:], req, order)
	c.catchUp(snap)
	var hit, donor *cacheEntry
	var ivals []cacheInterval
	c.mu.Lock()
	if snap.Epoch() != c.epoch.Load() {
		c.stats.Misses++
	} else if e, ok := c.entries[string(key)]; ok {
		c.stats.Hits++
		c.use(e)
		hit = e
	} else {
		if cellShaped && len(c.anchors) > 0 {
			ivals = cellIntervals(req, order, ivalBuf[:])
			donor = anchorFor(c.anchors, key[:sigLen], ivals)
		}
		if donor != nil {
			c.stats.SubsumptionHits++
			c.use(donor)
		} else {
			c.stats.Misses++
		}
	}
	c.mu.Unlock()
	if hit != nil {
		return cacheAnswer{result: hit.result, queue: hit.queue}, true
	}
	if donor == nil {
		return cacheAnswer{}, false
	}
	return cacheAnswer{
		result:   table.Finalize(req.Op, snap.Schema().MeasureScale(req.Measure), donor.cells.fold(req.Op, ivals)),
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

// store records an executed answer at its pinned snapshot's epoch: its
// result, its partial and, when the execution has them, its cells (an
// anchor). A store for any epoch but the owned one — or for the owned one
// while an advance is closing it — is dropped; an existing entry is kept
// (first stored wins: a later execution, on the CPU or any GPU partition,
// brings the same bits).
func (c *resultCache) store(req *table.ScanRequest, snap *table.Snapshot, ans gpusim.Answer, queue sched.QueueRef) {
	order, cellShaped := table.CellShape(req, nil)
	// Build the entry (including the plane) before taking the lock; a
	// stale-epoch or duplicate store wastes the work but never stalls
	// concurrent lookups.
	sig, key := cacheKeys(req, order)
	e := &cacheEntry{key: key, op: req.Op, result: ans.Result, partial: ans.Partial.Scalar, queue: queue}
	if cells := ans.Partial.Groups; cells != nil && cellShaped {
		ivals := cellIntervals(req, order, nil)
		if n := planeCells(ivals); n > 0 {
			e.cells = &cellSet{sig: sig, ivals: ivals, vals: make([]table.ScanResult, n)}
			e.cells.add(req.Op, cells)
		}
	}
	c.catchUp(snap)
	c.mu.Lock()
	defer c.mu.Unlock()
	if snap.Epoch() != c.epoch.Load() || c.advancing != nil {
		return
	}
	if _, ok := c.entries[e.key]; ok {
		return
	}
	c.rows = snap.Rows()
	e.last = c.tick()
	c.entries[e.key] = e
	class, bound := c.classOf(e)
	*class = append(*class, e)
	c.stats.Stores++
	for len(*class) > bound {
		delete(c.entries, (*class)[0].key)
		*class = (*class)[1:]
		c.stats.Evictions++
	}
}

// classOf returns the eviction class an entry belongs to and its bound.
func (c *resultCache) classOf(e *cacheEntry) (class *[]*cacheEntry, bound int) {
	if e.cells != nil {
		return &c.anchors, maxAnchors
	}
	return &c.plain, c.max
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
