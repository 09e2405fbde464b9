package cube

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"hybridolap/internal/table"
)

// DefaultChunkSide is the per-dimension side of a chunk. The paper's [20]
// sizes chunks to the disk blocking factor; in memory we size them so a
// chunk (16^3 cells × 32 B = 128 KiB for 3 dims) streams well through the
// cache hierarchy.
const DefaultChunkSide = 16

// Cube is a dense array-based MOLAP cube at one resolution level, chunked
// into side^N tiles.
type Cube struct {
	level int   // scalar resolution level (paper Fig. 1)
	cards []int // cardinality per dimension at this level
	side  int   // chunk side
	grid  []int // chunks per dimension
	vol   int   // side^N, cells per chunk

	chunks []*chunk

	measure int   // fact-table measure index the cells aggregate
	filled  int64 // non-empty cells
	rows    int64 // fact rows aggregated into the cube
}

// Config controls cube construction.
type Config struct {
	// ChunkSide overrides DefaultChunkSide when > 0.
	ChunkSide int
	// Workers sets build parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Compress enables the 40% chunk-offset compression pass (on by
	// default through Build*; set by callers of newCube directly).
	Compress bool
	// Rng, when set, is the source of all pseudo-random draws made while
	// building (BuildSynthetic's fill pattern and aggregate values). When
	// nil, BuildSynthetic derives one from its seed argument, so the same
	// (geometry, fill, seed) triple always yields a bit-identical cube.
	// The global math/rand source is never used (enforced by the
	// seededrand analyzer): cube contents feed bandwidth benchmarks and
	// calibration tables that must be reproducible run-to-run.
	Rng *rand.Rand
}

// newCube allocates cube geometry with all chunks empty.
func newCube(level int, cards []int, side int) (*Cube, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("cube: no dimensions")
	}
	if side <= 0 {
		side = DefaultChunkSide
	}
	c := &Cube{level: level, cards: append([]int(nil), cards...), side: side}
	c.grid = make([]int, len(cards))
	nChunks := 1
	vol := 1
	for d, card := range cards {
		if card <= 0 {
			return nil, fmt.Errorf("cube: cardinality %d in dimension %d", card, d)
		}
		c.grid[d] = (card + side - 1) / side
		nChunks *= c.grid[d]
		vol *= side
	}
	c.vol = vol
	c.chunks = make([]*chunk, nChunks)
	return c, nil
}

// Level returns the cube's resolution level.
func (c *Cube) Level() int { return c.level }

// Measure returns the fact-table measure index the cube aggregates.
func (c *Cube) Measure() int { return c.measure }

// Cards returns the per-dimension cardinalities (do not modify).
func (c *Cube) Cards() []int { return c.cards }

// FilledCells returns the number of non-empty cells.
func (c *Cube) FilledCells() int64 { return c.filled }

// Rows returns the number of fact rows aggregated into the cube.
func (c *Cube) Rows() int64 { return c.rows }

// LogicalCells returns the total addressable cells (product of cards).
func (c *Cube) LogicalCells() int64 {
	n := int64(1)
	for _, card := range c.cards {
		n *= int64(card)
	}
	return n
}

// LogicalBytes returns the uncompressed cube size: LogicalCells × CellSize.
// This is the "cube size" axis of the paper's Figs. 1 and 3.
func (c *Cube) LogicalBytes() int64 { return c.LogicalCells() * CellSize }

// StorageBytes returns the actual in-memory footprint after compression.
func (c *Cube) StorageBytes() int64 {
	var n int64
	for _, ch := range c.chunks {
		n += ch.bytes()
	}
	return n
}

// FillFactor returns filled / logical cells.
func (c *Cube) FillFactor() float64 {
	lc := c.LogicalCells()
	if lc == 0 {
		return 0
	}
	return float64(c.filled) / float64(lc)
}

// chunkOf returns the chunk grid index and local offset for global coords.
func (c *Cube) chunkOf(coords []uint32) (chunkIdx int, localOff uint32) {
	for d, x := range coords {
		g := int(x) / c.side
		l := int(x) % c.side
		chunkIdx = chunkIdx*c.grid[d] + g
		localOff = localOff*uint32(c.side) + uint32(l)
	}
	return chunkIdx, localOff
}

// Get returns the cell at global coordinates (zero Cell when empty or out
// of range).
func (c *Cube) Get(coords []uint32) Cell {
	if len(coords) != len(c.cards) {
		return Cell{}
	}
	for d, x := range coords {
		if int(x) >= c.cards[d] {
			return Cell{}
		}
	}
	ci, off := c.chunkOf(coords)
	return c.chunks[ci].get(off)
}

// add folds a measure value into the cell at coords, allocating the dense
// chunk on demand (and decompressing if needed).
func (c *Cube) add(coords []uint32, v int32) {
	ci, off := c.chunkOf(coords)
	c.addAt(ci, off, v)
}

// addAt folds a measure value into the cell at (chunk, local offset).
func (c *Cube) addAt(ci int, off uint32, v int32) {
	ch := c.chunks[ci]
	if ch == nil || !ch.isDense() {
		ch = ch.decompress(c.vol)
		c.chunks[ci] = ch
	}
	cell := &ch.dense[off]
	if cell.Count == 0 {
		ch.filled++
		c.filled++
	}
	cell.add(v)
	c.rows++
}

// addrTerm is one finest code's share of a cube cell's address: the chunk
// grid index and the in-chunk offset are each a sum of one term per
// dimension.
type addrTerm struct{ chunk, off uint32 }

// addrTerms returns dimension d's terms indexed by finest code: the code
// rolled up to the cube's level by the fanout, then split by the chunk side
// and weighted by the dimension's row-major strides — chunkOf's div/mod
// and Horner steps, paid once per code instead of once per row.
func (c *Cube) addrTerms(finestCard, d int) []addrTerm {
	fanout := finestCard / c.cards[d]
	chunkStride, offStride := 1, 1
	for e := d + 1; e < len(c.cards); e++ {
		chunkStride *= c.grid[e]
		offStride *= c.side
	}
	terms := make([]addrTerm, finestCard)
	for x := range terms {
		y := x / fanout
		terms[x] = addrTerm{chunk: uint32(y / c.side * chunkStride), off: uint32(y % c.side * offStride)}
	}
	return terms
}

// compressAll applies the 40% rule to every chunk.
func (c *Cube) compressAll() {
	for i, ch := range c.chunks {
		c.chunks[i] = ch.compress()
	}
}

// mergeFrom folds another cube with identical geometry into c.
func (c *Cube) mergeFrom(o *Cube) error {
	if len(o.cards) != len(c.cards) || o.side != c.side {
		return fmt.Errorf("cube: merge geometry mismatch")
	}
	for d := range c.cards {
		if c.cards[d] != o.cards[d] {
			return fmt.Errorf("cube: merge cardinality mismatch in dimension %d", d)
		}
	}
	for i, och := range o.chunks {
		if och == nil {
			continue
		}
		ch := c.chunks[i]
		if ch == nil || !ch.isDense() {
			ch = ch.decompress(c.vol)
			c.chunks[i] = ch
		}
		fold := func(off uint32, cell Cell) {
			dst := &ch.dense[off]
			if dst.Count == 0 && cell.Count != 0 {
				ch.filled++
				c.filled++
			}
			dst.merge(cell)
		}
		if och.isDense() {
			for off, cell := range och.dense {
				if cell.Count != 0 {
					fold(uint32(off), cell)
				}
			}
		} else {
			for k, off := range och.offsets {
				fold(off, och.cells[k])
			}
		}
	}
	c.rows += o.rows
	return nil
}

// levelCards returns per-dimension cardinalities of a fact-table schema at
// scalar resolution level (clamped to each dimension's finest level).
func levelCards(s *table.Schema, level int) []int {
	cards := make([]int, len(s.Dimensions))
	for d, dim := range s.Dimensions {
		l := level
		if l > dim.Finest() {
			l = dim.Finest()
		}
		cards[d] = dim.Levels[l].Cardinality
	}
	return cards
}

// BuildFromTable aggregates a fact table into a cube at the given scalar
// resolution level, summing the named measure. Workers > 1 partitions the
// rows statically, builds partial cubes and merges them — the same
// fork/join shape as the paper's OpenMP build.
func BuildFromTable(ft *table.FactTable, level, measure int, cfg Config) (*Cube, error) {
	s := ft.Schema()
	if measure < 0 || measure >= len(s.Measures) {
		return nil, fmt.Errorf("cube: measure %d out of range", measure)
	}
	if level < 0 {
		return nil, fmt.Errorf("cube: negative level %d", level)
	}
	cards := levelCards(s, level)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ft.Rows() && ft.Rows() > 0 {
		workers = ft.Rows()
	}
	if workers < 1 {
		workers = 1
	}

	meas := ft.MeasureColumn(measure)
	buildPart := func(lo, hi int) (*Cube, error) {
		part, err := newCube(level, cards, cfg.ChunkSide)
		if err != nil {
			return nil, err
		}
		terms := make([][]addrTerm, len(cards))
		for d, dim := range s.Dimensions {
			terms[d] = part.addrTerms(dim.Levels[dim.Finest()].Cardinality, d)
		}
		// A batch of rows at a time: each dimension's stored finest codes
		// are read at their own width (AppendTo of a row view) and summed
		// into the rows' cell addresses, which then fold in row order. No
		// rolled-up column is made.
		var addr [4096]addrTerm
		codes := make([]uint32, 0, len(addr))
		for b := lo; b < hi; b += len(addr) {
			a := addr[:min(len(addr), hi-b)]
			clear(a)
			view, err := table.Slice(ft, b, b+len(a))
			if err != nil {
				return nil, err
			}
			for d, dim := range s.Dimensions {
				tm := terms[d]
				codes = view.DimLevelColumn(d, dim.Finest()).AppendTo(codes[:0])
				for i, x := range codes[:len(a)] {
					t := tm[x]
					a[i].chunk += t.chunk
					a[i].off += t.off
				}
			}
			for i, t := range a {
				part.addAt(int(t.chunk), t.off, meas[b+i])
			}
		}
		return part, nil
	}

	// Worker 0 always builds a part, empty when the table is, so the merge
	// starts from it.
	parts := make([]*Cube, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	stripe := (ft.Rows() + workers - 1) / workers
	for w := range parts {
		lo, hi := w*stripe, min((w+1)*stripe, ft.Rows())
		if lo >= hi && w > 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w], errs[w] = buildPart(lo, hi)
		}()
	}
	wg.Wait()
	out := parts[0]
	for w, part := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		if w == 0 || part == nil {
			continue
		}
		if err := out.mergeFrom(part); err != nil {
			return nil, err
		}
	}
	out.measure = measure
	out.compressAll()
	return out, nil
}

// BuildSynthetic creates a cube of the given geometry with approximately
// fill×cells non-empty cells carrying pseudo-random aggregates. It exists
// for bandwidth benchmarks (paper Fig. 3) where cube *size* matters and
// provenance does not. fill is clamped to [0, 1].
func BuildSynthetic(level int, cards []int, fill float64, seed int64, cfg Config) (*Cube, error) {
	c, err := newCube(level, cards, cfg.ChunkSide)
	if err != nil {
		return nil, err
	}
	if fill < 0 {
		fill = 0
	}
	if fill > 1 {
		fill = 1
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	}
	coords := make([]uint32, len(cards))
	var walk func(d int)
	walk = func(d int) {
		if d == len(cards) {
			if rng.Float64() < fill {
				c.add(coords, int32(rng.Float64()*1e4)) // [0, 100) in units of 0.01
			}
			return
		}
		for x := 0; x < cards[d]; x++ {
			coords[d] = uint32(x)
			walk(d + 1)
		}
	}
	walk(0)
	if cfg.Compress {
		c.compressAll()
	}
	return c, nil
}
