package olap

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"hybridolap/internal/cube"
	"hybridolap/internal/engine"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// exactCorpus covers every op on both measures, scalar and grouped, with
// predicates a cube answers, ones only a scan answers and a text predicate
// only the GPU answers.
var exactCorpus = func() []string {
	var out []string
	for _, agg := range []string{"sum(sales)", "avg(sales)", "count(*)", "min(quantity)", "max(sales)", "sum(quantity)"} {
		for _, rest := range []string{
			"",
			" WHERE time.month BETWEEN 3 AND 27 AND geo.country BETWEEN 2 AND 13",
			" WHERE product.brand BETWEEN 40 AND 400",
			" WHERE store_name BETWEEN 'store_name-000100' AND 'store_name-000600'",
			" WHERE time.year BETWEEN 1 AND 6 GROUP BY time.year",
			" WHERE geo.region = 2 GROUP BY geo.country, product.sector",
			" GROUP BY store_name",
		} {
			out = append(out, "SELECT "+agg+rest)
		}
	}
	return out
}()

// exactDigest opens a database over a 70K-row table — three of gpusim's
// work units and a short fourth — whose cubes are built with
// cubeWorkers (0: one per GOMAXPROCS), answers the corpus through Serve
// and hashes every answer's value bits, rows and groups. It also reports
// how many answers came from the CPU.
func exactDigest(t *testing.T, cubeWorkers int) (digest uint64, cpu int) {
	t.Helper()
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 70_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	levels := []int{0, 1}
	dev, _, err := engine.NewNode(ft, gpusim.PaperLayout(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cube.BuildSet(ft, levels, 0, cube.Config{Workers: cubeWorkers})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(engine.Config{Table: ft, Cubes: cs, Device: dev, Sched: sched.Config{DeadlineSeconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	db := FromSystem(sys)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, sql := range exactCorpus {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if strings.HasSuffix(res.Route.Kind, "cpu") {
			cpu++
		}
		put(math.Float64bits(res.Value))
		put(uint64(res.Rows))
		put(uint64(len(res.Groups)))
		for _, g := range res.Groups {
			for _, l := range g.Labels {
				h.Write([]byte(l))
				h.Write([]byte{0})
			}
			put(math.Float64bits(g.Value))
			put(uint64(g.Rows))
		}
	}
	return h.Sum64(), cpu
}

// TestAnswersIndependentOfParallelism: measures are integer units, so no
// answer depends on how the work was split — not on GOMAXPROCS (the GPU
// partitions' SM goroutines, the cube build's default worker count), not
// on the cube build's Workers, and not on whether the scheduler placed a
// query on the CPU's cube walk or on a GPU scan. Six runs, one digest.
func TestAnswersIndependentOfParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six 70K-row systems")
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	type run struct {
		procs, workers int
	}
	runs := []run{{1, 0}, {2, 0}, {8, 0}, {procs, 1}, {procs, 2}, {procs, 7}}
	var want uint64
	for i, r := range runs {
		runtime.GOMAXPROCS(r.procs)
		got, cpu := exactDigest(t, r.workers)
		if cpu == 0 || cpu == len(exactCorpus) {
			t.Fatalf("GOMAXPROCS=%d Workers=%d: %d of %d answers from the CPU; the corpus must cross both routes",
				runtime.GOMAXPROCS(0), r.workers, cpu, len(exactCorpus))
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("GOMAXPROCS=%d Workers=%d: digest %#x, GOMAXPROCS=1 %#x", runtime.GOMAXPROCS(0), r.workers, got, want)
		}
	}
}
