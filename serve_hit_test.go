package olap

import (
	"runtime"
	"testing"
	"time"
)

// raceEnabled is set by race_enabled_test.go under -race, where
// allocation counts are not meaningful.
var raceEnabled = false

// TestServeHitAllocs pins what a cache hit costs from SQL text to Result
// through DB.ServeQuery, for an exact hit and for a count folded from a
// full-range anchor over a 4×4 box: three allocations — the parsed query,
// its conditions and the scan request's predicates — and at most 400
// bytes. Lexing, validation, the cache's order and key, the fold's
// intervals and the route name allocate nothing.
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db, err := Open(Options{Rows: 20_000, Seed: 1, Fusion: true,
		FusionWindow: time.Millisecond, ResultCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.ServeQuery("SELECT count(*) WHERE time.day BETWEEN 0 AND 255 AND geo.state BETWEEN 0 AND 127"); err != nil {
		t.Fatal(err)
	}
	const maxAllocs, maxBytes = 3, 400
	for _, c := range []struct {
		name, sql string
		subsumed  bool
	}{
		{"exact", "SELECT sum(sales) WHERE time.day BETWEEN 17 AND 140 AND geo.state BETWEEN 3 AND 90", false},
		{"subsumed", "SELECT count(*) WHERE time.day BETWEEN 40 AND 43 AND geo.state BETWEEN 10 AND 13", true},
	} {
		first, err := db.ServeQuery(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		hit := func() {
			res, err := db.ServeQuery(c.sql)
			if err != nil || !res.Route.Cached || res.Route.Subsumed != c.subsumed ||
				res.Value != first.Value || res.Rows != first.Rows {
				t.Fatalf("%s: want a cache hit (subsumed %v) answering %v/%d, got %+v, %v",
					c.name, c.subsumed, first.Value, first.Rows, res, err)
			}
		}
		hit()
		if got := testing.AllocsPerRun(200, hit); got > maxAllocs {
			t.Errorf("%s hit allocates %v times, want at most %d", c.name, got, maxAllocs)
		}
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			hit()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > maxBytes {
			t.Errorf("%s hit allocates %d B, want at most %d", c.name, got, maxBytes)
		}
	}
}
