package olap_test

import (
	"fmt"
	"log"

	olap "hybridolap"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// ExampleOpen shows the one-call setup: a synthetic fact table on the
// simulated GPU plus pre-calculated cubes for the CPU partition.
func ExampleOpen() {
	db, err := olap.Open(olap.Options{Rows: 10_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("SELECT count(*)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(int(res.Value))
	// Output: 10000
}

// ExampleDB_Query demonstrates scheduling: a coarse aggregate is served
// from the CPU cube partition, a text predicate forces translation and the
// GPU path.
func ExampleDB_Query() {
	db, err := olap.Open(olap.Options{Rows: 5_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	cube, err := db.Query("SELECT sum(sales) WHERE time.year BETWEEN 0 AND 3")
	if err != nil {
		log.Fatal(err)
	}
	text, err := db.Query("SELECT count(*) WHERE store_name = 'store_name-000001'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cube.Route.Kind, text.Route.Translated)
	// Output: cpu true
}

// ExampleDB_QueryGroups shows a grouped drill-down with decoded labels.
func ExampleDB_QueryGroups() {
	db, err := olap.Open(olap.Options{Rows: 5_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	rows, _, err := db.QueryGroups("SELECT count(*) GROUP BY geo.region")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(rows), rows[0].Labels[0])
	// Output: 4 geo.region=0
}

// ExampleDB_Batch runs a generated workload as concurrent Serve calls, one
// per query.
func ExampleDB_Batch() {
	db, err := olap.Open(olap.Options{Rows: 5_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := db.NewGenerator(query.GenConfig{
		Seed:          7,
		LevelWeights:  []float64{0.5, 0.5},
		MeasureChoice: []int{0},
		Ops:           []table.AggOp{table.AggSum},
	})
	if err != nil {
		log.Fatal(err)
	}
	results, err := db.Batch(gen.Batch(16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(results))
	// Output: 16
}

// ExampleDB_Explain prices a query without executing it.
func ExampleDB_Explain() {
	db, err := olap.Open(olap.Options{Rows: 5_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	ex, err := db.Explain("SELECT sum(sales) WHERE time.hour BETWEEN 0 AND 511")
	if err != nil {
		log.Fatal(err)
	}
	// Hour-level resolution exceeds the pre-calculated cubes, so the
	// scheduler prices only the GPU partitions.
	fmt.Println(ex.Estimates.CPUOK, ex.Decision.Queue.Kind == 1)
	// Output: false true
}
