// Retail: the workload the paper's introduction motivates — business
// analysts firing text-heavy queries at a TPC-DS-like store_sales table.
//
// This example builds the star schema with four text columns (customer
// names, cities, brands, store names), shows the per-column dictionaries
// the text-to-integer translation uses, and runs a mixed analyst session
// through the full hybrid engine, reporting the CPU/GPU split.
package main

import (
	"fmt"
	"log"

	"hybridolap/internal/cube"
	"hybridolap/internal/engine"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
	"hybridolap/internal/tpcds"

	olap "hybridolap"
)

func main() {
	// 1. Generate the store_sales-like fact table.
	ft, err := tpcds.Generate(tpcds.Spec{
		Rows: 120_000, Seed: 7,
		Customers: 20_000, Cities: 800, Brands: 300, Stores: 120,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store_sales: %d rows, %d columns, %.1f MB encoded\n",
		ft.Rows(), ft.Schema().TotalColumns(), float64(ft.SizeBytes())/(1<<20))
	for _, col := range ft.Dicts().Columns() {
		fmt.Printf("  dictionary %-14s D_L = %5d\n", col, ft.Dicts().DictLen(col))
	}

	// 2. Load it into the simulated GPU and pre-calculate CPU cubes.
	dev, err := gpusim.NewDevice(gpusim.TeslaC2070())
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.LoadTable(ft); err != nil {
		log.Fatal(err)
	}
	if err := dev.Partition(gpusim.PaperLayout()); err != nil {
		log.Fatal(err)
	}
	cubes, err := cube.BuildSet(ft, []int{0, 1}, 1 /* net_paid */, cube.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cubes: levels %v, %.1f MB in CPU memory\n\n",
		cubes.Levels(), float64(cubes.TotalStorageBytes())/(1<<20))

	sys, err := engine.New(engine.Config{
		Table: ft, Cubes: cubes, Device: dev, CPUThreads: 8,
		Sched: sched.Config{DeadlineSeconds: 0.5},
	})
	if err != nil {
		log.Fatal(err)
	}
	db := olap.FromSystem(sys)

	// 3. An analyst session: dashboards (cube-able) mixed with text
	//    drill-downs (GPU + translation).
	session := []string{
		"SELECT sum(net_paid) WHERE date.year BETWEEN 0 AND 4",
		"SELECT avg(net_paid) WHERE date.quarter BETWEEN 0 AND 7 AND store_geo.region = 1",
		"SELECT count(*) WHERE item.category = 3",
		"SELECT sum(net_paid) WHERE store_name = '" + tpcds.StoreName(5) + "'",
		"SELECT sum(net_paid) WHERE customer_city BETWEEN 'Ash' AND 'Cedar'",
		"SELECT max(net_paid) WHERE item_brand = '" + tpcds.BrandName(17) + "' AND date.year = 2",
	}
	for _, sql := range session {
		res, err := db.Query(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		fmt.Printf("%-84s\n  -> %14.2f  (%6d rows, via %-6s, %v)\n",
			sql, res.Value, res.Rows, res.Route.Kind, res.Latency)
	}

	// 4. A burst of 200 generated queries, one concurrent Serve each.
	gen, err := db.NewGenerator(query.GenConfig{
		Seed: 11, TextProb: 0.4, TextRangeProb: 0.2,
		LevelWeights:  []float64{0.3, 0.3, 0.4},
		MeasureChoice: []int{1},
		Ops:           []table.AggOp{table.AggSum, table.AggCount, table.AggAvg},
	})
	if err != nil {
		log.Fatal(err)
	}
	batch := gen.Batch(200)
	results, err := db.Batch(batch)
	if err != nil {
		log.Fatal(err)
	}
	byRoute := map[string]int{}
	translated := 0
	for _, r := range results {
		byRoute[r.Route.Kind]++
		if r.Route.Translated {
			translated++
		}
	}
	fmt.Printf("\nburst of %d queries, placement by the Fig. 10 scheduler:\n", len(results))
	fmt.Printf("  cpu: %d   translated: %d\n", byRoute["cpu"], translated)
	for i := range sys.Config().Device.Partitions() {
		key := fmt.Sprintf("gpu[%d]", i)
		fmt.Printf("  %s (%d SM): %d\n", key, sys.Config().Device.Partitions()[i].SMs(), byRoute[key])
	}
}
