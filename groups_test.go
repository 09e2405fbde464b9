package olap

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hybridolap/internal/query"
)

func TestQueryGroupsByDimension(t *testing.T) {
	db := openSmall(t)
	rows, route, err := db.QueryGroups("SELECT count(*) GROUP BY time.year")
	if err != nil {
		t.Fatal(err)
	}
	if route.Kind == "" {
		t.Fatal("missing route")
	}
	if len(rows) == 0 || len(rows) > 8 {
		t.Fatalf("groups = %d", len(rows))
	}
	var total int64
	for _, r := range rows {
		if !strings.HasPrefix(r.Labels[0], "time.year=") {
			t.Fatalf("label = %q", r.Labels[0])
		}
		total += r.Rows
	}
	if total != 3000 {
		t.Fatalf("rows total %d, want 3000", total)
	}
}

func TestQueryGroupsByTextColumn(t *testing.T) {
	db := openSmall(t)
	rows, route, err := db.QueryGroups("SELECT sum(sales) WHERE time.year BETWEEN 0 AND 3 GROUP BY store_name")
	if err != nil {
		t.Fatal(err)
	}
	if route.Kind == "cpu" {
		t.Fatal("text grouping must not use the CPU cube path")
	}
	if len(rows) == 0 {
		t.Fatal("no groups")
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.Labels[0], "store_name=") {
			t.Fatalf("label = %q", r.Labels[0])
		}
		// Labels decode to actual dictionary strings, not numbers.
		if strings.HasPrefix(r.Labels[0], "store_name=store_name-") == false {
			t.Fatalf("undecoded label %q", r.Labels[0])
		}
	}
}

func TestQueryGroupsMultiKey(t *testing.T) {
	db := openSmall(t)
	rows, _, err := db.QueryGroups("SELECT avg(sales) WHERE geo.region = 1 GROUP BY time.year, product.sector")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Labels) != 2 {
			t.Fatalf("labels = %v", r.Labels)
		}
	}
}

func TestQueryGroupsErrors(t *testing.T) {
	db := openSmall(t)
	if _, _, err := db.QueryGroups("SELECT sum(sales)"); err == nil {
		t.Fatal("ungrouped query accepted by QueryGroups")
	}
	if _, _, err := db.QueryGroups("SELECT sum(sales) GROUP BY ghost"); err == nil {
		t.Fatal("unknown group column accepted")
	}
	if _, _, err := db.QueryGroups("SELECT sum(sales) GROUP BY time.year, geo.region, product.sector, time.month, geo.country"); err == nil {
		t.Fatal("five group columns accepted")
	}
}

// TestServeGroupedMatchesQueryGroups: Serve, Query and Batch answer a
// grouped query with the same labelled rows QueryGroups returns, on a
// single-node and on a 2-shard database. The ops are placement-free (count and max are exact on
// the CPU, and a text grouping only runs on a GPU partition), so the two
// calls agree bit for bit wherever each one is placed.
func TestServeGroupedMatchesQueryGroups(t *testing.T) {
	queries := []string{
		"SELECT count(*) GROUP BY time.year",
		"SELECT sum(sales) WHERE time.year BETWEEN 0 AND 3 GROUP BY store_name",
		"SELECT max(sales) WHERE geo.region = 1 GROUP BY time.year, product.sector",
	}
	for _, shards := range []int{1, 2} {
		db, err := Open(Options{Rows: 4000, Seed: 2, Shards: shards, Fusion: true, ResultCache: true})
		if err != nil {
			t.Fatal(err)
		}
		qs := make([]*query.Query, len(queries))
		for i, sql := range queries {
			if qs[i], err = db.Parse(sql); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := db.Batch(qs)
		if err != nil {
			t.Fatalf("shards=%d Batch: %v", shards, err)
		}
		for k, sql := range queries {
			rows, route, err := db.QueryGroups(sql)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, sql, err)
			}
			served, err := db.ServeQuery(sql)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, sql, err)
			}
			queried, err := db.Query(sql)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, sql, err)
			}
			for _, e := range []struct {
				entry string
				res   Result
			}{{"Serve", served}, {"Query", queried}, {"Batch", batch[k]}} {
				res := e.res
				if len(rows) == 0 || len(res.Groups) != len(rows) {
					t.Fatalf("shards=%d %q: %s %d groups, QueryGroups %d", shards, sql, e.entry, len(res.Groups), len(rows))
				}
				for i, r := range rows {
					g := res.Groups[i]
					if !slices.Equal(g.Labels, r.Labels) || g.Rows != r.Rows ||
						math.Float64bits(g.Value) != math.Float64bits(r.Value) {
						t.Fatalf("shards=%d %q row %d: %s %+v, QueryGroups %+v", shards, sql, i, e.entry, g, r)
					}
				}
				if res.Value != 0 || res.Rows != 0 || res.Route.Translated != route.Translated {
					t.Fatalf("shards=%d %q: %s result %+v, QueryGroups route %+v", shards, sql, e.entry, res, route)
				}
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
