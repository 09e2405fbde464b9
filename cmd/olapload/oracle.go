package main

import (
	"fmt"
	"math"
	"os"

	olap "hybridolap"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// oraclePair is a recorded (query, answer) verified after the window.
type oraclePair struct {
	sql     string
	grouped bool
	got     answer
}

// thin keeps at most limit of the recorded pairs, evenly spaced over the
// window, so that checking them costs about a second whatever the
// workload's rate (dashboard_hot records 3000 pairs in 26 s).
func thin(pairs []oraclePair, limit int) []oraclePair {
	if len(pairs) <= limit {
		return pairs
	}
	out := make([]oraclePair, limit)
	for i := range out {
		out[i] = pairs[i*len(pairs)/limit]
	}
	return out
}

// verify checks the recorded answers against a sequential reference scan
// (System.Reference / ReferenceGroups) and returns how many disagree. A
// single-node in-process system is its own reference; a sharded database
// and olapd are stopped first and checked against an in-process twin
// opened with the same rows and seed, so the twin never competes with the
// system under test for memory or cores.
func (r *round) verify(pairs []oraclePair) (mismatches int, err error) {
	sys := r.sys
	if sys == nil {
		if err := r.s.close(); err != nil {
			return 0, err
		}
		twin, err := olap.Open(olap.Options{Rows: r.rows, Seed: dataSeed})
		if err != nil {
			return 0, fmt.Errorf("%s: opening the oracle twin: %w", r.w.name, err)
		}
		defer twin.Close()
		sys = twin.System()
	}
	for _, p := range pairs {
		q, err := query.Parse(p.sql, r.s.schema)
		if err != nil {
			return 0, fmt.Errorf("oracle parse %q: %w", p.sql, err)
		}
		ok := false
		if p.grouped {
			want, err := sys.ReferenceGroups(q)
			if err != nil {
				return 0, fmt.Errorf("oracle reference %q: %w", p.sql, err)
			}
			ok = len(want) == len(p.got.groups)
			for i := 0; ok && i < len(want); i++ {
				ok = sameAnswer(q.Op, p.got.groups[i].value, p.got.groups[i].rows, want[i].Value, want[i].Rows)
			}
		} else {
			want, err := sys.Reference(q)
			if err != nil {
				return 0, fmt.Errorf("oracle reference %q: %w", p.sql, err)
			}
			ok = sameAnswer(q.Op, p.got.value, p.got.rows, want.Value, want.Rows)
		}
		if !ok {
			mismatches++
			fmt.Fprintf(os.Stderr, "olapload: %s: WRONG ANSWER for %q\n", r.w.name, p.sql)
		}
	}
	return mismatches, nil
}

// sameAnswer compares an answer with the reference: rows, count, min and
// max exactly; sum and avg within 1e-9 relative, because a float sum is
// bit-stable only per placement (its fold tree depends on the partition).
func sameAnswer(op table.AggOp, gotV float64, gotRows int64, wantV float64, wantRows int64) bool {
	if gotRows != wantRows {
		return false
	}
	if gotV == wantV || (math.IsNaN(gotV) && math.IsNaN(wantV)) {
		return true
	}
	if op != table.AggSum && op != table.AggAvg {
		return false
	}
	return math.Abs(gotV-wantV) <= 1e-9*math.Max(math.Abs(gotV), math.Abs(wantV))
}
