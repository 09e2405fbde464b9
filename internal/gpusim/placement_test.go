package gpusim

import (
	"fmt"
	"math"
	"testing"

	"hybridolap/internal/table"
)

// placementRows is four full fold-grid blocks and a short fifth.
const placementRows = 4*32768 + 9000

// placementSnapshots returns the same placementRows rows four ways — the
// device's resident table; a live snapshot whose delta stripes are ragged
// (smaller than a batch, empty, one straddling a block edge, none ending
// on one); the same rows after a compaction-style Publish regrouped them;
// and a one-stripe from-scratch "rebuild", the reference — plus an earlier
// epoch of the ragged snapshot.
func placementSnapshots(t *testing.T, d *Device) (snaps map[string]*table.Snapshot, earlier *table.Snapshot) {
	t.Helper()
	whole := d.Table()
	s := *whole.Schema()
	reg, err := table.NewRegistry(s, sliceTable(t, whole, 0, 50_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 65 536 (the edge of block 1) falls inside [60 000, 70 000); 98 304
	// (block 2's) inside [98 000, 98 700).
	edges := []int{50_000, 50_001, 50_300, 50_300, 51_323, 60_000, 70_000, 98_000, 98_700, 131_071, placementRows}
	var ids []uint64
	for i := 1; i < len(edges); i++ {
		snap, err := reg.Publish([]*table.FactTable{sliceTable(t, whole, edges[i-1], edges[i])}, table.StripeDelta, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.Stripes()[i].ID())
		if edges[i] == 98_700 {
			earlier = snap
		}
	}
	ragged := reg.Current()
	// Compaction regroups deltas 2..7 ([50 001, 98 000)) into two stripes
	// cut somewhere else, in place.
	compacted, err := reg.Publish([]*table.FactTable{
		sliceTable(t, whole, 50_001, 65_536), sliceTable(t, whole, 65_536, 98_000),
	}, table.StripeBase, ids[1:7], nil)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := table.NewRegistry(s, sliceTable(t, whole, 0, placementRows), nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps = map[string]*table.Snapshot{
		"resident": d.Resident(), "ragged": ragged, "compacted": compacted, "rebuild": rebuilt.Current(),
	}
	for name, snap := range snaps {
		if snap.Rows() != placementRows {
			t.Fatalf("fixture: %s snapshot has %d rows, want %d", name, snap.Rows(), placementRows)
		}
	}
	if len(ragged.Stripes()) != len(edges) || len(compacted.Stripes()) != len(edges)-4 || len(snaps["rebuild"].Stripes()) != 1 {
		t.Fatalf("fixture: %d ragged, %d compacted, %d rebuilt stripes",
			len(ragged.Stripes()), len(compacted.Stripes()), len(snaps["rebuild"].Stripes()))
	}
	return snaps, earlier
}

func groupsBitsEqual(a, b table.Groups) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || !bitsEqual(v, w) {
			return false
		}
	}
	return true
}

// TestPlacementFree pins the contract of the fold grid: an Execute,
// ExecuteGroup or ExecuteFused answer is a function of the snapshot's rows
// and the request — every partition of the paper's layout, over every
// striping of the same rows, returns the bits partition 0 returns on a
// one-stripe rebuild, run after run.
func TestPlacementFree(t *testing.T) {
	d := newTestDevice(t, placementRows)
	snaps, earlier := placementSnapshots(t, d)
	rebuild := snaps["rebuild"]
	ref := d.Partitions()[0]
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg}
	preds := [][]table.RangePredicate{
		nil, // the dense kernel
		{{Dim: 0, Level: 1, From: 3, To: 23}, {Dim: 2, Level: 0, From: 1, To: 3}},
	}
	keys := map[string][]table.GroupCol{
		"low":  {{Dim: 1, Level: 0}},
		"high": {{Dim: 0, Level: 2}, {Dim: 1, Level: 2}},
	}
	family := fusedReqs()
	wantCells := make([]bool, len(family))
	for mi, req := range family {
		wantCells[mi] = mi%2 == 1 && req.Op != table.AggSum && req.Op != table.AggAvg
	}

	// each runs check on every snapshot × partition. The layout's
	// same-width pairs and the two one-stripe snapshots make every
	// combination a run-to-run repeat of another; CI adds -count=5.
	each := func(check func(where string, p *Partition, snap *table.Snapshot)) {
		for name, snap := range snaps {
			for _, p := range d.Partitions() {
				check(fmt.Sprintf("%s snapshot, partition %d (%d SMs)", name, p.ID(), p.SMs()), p, snap)
			}
		}
	}

	for _, op := range ops {
		for pi, pr := range preds {
			req := table.ScanRequest{Op: op, Measure: 0, Predicates: pr}
			want, err := ref.Execute(rebuild, req)
			if err != nil {
				t.Fatal(err)
			}
			if want.Rows == 0 {
				t.Fatalf("fixture: %v predicate set %d matches nothing", op, pi)
			}
			each(func(where string, p *Partition, snap *table.Snapshot) {
				got, err := p.Execute(snap, req)
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(got, want) {
					t.Fatalf("Execute %v predicate set %d, %s: %+v (%x), want %+v (%x)", op, pi, where,
						got, math.Float64bits(got.Value), want, math.Float64bits(want.Value))
				}
			})
		}
		for card, by := range keys {
			req := table.GroupScanRequest{ScanRequest: table.ScanRequest{Op: op, Measure: 1, Predicates: preds[1]}, GroupBy: by}
			want, err := ref.ExecuteGroup(rebuild, req)
			if err != nil {
				t.Fatal(err)
			}
			if card == "high" && len(want) < 1000 {
				t.Fatalf("fixture: high-cardinality key has only %d groups", len(want))
			}
			each(func(where string, p *Partition, snap *table.Snapshot) {
				got, err := p.ExecuteGroup(snap, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("ExecuteGroup %v %s-cardinality, %s: %d groups, want %d", op, card, where, len(got), len(want))
				}
				for i := range want {
					if table.PackKey(got[i].Keys) != table.PackKey(want[i].Keys) || got[i].Rows != want[i].Rows ||
						math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
						t.Fatalf("ExecuteGroup %v %s-cardinality, %s, group %d: %+v, want %+v", op, card, where, i, got[i], want[i])
					}
				}
			})
		}
	}

	want, err := ref.ExecuteFused(rebuild, family, wantCells)
	if err != nil {
		t.Fatal(err)
	}
	for mi, req := range family {
		solo, err := ref.Execute(rebuild, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(want[mi].Result, solo) || (want[mi].Cells != nil) != wantCells[mi] {
			t.Fatalf("fused member %d on the reference: %+v (cells %v), solo %+v", mi, want[mi].Result, want[mi].Cells != nil, solo)
		}
	}
	each(func(where string, p *Partition, snap *table.Snapshot) {
		got, err := p.ExecuteFused(snap, family, wantCells)
		if err != nil {
			t.Fatal(err)
		}
		for mi := range family {
			if !bitsEqual(got[mi].Result, want[mi].Result) || !groupsBitsEqual(got[mi].Cells, want[mi].Cells) {
				t.Fatalf("ExecuteFused member %d (%v, cells %v), %s: %+v, want %+v", mi, family[mi].Op, wantCells[mi], where,
					got[mi].Result, want[mi].Result)
			}
		}
	})

	t.Run("block prefix", func(t *testing.T) { testBlockPrefix(t, d, earlier, snaps["compacted"]) })
}

// testBlockPrefix pins what a per-block cache can build on: the full blocks
// of an epoch are the same units, with the same partials, at every later
// epoch — whichever partition scans either and however compaction has
// regrouped the rows in between.
func testBlockPrefix(t *testing.T, d *Device, older, newer *table.Snapshot) {
	full := older.Rows() / BlockRows
	if full < 3 || older.Rows()%BlockRows == 0 || newer.Rows() <= older.Rows() {
		t.Fatalf("fixture: %d rows then %d", older.Rows(), newer.Rows())
	}
	grouped, err := table.GroupMember(table.GroupScanRequest{
		ScanRequest: table.ScanRequest{Op: table.AggAvg, Measure: 1, Predicates: fusedReqs()[0].Predicates},
		GroupBy:     []table.GroupCol{{Dim: 0, Level: 2}, {Dim: 1, Level: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	members := []table.Member{{ScanRequest: fusedReqs()[0]}, {ScanRequest: fusedReqs()[1], Cells: true}, grouped}
	_, was, err := d.Partitions()[1].scan(older, members, blocks(older))
	if err != nil {
		t.Fatal(err)
	}
	_, is, err := d.Partitions()[4].scan(newer, members, blocks(newer))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < full; k++ {
		for mi := range members {
			if !bitsEqual(was[k][mi].Scalar, is[k][mi].Scalar) || !groupsBitsEqual(was[k][mi].Groups, is[k][mi].Groups) {
				t.Fatalf("block %d member %d: partial changed between epochs %d and %d", k, mi, older.Epoch(), newer.Epoch())
			}
		}
	}
	if bitsEqual(was[full][0].Scalar, is[full][0].Scalar) {
		t.Fatalf("fixture: the short block %d did not grow", full)
	}
}
