package experiments

import (
	"bytes"
	"hash/fnv"
	"testing"
)

// modelledTablesDigestWant is the FNV-64a digest of the rendered tables of
// every experiment whose figures come from the virtual clock alone (the
// system model, the scheduler, the cluster and repair simulations) at
// -quick, seed 1. None of them times host hardware, so the bytes are a
// pure function of the code: a change that moves one decision, one booked
// queue clock or one modelled second moves this value. Re-recorded when
// measures became int32 units: a shard stores 18 B a row instead of 26, so
// the repair table's MB moved and its recovery seconds shrank; every other
// table, and every repair decision, kept its bytes.
const modelledTablesDigestWant = 0xe5a063360b15dc87

// modelledTables lists those experiments.
var modelledTables = []string{
	"table1", "table2", "table3", "translation",
	"ablation-placement", "ablation-translation", "ablation-feedback",
	"ablation-globaldict", "ablation-layout",
	"batch-heuristics", "cluster", "repair",
}

// TestModelledTablesDigest pins every virtual-clock figure of the
// reproduction report to the bytes recorded before the scheduler was
// restructured.
func TestModelledTablesDigest(t *testing.T) {
	h := fnv.New64a()
	for _, id := range modelledTables {
		tbl, err := Run(id, opts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		tbl.Fprint(&buf)
		h.Write(buf.Bytes())
	}
	if got := h.Sum64(); got != modelledTablesDigestWant {
		t.Fatalf("modelled tables digest %#x, want %#x: a virtual-clock figure changed",
			got, uint64(modelledTablesDigestWant))
	}
}
