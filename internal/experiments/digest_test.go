package experiments

import (
	"bytes"
	"hash/fnv"
	"os"
	"testing"
)

// modelledTablesDigestWant is the FNV-64a digest of the rendered tables of
// every experiment whose figures come from the virtual clock alone (the
// system model, the scheduler, the cluster and repair simulations) at
// -quick, seed 1. None of them times host hardware, so the bytes are a
// pure function of the code: a change that moves one decision, one booked
// queue clock or one modelled second moves this value.
const modelledTablesDigestWant = 0x6f56dbd5c2c0ff84

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
	// cluster and repair drop BENCH_*.json in the working directory; run
	// them from a scratch dir so the package tree stays clean.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
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
