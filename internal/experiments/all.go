package experiments

import (
	"fmt"
	"sort"
)

// Runner produces one experiment table.
type Runner func(Options) (*Table, error)

// Registry maps experiment IDs to runners, in the order the paper presents
// them.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":               Table1,
		"table2":               Table2,
		"table3":               Table3,
		"translation":          TranslationOverhead,
		"translation-algos":    TranslationAlgorithms,
		"fig3":                 Fig3,
		"fig4":                 Fig4,
		"fig5":                 Fig5,
		"fig8":                 Fig8,
		"fig9":                 Fig9,
		"ablation-placement":   AblationPlacement,
		"ablation-translation": AblationTranslationPartition,
		"ablation-feedback":    AblationFeedback,
		"ablation-globaldict":  AblationGlobalDict,
		"ablation-layout":      AblationPartitionLayout,
		"batch-heuristics":     BatchHeuristics,
		"scan-kernels":         ScanKernels,
		"ingest":               IngestThroughput,
		"fusion":               MultiQueryFusion,
		"cluster":              ClusterScaling,
		"repair":               RepairRecovery,
	}
}

// order lists the canonical presentation order.
var order = []string{
	"table1", "table2", "table3", "translation", "translation-algos",
	"fig3", "fig4", "fig5", "fig8", "fig9",
	"ablation-placement", "ablation-translation", "ablation-feedback",
	"ablation-globaldict", "ablation-layout", "batch-heuristics",
	"scan-kernels", "ingest", "fusion", "cluster", "repair",
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for _, id := range order {
		if _, ok := reg[id]; ok {
			out = append(out, id)
		}
	}
	// Defensive: append anything registered but not ordered.
	var extra []string
	for id := range reg {
		found := false
		for _, o := range order {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(opts)
}
