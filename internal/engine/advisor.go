package engine

import (
	"fmt"
	"sort"

	"hybridolap/internal/cube"
	"hybridolap/internal/perfmodel"
	"hybridolap/internal/table"
)

// AdvisorSpec asks which cube levels to pre-calculate under a main-memory
// budget — the planning problem of the paper's Fig. 1: cubes below level M
// fit in memory; queries finer than the finest stored cube fall through to
// the GPU (level G is where that is no longer a loss).
type AdvisorSpec struct {
	Schema *table.Schema
	// BudgetBytes bounds total cube storage (level M).
	BudgetBytes int64
	// LevelWeights[r] is the workload fraction of queries whose resolution
	// is r. Must cover every level some query needs.
	LevelWeights []float64
	// Selectivity is the typical queried fraction of a cube's volume
	// (default 0.25).
	Selectivity float64
	// CPUThreads selects the CPU model (default 8).
	CPUThreads int
	// TypicalColumns / TotalColumns price the GPU alternative (defaults: 4
	// of the schema's total).
	TypicalColumns int
	// Estimator supplies the models (default paper models).
	Estimator *perfmodel.Estimator
}

// Advice is the advisor's answer.
type Advice struct {
	// Levels to pre-calculate, ascending.
	Levels []int
	// UsedBytes is their total uncompressed size.
	UsedBytes int64
	// ExpectedSeconds is the expected per-query time over the workload mix
	// under this choice (CPU for covered resolutions, GPU otherwise).
	ExpectedSeconds float64
	// CPUFraction is the workload share answered from cubes.
	CPUFraction float64
}

// Advise enumerates level subsets (the lattice is tiny: one cube per
// scalar resolution) and returns the feasible subset minimising expected
// per-query time, breaking ties toward less memory.
func Advise(spec AdvisorSpec) (Advice, error) {
	if spec.Schema == nil {
		return Advice{}, fmt.Errorf("engine: advisor needs a schema")
	}
	if len(spec.LevelWeights) == 0 {
		return Advice{}, fmt.Errorf("engine: advisor needs level weights")
	}
	if spec.Selectivity <= 0 {
		spec.Selectivity = 0.25
	}
	Defaults{CPUThreads: &spec.CPUThreads, Estimator: &spec.Estimator}.Fill()
	if spec.TypicalColumns <= 0 {
		spec.TypicalColumns = 4
	}
	totalCols := spec.Schema.TotalColumns()
	nLevels := len(spec.LevelWeights)

	// Cube sizes per level.
	sizes := make([]int64, nLevels)
	helper := cube.NewSet(spec.Schema)
	for l := 0; l < nLevels; l++ {
		sizes[l] = helper.LogicalBytesAt(l)
	}

	// GPU alternative cost: the fastest partition's estimate for a typical
	// query (the scheduler would spread load, but for planning the fastest
	// width is the right bound).
	gpuCost := 0.0
	bestW := 0
	for w := range spec.Estimator.GPU {
		if w > bestW {
			bestW = w
		}
	}
	if bestW > 0 {
		c, err := spec.Estimator.GPUTime(bestW, spec.TypicalColumns, totalCols)
		if err != nil {
			return Advice{}, err
		}
		gpuCost = c
	}

	// cpuCost[l] prices a typical query answered from the level-l cube.
	cpuCost := make([]float64, nLevels)
	for l := 0; l < nLevels; l++ {
		mb := spec.Selectivity * float64(sizes[l]) / (1 << 20)
		c, err := spec.Estimator.CPUTime(spec.CPUThreads, mb)
		if err != nil {
			return Advice{}, err
		}
		cpuCost[l] = c
	}

	best := Advice{ExpectedSeconds: -1}
	for mask := 0; mask < 1<<nLevels; mask++ {
		var used int64
		for l := 0; l < nLevels; l++ {
			if mask&(1<<l) != 0 {
				used += sizes[l]
			}
		}
		if spec.BudgetBytes > 0 && used > spec.BudgetBytes {
			continue
		}
		// Expected per-query cost: each resolution r is served by the
		// coarsest selected level >= r (cheapest adequate cube), else GPU.
		expected := 0.0
		cpuFrac := 0.0
		for r, wgt := range spec.LevelWeights {
			if wgt <= 0 {
				continue
			}
			served := -1
			for l := r; l < nLevels; l++ {
				if mask&(1<<l) != 0 {
					served = l
					break
				}
			}
			if served >= 0 && cpuCost[served] <= gpuCost {
				expected += wgt * cpuCost[served]
				cpuFrac += wgt
			} else if served >= 0 {
				// A cube exists but the GPU is faster; the scheduler would
				// route there (Fig. 1 level G crossover).
				expected += wgt * gpuCost
			} else {
				expected += wgt * gpuCost
			}
		}
		better := best.ExpectedSeconds < 0 ||
			expected < best.ExpectedSeconds-1e-15 ||
			(expected <= best.ExpectedSeconds+1e-15 && used < best.UsedBytes)
		if better {
			var levels []int
			for l := 0; l < nLevels; l++ {
				if mask&(1<<l) != 0 {
					levels = append(levels, l)
				}
			}
			sort.Ints(levels)
			best = Advice{
				Levels:          levels,
				UsedBytes:       used,
				ExpectedSeconds: expected,
				CPUFraction:     cpuFrac,
			}
		}
	}
	if best.ExpectedSeconds < 0 {
		return Advice{}, fmt.Errorf("engine: no feasible level subset under budget %d", spec.BudgetBytes)
	}
	return best, nil
}
