package main

import "fmt"

// workload is one benchmark input and the job spec it is decomposed
// with. Everything here is fixed; only the generated values depend on
// the run's --seed.
type workload struct {
	name  string
	index int // mixes into the generator seed

	// Input make-up.
	dims        []int
	trueRank    int
	orthonormal bool    // low-multilinear-rank input (orthonormal factors, superdiagonal core)
	noise       float64 // ‖E‖ / ‖X_true‖
	tiles       int     // file tiles per mode
	altTiles    int     // tiles per mode of the traced run's re-tiling pair

	// Decomposition, as sent to POST /v1/jobs.
	rank        int
	parts       int
	buffer      float64
	iters       int
	tol         float64
	outOfCore   bool
	accelerator string

	// Query shapes.
	blockShape []int

	// fitMargin is how far below the planted-model fit the job's fit may
	// land before the oracle fails the run.
	fitMargin float64
}

var workloads = []workload{
	{
		name: "dense_aligned", index: 1,
		dims: []int{192, 192, 192}, trueRank: 16, noise: 1e-2,
		tiles: 4, altTiles: 2,
		rank: 16, parts: 4, buffer: 1, iters: 100, tol: 1e-2,
		blockShape: []int{8, 8, 96},
		fitMargin:  0.05, // fits land 0.031–0.041 below planted over 24 seeds
	},
	{
		name: "ooc_4way_swap", index: 2,
		dims: []int{40, 40, 40, 40}, trueRank: 8, noise: 1e-2,
		tiles: 2, altTiles: 4,
		rank: 8, parts: 4, buffer: 1.0 / 3, iters: 60, tol: -1, outOfCore: true,
		blockShape: []int{4, 4, 12, 32},
		// HO/FOR Phase 2 stalls at a seed-dependent fit 0.018–0.113
		// below planted over 80 seeds (mean 0.061, sd 0.018); the
		// margin is five standard deviations above the mean.
		fitMargin: 0.15,
	},
	{
		name: "tucker_lowmlrank", index: 3,
		dims: []int{320, 320, 320}, trueRank: 4, orthonormal: true, noise: 1e-3,
		tiles: 4, altTiles: 2,
		rank: 8, parts: 4, buffer: 1, iters: 100, tol: 1e-2, accelerator: "tucker",
		blockShape: []int{8, 8, 96},
		fitMargin:  0.05,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobSpec is the POST /v1/jobs body. The decomposition seed is fixed:
// the run's --seed varies only the input.
func (w workload) jobSpec(input string) map[string]any {
	spec := map[string]any{
		"input":  input,
		"rank":   w.rank,
		"parts":  w.parts,
		"buffer": w.buffer,
		"iters":  w.iters,
		"tol":    w.tol,
		"seed":   1,
	}
	if w.outOfCore {
		spec["out_of_core"] = true
	}
	if w.accelerator != "" {
		spec["accelerator"] = w.accelerator
	}
	return spec
}

// tileCounts broadcasts a per-mode tile count.
func (w workload) tileCounts(t int) []int {
	out := make([]int, len(w.dims))
	for i := range out {
		out[i] = t
	}
	return out
}
