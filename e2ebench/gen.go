package main

import (
	"math"
	"math/rand"

	"twopcp"
)

// planted is the benchmark's own ground truth for one input: the Kruskal
// model the tensor was built from (weights folded into the factors) and
// the noise the generator added. The program under test never sees it;
// the oracle uses it to compute the planted-model fit.
type planted struct {
	dims    []int
	factors [][]float64 // factors[n] is dims[n]×rank, row-major
	rank    int
	noise   float64 // ‖noise‖ as generated
}

// generate builds the workload's input deterministically from seed:
// X = Σ_r Π_n A_n[:, r] + E, with E Gaussian, scaled so that
// ‖E‖ = w.noise·‖X_true‖. Planted CP inputs use uniform [0,1) factors
// (non-negative data, as cmd/tensorgen's lowrank kind);
// low-multilinear-rank inputs use orthonormalized Gaussian factors and a
// superdiagonal core with weights 1, 1/2, 1/3, ... (CP rank = w.trueRank).
func generate(w workload, seed int64) (*twopcp.Dense, *planted) {
	rng := rand.New(rand.NewSource(seed*7919 + int64(w.index)))
	R := w.trueRank
	p := &planted{dims: w.dims, rank: R, factors: make([][]float64, len(w.dims))}
	for n, d := range w.dims {
		a := make([]float64, d*R)
		for i := range a {
			if w.orthonormal {
				a[i] = rng.NormFloat64()
			} else {
				a[i] = rng.Float64()
			}
		}
		if w.orthonormal {
			orthonormalizeColumns(a, d, R)
		}
		p.factors[n] = a
	}
	if w.orthonormal {
		// Superdiagonal core g_r = 1/(r+1) folded into mode 0, scaled so
		// entries are O(1) whatever the mode sizes.
		scale := 1.0
		for _, d := range w.dims {
			scale *= math.Sqrt(float64(d))
		}
		for i := 0; i < w.dims[0]; i++ {
			for r := 0; r < R; r++ {
				p.factors[0][i*R+r] *= scale / float64(r+1)
			}
		}
	}
	x := twopcp.NewDense(w.dims...)
	fillModel(x.Data, p)
	// Noise: E is drawn twice from the same stream, first for its norm and
	// then to add it, so no second tensor-sized buffer is needed.
	noiseSeed := rng.Int63()
	var n2, e2 float64
	nrng := rand.New(rand.NewSource(noiseSeed))
	for _, v := range x.Data {
		e := nrng.NormFloat64()
		n2 += v * v
		e2 += e * e
	}
	s := w.noise * math.Sqrt(n2) / math.Sqrt(e2)
	nrng = rand.New(rand.NewSource(noiseSeed))
	var added float64
	for i := range x.Data {
		e := s * nrng.NormFloat64()
		x.Data[i] += e
		added += e * e
	}
	p.noise = math.Sqrt(added)
	return x, p
}

// fillModel writes the planted model Σ_r Π_n A_n[i_n, r] into data in
// Fortran order (mode 0 fastest).
func fillModel(data []float64, p *planted) {
	N, R := len(p.dims), p.rank
	idx := make([]int, N)
	w := make([]float64, R)
	d0 := p.dims[0]
	for off := 0; off < len(data); off += d0 {
		// Weight of the outer modes at idx[1:].
		for r := range w {
			w[r] = 1
		}
		for n := 1; n < N; n++ {
			row := p.factors[n][idx[n]*R : (idx[n]+1)*R]
			for r := range w {
				w[r] *= row[r]
			}
		}
		for i := 0; i < d0; i++ {
			row := p.factors[0][i*R : (i+1)*R]
			s := 0.0
			for r, v := range row {
				s += v * w[r]
			}
			data[off+i] = s
		}
		for n := 1; n < N; n++ {
			idx[n]++
			if idx[n] < p.dims[n] {
				break
			}
			idx[n] = 0
		}
	}
}

// orthonormalizeColumns runs modified Gram-Schmidt over the columns of
// the rows×cols row-major matrix a.
func orthonormalizeColumns(a []float64, rows, cols int) {
	for c := 0; c < cols; c++ {
		for q := 0; q < c; q++ {
			dot := 0.0
			for i := 0; i < rows; i++ {
				dot += a[i*cols+c] * a[i*cols+q]
			}
			for i := 0; i < rows; i++ {
				a[i*cols+c] -= dot * a[i*cols+q]
			}
		}
		nrm := 0.0
		for i := 0; i < rows; i++ {
			nrm += a[i*cols+c] * a[i*cols+c]
		}
		nrm = math.Sqrt(nrm)
		for i := 0; i < rows; i++ {
			a[i*cols+c] /= nrm
		}
	}
}
