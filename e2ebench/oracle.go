package main

// The oracle recomputes everything the benchmark checks from the job's
// downloaded factor CSVs and the benchmark's own generator, with plain
// loops that share no code with the program under test.

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Tolerances, documented in README.md.
const (
	fitRelTol   = 1e-9 // reported fit vs naive recompute, relative
	valueRelTol = 1e-9 // cell/block/top-k/NN scores, relative to the term magnitude
)

// model is a Kruskal model with unit weights: factors[n] is dims[n]×rank,
// row-major, exactly as the daemon's factor CSVs hold it.
type model struct {
	dims    []int
	rank    int
	factors [][]float64
}

// parseFactorCSV reads one factor CSV (one row per line, comma-separated
// %g values) into a row-major slice, checking its shape.
func parseFactorCSV(data []byte, rows, cols int) ([]float64, error) {
	out := make([]float64, 0, rows*cols)
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != rows {
		return nil, fmt.Errorf("factor CSV has %d rows, want %d", len(lines), rows)
	}
	for i, line := range lines {
		fields := bytes.Split(line, []byte(","))
		if len(fields) != cols {
			return nil, fmt.Errorf("factor CSV row %d has %d columns, want %d", i, len(fields), cols)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return nil, fmt.Errorf("factor CSV row %d: %w", i, err)
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// cell returns the model value at one coordinate and the sum of the
// absolute rank-one terms, the scale its rounding error is relative to.
func (m *model) cell(at []int) (v, scale float64) {
	for f := 0; f < m.rank; f++ {
		t := 1.0
		for n, i := range at {
			t *= m.factors[n][i*m.rank+f]
		}
		v += t
		scale += math.Abs(t)
	}
	return v, scale
}

// fit computes 1 − ‖X − X̂‖/‖X‖ by visiting every cell of the Fortran-
// ordered tensor data, and returns ‖X‖ too.
func (m *model) fit(data []float64) (fit, normX float64) {
	at := make([]int, len(m.dims))
	var res2, x2 float64
	for _, x := range data {
		v, _ := m.cell(at)
		d := x - v
		res2 += d * d
		x2 += x * x
		for n := range at {
			at[n]++
			if at[n] < m.dims[n] {
				break
			}
			at[n] = 0
		}
	}
	normX = math.Sqrt(x2)
	return 1 - math.Sqrt(res2)/normX, normX
}

// block returns the cells lo ≤ i < hi row-major with the last mode
// fastest (the order of GET /query/block), with their term scales.
func (m *model) block(lo, hi []int) (vals, scales []float64) {
	N := len(lo)
	at := append([]int(nil), lo...)
	for {
		v, s := m.cell(at)
		vals = append(vals, v)
		scales = append(scales, s)
		n := N - 1
		for ; n >= 0; n-- {
			at[n]++
			if at[n] < hi[n] {
				break
			}
			at[n] = lo[n]
		}
		if n < 0 {
			return vals, scales
		}
	}
}

// topkScores returns the reconstructed score of every entity of mode
// with the other coordinates fixed at at, and each score's term scale.
func (m *model) topkScores(mode int, at []int) (scores, scales []float64) {
	c := append([]int(nil), at...)
	for j := 0; j < m.dims[mode]; j++ {
		c[mode] = j
		v, s := m.cell(c)
		scores = append(scores, v)
		scales = append(scales, s)
	}
	return scores, scales
}

// nnScores returns the squared Euclidean distance from entity index to
// every entity of mode (the query entity gets +Inf so it never ranks),
// and the scale ‖a_index‖² + ‖a_j‖² each distance's rounding is relative
// to.
func (m *model) nnScores(mode, index int) (scores, scales []float64) {
	R := m.rank
	q := m.factors[mode][index*R : (index+1)*R]
	for j := 0; j < m.dims[mode]; j++ {
		row := m.factors[mode][j*R : (j+1)*R]
		var d, s float64
		for f := range row {
			e := row[f] - q[f]
			d += e * e
			s += row[f]*row[f] + q[f]*q[f]
		}
		if j == index {
			d = math.Inf(1)
		}
		scores = append(scores, d)
		scales = append(scales, s)
	}
	return scores, scales
}

// near reports whether got matches want to valueRelTol relative to
// scale (the magnitude the computation's rounding error grows with).
func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= valueRelTol*math.Max(scale, math.Abs(want))
}

// ranked is one entry of a top-k or NN answer.
type ranked struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// checkRanked verifies a top-k (descending) or NN (ascending) answer
// against brute-force scores: k distinct entities, each score matching
// the oracle's, in order, and the same entity set as the oracle's top k
// except where scores tie within tolerance.
func checkRanked(got []ranked, scores, scales []float64, k int, descending bool) error {
	better := func(a, b float64) bool { return a < b }
	if descending {
		better = func(a, b float64) bool { return a > b }
	}
	valid := 0
	for _, s := range scores {
		if !math.IsInf(s, 0) {
			valid++
		}
	}
	if k > valid {
		k = valid
	}
	if len(got) != k {
		return fmt.Errorf("got %d results, want %d", len(got), k)
	}
	seen := map[int]bool{}
	for i, g := range got {
		if g.Index < 0 || g.Index >= len(scores) || seen[g.Index] || math.IsInf(scores[g.Index], 0) {
			return fmt.Errorf("result %d: invalid or repeated index %d", i, g.Index)
		}
		seen[g.Index] = true
		if !near(g.Score, scores[g.Index], scales[g.Index]) {
			return fmt.Errorf("result %d (index %d): score %v, oracle %v", i, g.Index, g.Score, scores[g.Index])
		}
		if i > 0 && better(g.Score, got[i-1].Score) {
			return fmt.Errorf("results out of order at %d", i)
		}
	}
	order := make([]int, 0, valid)
	for j, s := range scores {
		if !math.IsInf(s, 0) {
			order = append(order, j)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return better(scores[order[a]], scores[order[b]]) })
	kth := order[k-1]
	tie := valueRelTol * math.Max(scales[kth], math.Abs(scores[kth]))
	for _, j := range order {
		in := seen[j]
		switch {
		case !in && better(scores[j], scores[kth]) && math.Abs(scores[j]-scores[kth]) > tie:
			return fmt.Errorf("entity %d (oracle score %v) missing from the answer", j, scores[j])
		case in && better(scores[kth], scores[j]) && math.Abs(scores[j]-scores[kth]) > tie:
			return fmt.Errorf("entity %d (oracle score %v) ranks below the oracle's k-th %v", j, scores[j], scores[kth])
		}
	}
	return nil
}
