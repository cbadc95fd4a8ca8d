package main

import (
	"math"
	"reflect"
	"testing"
)

// A 2×2×2 rank-2 model small enough to evaluate by hand:
// A0 = [1 2; 3 4], A1 = I, A2 = [2 1; 1 2].
func handModel() *model {
	return &model{
		dims: []int{2, 2, 2},
		rank: 2,
		factors: [][]float64{
			{1, 2, 3, 4},
			{1, 0, 0, 1},
			{2, 1, 1, 2},
		},
	}
}

func TestCellByHand(t *testing.T) {
	m := handModel()
	for _, c := range []struct {
		at        []int
		want, abs float64
	}{
		{[]int{0, 0, 0}, 1*1*2 + 2*0*1, 2},
		{[]int{1, 1, 1}, 3*0*1 + 4*1*2, 8},
		{[]int{1, 0, 1}, 3*1*1 + 4*0*2, 3},
		{[]int{0, 1, 0}, 1*0*2 + 2*1*1, 2},
	} {
		v, s := m.cell(c.at)
		if v != c.want || s != c.abs {
			t.Errorf("cell%v = %v (scale %v), want %v (scale %v)", c.at, v, s, c.want, c.abs)
		}
	}
}

func TestBlockIsRowMajorLastModeFastest(t *testing.T) {
	vals, _ := handModel().block([]int{0, 0, 0}, []int{2, 1, 2})
	// (0,0,0)=2, (0,0,1)=1, (1,0,0)=6, (1,0,1)=3.
	if want := []float64{2, 1, 6, 3}; !reflect.DeepEqual(vals, want) {
		t.Fatalf("block = %v, want %v", vals, want)
	}
}

func TestFitByHand(t *testing.T) {
	// Rank-1 model of ones over a 2×1×1 tensor holding (1, 3): the
	// residual is (0, 2), ‖X‖ = √10.
	m := &model{dims: []int{2, 1, 1}, rank: 1, factors: [][]float64{{1, 1}, {1}, {1}}}
	fit, normX := m.fit([]float64{1, 3})
	if want := 1 - 2/math.Sqrt(10); math.Abs(fit-want) > 1e-15 {
		t.Errorf("fit = %v, want %v", fit, want)
	}
	if math.Abs(normX-math.Sqrt(10)) > 1e-15 {
		t.Errorf("normX = %v, want √10", normX)
	}
}

func TestTopKByHand(t *testing.T) {
	m := handModel()
	scores, scales := m.topkScores(2, []int{1, 1, -1})
	// j=0: 3·0·2 + 4·1·1 = 4; j=1: 3·0·1 + 4·1·2 = 8.
	if want := []float64{4, 8}; !reflect.DeepEqual(scores, want) {
		t.Fatalf("scores = %v, want %v", scores, want)
	}
	if err := checkRanked([]ranked{{1, 8}, {0, 4}}, scores, scales, 2, true); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := checkRanked([]ranked{{0, 4}}, scores, scales, 1, true); err == nil {
		t.Error("wrong top-1 accepted")
	}
	if err := checkRanked([]ranked{{1, 8.5}}, scores, scales, 1, true); err == nil {
		t.Error("wrong score accepted")
	}
}

func TestNNByHand(t *testing.T) {
	m := handModel()
	scores, scales := m.nnScores(0, 0)
	// Rows (1,2) and (3,4): squared distance 2² + 2² = 8.
	if !math.IsInf(scores[0], 1) || scores[1] != 8 || scales[1] != 1+4+9+16 {
		t.Fatalf("scores = %v, scales = %v", scores, scales)
	}
	if err := checkRanked([]ranked{{1, 8}}, scores, scales, 5, false); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	if err := checkRanked([]ranked{{0, 0}}, scores, scales, 1, false); err == nil {
		t.Error("query entity accepted as its own neighbor")
	}
}

func TestRankedTiesAcceptEitherEntity(t *testing.T) {
	scores := []float64{5, 5, 1}
	scales := []float64{5, 5, 1}
	for _, idx := range []int{0, 1} {
		if err := checkRanked([]ranked{{idx, 5}}, scores, scales, 1, true); err != nil {
			t.Errorf("tied entity %d rejected: %v", idx, err)
		}
	}
	if err := checkRanked([]ranked{{2, 1}}, scores, scales, 1, true); err == nil {
		t.Error("non-tied entity accepted")
	}
	if err := checkRanked([]ranked{{0, 5}, {0, 5}}, scores, scales, 2, true); err == nil {
		t.Error("repeated entity accepted")
	}
}

func TestParseFactorCSVRoundTrips(t *testing.T) {
	got, err := parseFactorCSV([]byte("1,-2.5\n3e-07,0.1\n"), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, -2.5, 3e-07, 0.1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := parseFactorCSV([]byte("1,2\n"), 2, 2); err == nil {
		t.Error("short CSV accepted")
	}
}

func TestGeneratorIsSeededAndPlanted(t *testing.T) {
	w := workload{name: "t", dims: []int{5, 4, 3}, trueRank: 2, noise: 0.1}
	x1, p1 := generate(w, 7)
	x2, _ := generate(w, 7)
	x3, _ := generate(w, 8)
	if !reflect.DeepEqual(x1.Data, x2.Data) {
		t.Fatal("same seed gave different inputs")
	}
	if reflect.DeepEqual(x1.Data, x3.Data) {
		t.Fatal("different seeds gave the same input")
	}
	// The planted model's residual is exactly the generated noise.
	m := &model{dims: p1.dims, rank: p1.rank, factors: p1.factors}
	fit, normX := m.fit(x1.Data)
	if want := 1 - p1.noise/normX; math.Abs(fit-want) > 1e-12 {
		t.Errorf("planted fit %v, want %v", fit, want)
	}
}
