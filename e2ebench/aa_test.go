package main

import "testing"

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
