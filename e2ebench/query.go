package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Query kinds, in the order their statistics are reported.
const (
	kindCell = iota
	kindTopK
	kindNN
	kindBlock
	numKinds
)

var kindNames = [numKinds]string{"cell", "topk", "nn", "block"}

// mixPerRound is the fixed query mix: in every 25 queries, 22 point
// reads and one each of top-k, NN and block. Point reads set the median;
// blocks (4%) set the p99.
var mixPerRound = [numKinds]int{22, 1, 1, 1}

const topK = 10

// query is one request of the mix. Its fields drive both the HTTP path
// and the oracle check.
type query struct {
	kind   int
	at     []int // cell coordinates, or top-k fixed coordinates (-1 at mode)
	lo, hi []int // block bounds
	mode   int   // top-k / NN mode
	index  int   // NN entity
}

func (q query) path(job string) string {
	p := "/v1/jobs/" + job + "/query/"
	switch q.kind {
	case kindCell:
		return p + "cell?at=" + joinInts(q.at, -1)
	case kindTopK:
		return p + "topk?mode=" + strconv.Itoa(q.mode) + "&at=" + joinInts(q.at, q.mode) + "&k=" + strconv.Itoa(topK)
	case kindNN:
		return p + "nn?mode=" + strconv.Itoa(q.mode) + "&index=" + strconv.Itoa(q.index) + "&k=" + strconv.Itoa(topK)
	default:
		return p + "block?lo=" + joinInts(q.lo, -1) + "&hi=" + joinInts(q.hi, -1)
	}
}

// joinInts renders coordinates comma-separated, with "*" at position star.
func joinInts(v []int, star int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		if i == star {
			parts[i] = "*"
		} else {
			parts[i] = strconv.Itoa(x)
		}
	}
	return strings.Join(parts, ",")
}

// makeQueries draws n whole mix rounds of queries for w from seed, in a
// seeded shuffled order.
func makeQueries(w workload, seed int64, rounds int) []query {
	rng := rand.New(rand.NewSource(seed*104729 + int64(w.index)))
	coord := func() []int {
		at := make([]int, len(w.dims))
		for n, d := range w.dims {
			at[n] = rng.Intn(d)
		}
		return at
	}
	var qs []query
	for r := 0; r < rounds; r++ {
		for kind, count := range mixPerRound {
			for i := 0; i < count; i++ {
				q := query{kind: kind}
				switch kind {
				case kindCell:
					q.at = coord()
				case kindTopK:
					q.mode = rng.Intn(len(w.dims))
					q.at = coord()
					q.at[q.mode] = -1
				case kindNN:
					q.mode = rng.Intn(len(w.dims))
					q.index = rng.Intn(w.dims[q.mode])
				case kindBlock:
					q.lo = make([]int, len(w.dims))
					q.hi = make([]int, len(w.dims))
					for n, d := range w.dims {
						q.lo[n] = rng.Intn(d - w.blockShape[n] + 1)
						q.hi[n] = q.lo[n] + w.blockShape[n]
					}
				}
				qs = append(qs, q)
			}
		}
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// checkAnswer verifies one query's HTTP answer against the oracle model.
func checkAnswer(q query, body []byte, m *model) error {
	switch q.kind {
	case kindCell:
		var r struct{ Value float64 }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		want, scale := m.cell(q.at)
		if !near(r.Value, want, scale) {
			return fmt.Errorf("cell %v = %v, oracle %v", q.at, r.Value, want)
		}
	case kindBlock:
		var r struct{ Values []float64 }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		want, scales := m.block(q.lo, q.hi)
		if len(r.Values) != len(want) {
			return fmt.Errorf("block %v-%v has %d values, want %d", q.lo, q.hi, len(r.Values), len(want))
		}
		for i := range want {
			if !near(r.Values[i], want[i], scales[i]) {
				return fmt.Errorf("block %v-%v value %d = %v, oracle %v", q.lo, q.hi, i, r.Values[i], want[i])
			}
		}
	case kindTopK, kindNN:
		var r struct{ Results []ranked }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		var scores, scales []float64
		if q.kind == kindTopK {
			scores, scales = m.topkScores(q.mode, q.at)
		} else {
			scores, scales = m.nnScores(q.mode, q.index)
		}
		if err := checkRanked(r.Results, scores, scales, topK, q.kind == kindTopK); err != nil {
			return fmt.Errorf("%s %s: %w", kindNames[q.kind], q.path(""), err)
		}
	}
	return nil
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	lat        [numKinds][]float64 // per-kind latencies, µs
	all        []float64           // all latencies, µs
	done       int                 // completed queries
	failed     int                 // non-200 or transport errors
	elapsed    time.Duration
	blockBytes int64 // body size of the last block response
	firstErr   error
}

// runLoad drives one closed-loop client over the query ring for warm
// (unrecorded) then dur (recorded): it sends the next query when the
// previous one is answered. One connection, not one per core: with two
// (one per core) the client and the daemon saturate both cores of a
// two-core machine and query_p50_us and query_qps spread by 0.19–0.25
// (IQR ÷ median) across runs of dense_aligned; with one, by 0.04.
func runLoad(d *daemon, job string, qs []query, warm, dur time.Duration) *loadResult {
	paths := make([]string, len(qs))
	for i, q := range qs {
		paths[i] = d.base + q.path(job)
	}
	res := &loadResult{}
	measureFrom := time.Now().Add(warm)
	stopAt := measureFrom.Add(dur)
	var end time.Time
	for i := 0; ; i = (i + 1) % len(qs) {
		t0 := time.Now()
		if !t0.Before(stopAt) {
			break
		}
		n, err := fetch(d.client, paths[i])
		t1 := time.Now()
		if t0.Before(measureFrom) {
			continue
		}
		end = t1
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		k := qs[i].kind
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		res.lat[k] = append(res.lat[k], us)
		res.all = append(res.all, us)
		res.done++
		if k == kindBlock {
			res.blockBytes = n
		}
	}
	res.elapsed = end.Sub(measureFrom)
	return res
}

// fetch performs one GET and drains the body, returning its length.
func fetch(c *http.Client, url string) (int64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return n, err
	}
	if resp.StatusCode != http.StatusOK {
		return n, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return n, nil
}

// percentile returns the q-quantile (0..1) of v by the nearest-rank
// method; v is sorted in place.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
