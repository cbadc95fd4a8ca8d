package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"twopcp"
)

// rounds is how many fresh set-up → decomposition → query rounds one
// gated run makes. Times, sizes and memory report the median round, and
// query figures pool all rounds: over A/A sets of ten runs per workload
// on a shared two-core machine, the median round's decompose_s spread
// less than the fastest round's on every workload (0.02–0.20 against
// 0.08–0.26).
const rounds = 5

// Query phase shape: each round warms up for queryWarm (unrecorded),
// then records for its share of --seconds. The oracle checks a fixed
// sample of each kind per round.
const (
	queryWarm      = 300 * time.Millisecond
	ringRounds     = 200 // 200 mix rounds = 5000 distinct queries per ring
	pollInterval   = 20 * time.Millisecond
	jobTimeout     = 150 * time.Second
	minLoadSamples = 1000 // ten samples beyond p99
)

var checkSample = [numKinds]int{40, 10, 10, 4}

// roundOut is what one round measured and downloaded.
type roundOut struct {
	setup, decompose float64   // seconds
	submitted        time.Time // when the job was posted, the end of set-up
	readB, writeB    int64     // daemon syscall bytes during the job, HTTP excluded
	rss              int64
	result           jobResult
	csv              [][]byte
	model            *model
	load             *loadResult
	input            string        // the .tptl file, kept only when asked
	x                *twopcp.Dense // the generated input, kept only when asked
}

// round runs one fresh set-up, decomposition job, oracle check and query
// phase. ref, when non-nil, is an earlier round of the same run whose
// fit and factors this one must reproduce bit for bit; without it the
// full naive oracle runs.
func (r *runner) round(i int, loadDur time.Duration, ref *roundOut, keepInput bool) (*roundOut, error) {
	out := &roundOut{}
	w := r.w
	// Set-up is timed from after generation: the generator is the
	// benchmark's own code, so only writing the file and starting the
	// daemon are the program's set-up cost.
	x, p := generate(w, r.seed)
	t0 := time.Now()
	input := filepath.Join(r.work, "input-"+strconv.Itoa(i)+".tptl")
	if err := twopcp.SaveTiled(input, x, w.tileCounts(w.tiles)); err != nil {
		return nil, fmt.Errorf("write input: %w", err)
	}
	dataDir := filepath.Join(r.work, "data-"+strconv.Itoa(i))
	d, err := startDaemon(r.bin, dataDir)
	if err != nil {
		return nil, err
	}
	track(d)
	defer func() {
		d.stop()
		untrack(d)
		os.RemoveAll(dataDir)
		if !keepInput {
			os.Remove(input)
		}
	}()
	out.setup = time.Since(t0).Seconds()
	if keepInput {
		out.input, out.x = input, x
	}

	// Decomposition: POST → done, with the daemon's syscall I/O minus the
	// bytes our own HTTP traffic moved through its sockets.
	rc0, wc0, err := procIO(d.pid())
	if err != nil {
		return nil, err
	}
	sent0, recv0 := d.sent.Load(), d.received.Load()
	out.submitted = time.Now()
	id, err := d.submit(w.jobSpec(input))
	if err == nil {
		err = d.waitDone(id, pollInterval, jobTimeout)
	}
	r.acct.record("job", err)
	if err != nil {
		return nil, err
	}
	out.decompose = time.Since(out.submitted).Seconds()
	rc1, wc1, err := procIO(d.pid())
	if err != nil {
		return nil, err
	}
	out.readB = (rc1 - rc0) - (d.sent.Load() - sent0)
	out.writeB = (wc1 - wc0) - (d.received.Load() - recv0)

	if err := d.getJSON("/v1/jobs/"+id+"/result", &out.result); err != nil {
		return nil, err
	}
	m := &model{dims: w.dims, rank: w.rank}
	for n, dim := range w.dims {
		body, err := d.get(fmt.Sprintf("/v1/jobs/%s/factors/%d", id, n))
		if err != nil {
			return nil, err
		}
		f, err := parseFactorCSV(body, dim, w.rank)
		if err != nil {
			return nil, err
		}
		out.csv = append(out.csv, body)
		m.factors = append(m.factors, f)
	}
	out.model = m

	if ref == nil {
		r.checkFit(out.result.Fit, m, x, p)
	} else {
		var err error
		if math.Float64bits(out.result.Fit) != math.Float64bits(ref.result.Fit) {
			err = fmt.Errorf("fit %v differs from round 0's %v", out.result.Fit, ref.result.Fit)
		}
		for n := range out.csv {
			if !bytes.Equal(out.csv[n], ref.csv[n]) {
				err = fmt.Errorf("mode-%d factor CSV differs from round 0's", n)
			}
		}
		r.acct.record("check.repeat", err)
	}

	// Sampled answers against brute force, a different sample each round.
	sample := makeQueries(w, r.seed+int64(1000*(i+1)), 40)
	taken := [numKinds]int{}
	for _, q := range sample {
		if taken[q.kind] >= checkSample[q.kind] {
			continue
		}
		taken[q.kind]++
		body, err := d.get(q.path(id))
		if err == nil {
			err = checkAnswer(q, body, m)
		}
		r.acct.record("check."+kindNames[q.kind], err)
	}

	ring := makeQueries(w, r.seed, ringRounds)
	lr := runLoad(d, id, ring, queryWarm, loadDur)
	r.acct.recordN("query", lr.done+lr.failed, lr.failed, lr.firstErr)
	out.load = lr

	out.rss, err = peakRSS(d.pid())
	return out, err
}

// checkFit runs the naive oracle: the reported fit must equal the
// recompute from the downloaded factors to fitRelTol, and reach the
// planted model's fit minus the workload's margin.
func (r *runner) checkFit(reported float64, m *model, x *twopcp.Dense, p *planted) {
	naive, normX := m.fit(x.Data)
	var err error
	if relDiff(reported, naive) > fitRelTol {
		err = fmt.Errorf("reported fit %v, naive recompute %v", reported, naive)
	}
	r.acct.record("check.fit", err)
	plantedFit := 1 - p.noise/normX
	err = nil
	if reported < plantedFit-r.w.fitMargin {
		err = fmt.Errorf("fit %v below planted-model fit %v minus margin %v", reported, plantedFit, r.w.fitMargin)
	}
	r.acct.record("check.planted", err)
	fmt.Printf("oracle: fit %.12f naive %.12f planted %.12f\n", reported, naive, plantedFit)
}

// gated is the --trace 0 run: fresh rounds reported as end-to-end metrics.
func (r *runner) gated() (map[string]metric, error) {
	loadDur := time.Duration(r.seconds) * time.Second / rounds
	var outs []*roundOut
	for i := 0; i < rounds; i++ {
		var ref *roundOut
		if i > 0 {
			ref = outs[0]
		}
		o, err := r.round(i, loadDur, ref, false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
		fmt.Fprintf(os.Stderr, "round %d: setup %.3fs decompose %.3fs read %.1fMiB write %.2fMiB rss %.1fMiB queries %d qps %.0f p50 %.1fus p99 %.0fus\n",
			i, o.setup, o.decompose, mib(o.readB), mib(o.writeB), mib(o.rss), o.load.done,
			float64(o.load.done)/o.load.elapsed.Seconds(), percentile(append([]float64(nil), o.load.all...), 0.5), percentile(append([]float64(nil), o.load.all...), 0.99))
	}
	var setup, dec, rd, wr, rss, all []float64
	var done int
	var elapsed time.Duration
	for _, o := range outs {
		setup = append(setup, o.setup)
		dec = append(dec, o.decompose)
		rd = append(rd, mib(o.readB))
		wr = append(wr, mib(o.writeB))
		rss = append(rss, mib(o.rss))
		all = append(all, o.load.all...)
		done += o.load.done
		elapsed += o.load.elapsed
	}
	var err error
	if len(all) < minLoadSamples {
		err = fmt.Errorf("%d latency samples, fewer than %d", len(all), minLoadSamples)
	}
	r.acct.record("check.samples", err)
	fmt.Printf("query samples: %d\n", len(all))
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"decompose_s":  {median(dec), "s"},
		"fit":          {outs[0].result.Fit, "ratio"},
		"read_mb":      {median(rd), "MiB"},
		"write_mb":     {median(wr), "MiB"},
		"peak_rss_mb":  {median(rss), "MiB"},
		"query_qps":    {float64(done) / elapsed.Seconds(), "1/s"},
		"query_p50_us": {percentile(all, 0.50), "us"},
		"query_p99_us": {percentile(all, 0.99), "us"},
	}, nil
}
