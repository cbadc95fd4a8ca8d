package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"twopcp"
)

// traceDir receives one spans file per traced run.
const traceDir = ".bench_build/traces"

// span is one timed interval the benchmark recorded around a call it
// made (or, for the phases of the traced decomposition, derived from the
// run's own events and RunStats).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// spans keeps a run's spans in memory until they are written at the end.
// root is the span covering the whole run; top-level calls are its
// children.
type spans struct {
	run  string
	list []span
	root int
}

func (s *spans) add(parent int, name string, start, end time.Time) int {
	id := len(s.list) + 1
	s.list = append(s.list, span{s.run, id, parent, name, start.UnixNano(), end.UnixNano()})
	return id
}

// timed runs f inside a span and returns the span's ID and duration.
func (s *spans) timed(parent int, name string, f func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	return s.add(parent, name, t0, t1), t1.Sub(t0), err
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is the process's cumulative syscall read bytes and CPU time at
// one event of the traced decomposition.
type sample struct {
	ts    int64
	rchar int64
	cpu   time.Duration
}

func takeSample(ts int64) sample {
	rchar, _, _ := procIO(os.Getpid())
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return sample{ts, rchar, cpu}
}

// eventLog is the traced run's OnEvent sink: it timestamps every event
// and samples I/O and CPU at the phase boundaries.
type eventLog struct {
	mu          sync.Mutex
	blocks      int // Phase-1 blocks in the grid
	blocksSeen  int
	steps       []int64 // phase2.step timestamps
	lastIter    int64   // last phase2.iter timestamp
	start       *sample // run.start
	phase0End   *sample // phase0.sketch (accelerated runs only)
	phase1End   *sample // last phase1.block
	done        int64   // run.done timestamp
	eventCounts map[string]int
}

func (l *eventLog) onEvent(e twopcp.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.eventCounts[e.Name]++
	switch e.Name {
	case "run.start":
		s := takeSample(e.TS)
		l.start = &s
	case "phase0.sketch":
		s := takeSample(e.TS)
		l.phase0End = &s
	case "phase1.block":
		l.blocksSeen++
		if l.blocksSeen == l.blocks {
			s := takeSample(e.TS)
			l.phase1End = &s
		}
	case "phase2.step":
		l.steps = append(l.steps, e.TS)
	case "phase2.iter":
		l.lastIter = e.TS
	case "run.done":
		l.done = e.TS
	}
}

// options mirrors the daemon's translation of w.jobSpec into
// twopcp.Options, so in-process runs compute what the job computed.
func (w workload) options(storeDir string) (twopcp.Options, error) {
	accel := w.accelerator
	if accel == "" {
		accel = "none"
	}
	a, err := twopcp.ParseAccelerator(accel)
	if err != nil {
		return twopcp.Options{}, err
	}
	opts := twopcp.Options{
		Rank:           w.rank,
		Partitions:     []int{w.parts},
		Schedule:       twopcp.HilbertOrder,
		Replacement:    twopcp.Forward,
		BufferFraction: w.buffer,
		MaxIters:       w.iters,
		Tol:            w.tol,
		Accelerator:    a,
		Seed:           1,
		Retry:          twopcp.RetryPolicy{Seed: 1},
	}
	if w.outOfCore {
		opts.StoreDir = storeDir
	}
	return opts, nil
}

// inproc is one in-process decomposition of the traced run.
type inproc struct {
	res  *twopcp.Result
	wall time.Duration
}

// traced is the --trace 1 run: one daemon round for the HTTP-facing
// layers, then in-process decompositions of the same file — one traced,
// the rest paired runs that each switch one public option — and
// batch-timed engine calls, reported as per-layer metrics.
func (r *runner) traced() (map[string]metric, error) {
	w := r.w
	t0 := time.Now()
	sp := &spans{run: fmt.Sprintf("%s-seed%d-%d", w.name, r.seed, t0.UnixNano())}
	sp.root = sp.add(0, "bench", t0, t0)
	m := map[string]metric{}

	// The daemon round: one job and the full query phase.
	var o *roundOut
	roundID, _, err := sp.timed(sp.root, "daemon_round", func() error {
		var err error
		o, err = r.round(0, time.Duration(r.seconds)*time.Second, nil, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	setupStart := o.submitted.Add(-time.Duration(o.setup * float64(time.Second)))
	sp.add(roundID, "setup", setupStart, o.submitted)
	sp.add(roundID, "daemon_job", o.submitted, o.submitted.Add(time.Duration(o.decompose*float64(time.Second))))
	st, err := os.Stat(o.input)
	if err != nil {
		return nil, err
	}
	fileBytes := float64(st.Size())
	for k := 0; k < numKinds; k++ {
		m["http."+kindNames[k]+"_p50_us"] = metric{percentile(o.load.lat[k], 0.5), "us"}
	}
	m["http.block_response_kb"] = metric{float64(o.load.blockBytes) / 1024, "KiB"}

	// The re-tiling pair's file.
	alt := filepath.Join(r.work, "alt.tptl")
	if _, _, err := sp.timed(sp.root, "write_alt_tiling", func() error {
		return twopcp.SaveTiled(alt, o.x, w.tileCounts(w.altTiles))
	}); err != nil {
		return nil, err
	}

	// In-process decompositions. Every one must reproduce the job's
	// factors and FitTrace bit for bit.
	dir := func(name string) string { return filepath.Join(r.work, name) }
	decompose := func(name, input string, mutate func(*twopcp.Options)) (*inproc, int, error) {
		opts, err := w.options(dir(name + "-store"))
		if err != nil {
			return nil, 0, err
		}
		mutate(&opts)
		var res *twopcp.Result
		id, wall, err := sp.timed(sp.root, "inproc."+name, func() error {
			var err error
			res, err = twopcp.DecomposeTiledFile(input, opts)
			return err
		})
		r.acct.record("inproc", err)
		if err != nil {
			return nil, id, err
		}
		if err := sameAsJob(res, o, input == o.input); err != nil {
			r.acct.record("check.bitexact", fmt.Errorf("%s: %w", name, err))
		} else {
			r.acct.record("check.bitexact", nil)
		}
		os.RemoveAll(dir(name + "-store"))
		os.RemoveAll(dir(name + "-ckpt"))
		return &inproc{res, wall}, id, nil
	}

	// The traced run and its two pairs (untraced, checkpoint off) run
	// twice each, interleaved; paired differences use each
	// configuration's faster run. Only the first traced run's counters
	// and events are reported. jobs.overhead_s compares the one daemon
	// job with the first untraced run, one run on each side.
	observe := func(reg *twopcp.Registry, l *eventLog) func(*twopcp.Options) {
		return func(op *twopcp.Options) {
			op.Checkpoint = dir("traced-ckpt")
			op.Observer = &twopcp.Observer{Metrics: reg, OnEvent: l.onEvent}
		}
	}
	newLog := func() *eventLog {
		return &eventLog{blocks: intPow(w.parts, len(w.dims)), eventCounts: map[string]int{}}
	}
	withCkpt := func(op *twopcp.Options) { op.Checkpoint = dir("untraced-ckpt") }
	noop := func(*twopcp.Options) {}
	reg, log := twopcp.NewRegistry(), newLog()
	traced, tracedID, err := decompose("traced", o.input, observe(reg, log))
	if err != nil {
		return nil, err
	}
	best := map[string]*inproc{"traced": traced}
	var untracedFirst *inproc
	for _, p := range []struct {
		name   string
		mutate func(*twopcp.Options)
	}{
		{"untraced", withCkpt}, {"checkpoint_off", noop},
		{"traced", observe(twopcp.NewRegistry(), newLog())}, {"untraced", withCkpt}, {"checkpoint_off", noop},
	} {
		run, _, err := decompose(p.name, o.input, p.mutate)
		if err != nil {
			return nil, err
		}
		if p.name == "untraced" && untracedFirst == nil {
			untracedFirst = run
		}
		if b := best[p.name]; b == nil || run.wall < b.wall {
			best[p.name] = run
		}
	}
	untracedBest, baseBest := best["untraced"], best["checkpoint_off"]
	flip, _, err := decompose("store_flip", o.input, func(op *twopcp.Options) {
		if op.StoreDir != "" {
			op.StoreDir = ""
		} else {
			op.StoreDir = dir("store_flip-store")
		}
	})
	if err != nil {
		return nil, err
	}
	serial, _, err := decompose("serial", o.input, func(op *twopcp.Options) { op.Workers, op.KernelWorkers = 1, 1 })
	if err != nil {
		return nil, err
	}
	retile, _, err := decompose("retile", alt, func(*twopcp.Options) {})
	if err != nil {
		return nil, err
	}

	// Phase spans of the traced run, from its events and RunStats, and
	// their reconciliation with the wall time around the call.
	rs := traced.res.RunStats
	if log.start == nil || log.phase1End == nil || log.done == 0 || log.lastIter == 0 {
		return nil, fmt.Errorf("traced run is missing phase events: %v", log.eventCounts)
	}
	p0 := time.Unix(0, log.start.ts)
	p1 := p0.Add(rs.Phase0Time)
	p2 := p1.Add(rs.Phase1Time)
	sp.add(tracedID, "phase0", p0, p1)
	sp.add(tracedID, "phase1", p1, p2)
	sp.add(tracedID, "phase2", time.Unix(0, log.lastIter).Add(-rs.Phase2Time), time.Unix(0, log.lastIter))
	fitPass := time.Duration(log.done - log.lastIter)
	sp.add(tracedID, "fit_pass", time.Unix(0, log.lastIter), time.Unix(0, log.done))
	phases := rs.Phase0Time + rs.Phase1Time + rs.Phase2Time
	covered := phases + fitPass
	var gapErr error
	if gap := math.Abs(covered.Seconds()-traced.wall.Seconds()) / traced.wall.Seconds(); gap > 0.05 {
		gapErr = fmt.Errorf("phase spans cover %.3fs of the traced run's %.3fs wall time (%.1f%% apart)",
			covered.Seconds(), traced.wall.Seconds(), 100*gap)
	}
	r.acct.record("check.reconcile", gapErr)
	fmt.Printf("traced: wall %.3fs = phase0 %.3f + phase1 %.3f + phase2 %.3f + fit pass %.3f (+%.3f unaccounted)\n",
		traced.wall.Seconds(), rs.Phase0Time.Seconds(), rs.Phase1Time.Seconds(), rs.Phase2Time.Seconds(),
		fitPass.Seconds(), (traced.wall - covered).Seconds())

	counters := reg.CounterValues()
	phase0Bytes, phase1Start := int64(0), log.start
	if log.phase0End != nil {
		phase0Bytes = log.phase0End.rchar - log.start.rchar
		phase1Start = log.phase0End
	}
	phase1Bytes := log.phase1End.rchar - phase1Start.rchar
	var stepGaps []float64
	for i := 1; i < len(log.steps); i++ {
		stepGaps = append(stepGaps, float64(log.steps[i]-log.steps[i-1])/1e3)
	}
	coarse, aligned := baseBest.res.RunStats.Phase1Time, retile.res.RunStats.Phase1Time
	if w.tiles >= w.parts {
		coarse, aligned = aligned, coarse
	}
	onDisk, inMem := flip.res.RunStats.Phase2Time, baseBest.res.RunStats.Phase2Time
	if w.outOfCore {
		onDisk, inMem = inMem, onDisk
	}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	add("tfile.phase1_read_mb", mib(phase1Bytes), "MiB")
	add("tfile.read_amplification", float64(phase0Bytes+phase1Bytes)/fileBytes, "ratio")
	add("tfile.retile_s", (coarse - aligned).Seconds(), "s")
	add("phase0.s", rs.Phase0Time.Seconds(), "s")
	add("phase0.passes", float64(phase0Bytes)/fileBytes, "count")
	add("phase1.s", rs.Phase1Time.Seconds(), "s")
	add("phase1.sweeps", float64(rs.Phase1Sweeps), "count")
	add("phase1.blocks_per_s", float64(rs.Blocks)/rs.Phase1Time.Seconds(), "1/s")
	add("phase1.cpu_s", (log.phase1End.cpu - phase1Start.cpu).Seconds(), "s")
	add("phase1.parallel_speedup", serial.res.RunStats.Phase1Time.Seconds()/baseBest.res.RunStats.Phase1Time.Seconds(), "ratio")
	add("phase2.s", rs.Phase2Time.Seconds(), "s")
	add("phase2.virtual_iters", float64(traced.res.VirtualIters), "count")
	add("phase2.step_p50_us", percentile(stepGaps, 0.5), "us")
	add("phase2.step_p99_us", percentile(stepGaps, 0.99), "us")
	add("buffer.fetches", float64(counters["buffer.fetches"]), "count")
	add("buffer.hit_rate", rs.BufferHitRate, "ratio")
	add("buffer.write_backs", float64(counters["buffer.write_backs"]), "count")
	add("buffer.prefetches", float64(counters["buffer.prefetches"]), "count")
	add("blockstore.read_mb", mib(counters["blockstore.bytes_read"]), "MiB")
	add("blockstore.write_mb", mib(counters["blockstore.bytes_written"]), "MiB")
	add("blockstore.file_overhead_s", (onDisk - inMem).Seconds(), "s")
	add("runstate.checkpoint_writes", float64(counters["runstate.checkpoint_writes"]), "count")
	add("runstate.checkpoint_mb", mib(counters["runstate.checkpoint_bytes"]), "MiB")
	add("runstate.overhead_s", (untracedBest.wall - baseBest.wall).Seconds(), "s")
	add("pipeline.fit_pass_s", (traced.wall - phases).Seconds(), "s")
	add("jobs.overhead_s", o.decompose-untracedFirst.wall.Seconds(), "s")
	add("trace.overhead_s", (best["traced"].wall - untracedBest.wall).Seconds(), "s")

	if err := r.kernelAndServe(sp, o, m); err != nil {
		return nil, err
	}
	sp.list[sp.root-1].End = time.Now().UnixNano()
	path := filepath.Join(traceDir, sp.run+".jsonl")
	if err := sp.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s (%d spans)\n", path, len(sp.list))
	return m, nil
}

// sameAsJob checks an in-process result against the daemon job's
// downloaded factors and reported result: factors and FitTrace bit for
// bit, and the fit bit for bit when the run read the same file. Over a
// differently tiled file the final fit pass sums tiles in another order,
// so there the fit must agree to fitRelTol.
func sameAsJob(res *twopcp.Result, o *roundOut, sameFile bool) error {
	if sameFile && math.Float64bits(res.Fit) != math.Float64bits(o.result.Fit) {
		return fmt.Errorf("fit %v, job's %v", res.Fit, o.result.Fit)
	}
	if relDiff(res.Fit, o.result.Fit) > fitRelTol {
		return fmt.Errorf("fit %v, job's %v", res.Fit, o.result.Fit)
	}
	if len(res.FitTrace) != len(o.result.FitTrace) {
		return fmt.Errorf("FitTrace has %d entries, job's %d", len(res.FitTrace), len(o.result.FitTrace))
	}
	for i, v := range res.FitTrace {
		if math.Float64bits(v) != math.Float64bits(o.result.FitTrace[i]) {
			return fmt.Errorf("FitTrace[%d] = %v, job's %v", i, v, o.result.FitTrace[i])
		}
	}
	for n, f := range res.Model.Factors {
		want := o.model.factors[n]
		for i, v := range f.Data {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				return fmt.Errorf("mode-%d factor entry %d = %v, job's CSV %v", n, i, v, want[i])
			}
		}
	}
	return nil
}

// kernelAndServe batch-times one Phase-1 block through twopcp.CPALS, the
// factor snapshot's write and open, and the query engine's four calls.
func (r *runner) kernelAndServe(sp *spans, o *roundOut, m map[string]metric) error {
	w := r.w
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	size := make([]int, len(w.dims))
	cells := 1
	for n, d := range w.dims {
		size[n] = d / w.parts
		cells *= size[n]
	}
	block := o.x.SubTensor(make([]int, len(w.dims)), size)
	var sweeps int
	_, el, err := sp.timed(sp.root, "cpals", func() error {
		t0 := time.Now()
		for time.Since(t0) < 400*time.Millisecond {
			_, _, it, err := twopcp.CPALS(block, w.rank, 1)
			if err != nil {
				return err
			}
			sweeps += it
		}
		return nil
	})
	r.acct.record("cpals", err)
	if err != nil {
		return err
	}
	sweep := el.Seconds() / float64(sweeps)
	// One sweep is dominated by one MTTKRP per mode, 2·cells·rank flops each.
	flops := float64(len(w.dims)) * 2 * float64(cells) * float64(w.rank)
	add("cpals.sweep_ms", sweep*1e3, "ms")
	add("cpals.sweep_gflops", flops/sweep/1e9, "GFLOP/s")

	factors := make([]*twopcp.Matrix, len(w.dims))
	for n, d := range w.dims {
		factors[n] = &twopcp.Matrix{Rows: d, Cols: w.rank, Data: o.model.factors[n]}
	}
	kt := twopcp.NewKTensor(factors)
	snap := filepath.Join(r.work, "factors.snap")
	var writes, opens []float64
	var mdl *twopcp.FactorModel
	for i := 0; i < 5; i++ {
		_, d, err := sp.timed(sp.root, "factorsnap.write", func() error { return twopcp.WriteFactorSnapshot(snap, kt) })
		if err != nil {
			return err
		}
		writes = append(writes, d.Seconds()*1e3)
		if mdl != nil {
			mdl.Close()
		}
		_, d, err = sp.timed(sp.root, "factorsnap.open", func() error {
			var err error
			mdl, err = twopcp.OpenFactorModel(snap)
			return err
		})
		if err != nil {
			return err
		}
		opens = append(opens, d.Seconds()*1e3)
	}
	defer mdl.Close()
	st, err := os.Stat(snap)
	if err != nil {
		return err
	}
	add("factorsnap.write_ms", median(writes), "ms")
	add("factorsnap.open_ms", median(opens), "ms")
	add("factorsnap.mb", mib(st.Size()), "MiB")

	qs := makeQueries(w, r.seed, ringRounds)
	var byKind [numKinds][]query
	for _, q := range qs {
		byKind[q.kind] = append(byKind[q.kind], q)
	}
	var dst []float64
	var scored []twopcp.Scored
	call := func(q query) error {
		var err error
		switch q.kind {
		case kindCell:
			_, err = mdl.Reconstruct(q.at)
		case kindBlock:
			dst, err = mdl.ReconstructBlock(q.lo, q.hi, dst)
		case kindTopK:
			scored, err = mdl.TopK(q.mode, q.at, topK, scored[:0])
		default:
			scored, err = mdl.NN(q.mode, q.index, topK, scored[:0])
		}
		return err
	}
	// Each kind is timed over whole passes of its queries until 200ms pass.
	perCall := [numKinds]float64{}
	for k := 0; k < numKinds; k++ {
		n := 0
		_, el, err := sp.timed(sp.root, "serve."+kindNames[k], func() error {
			t0 := time.Now()
			for time.Since(t0) < 200*time.Millisecond {
				for _, q := range byKind[k] {
					if err := call(q); err != nil {
						return err
					}
				}
				n += len(byKind[k])
			}
			return nil
		})
		r.acct.record("serve", err)
		if err != nil {
			return err
		}
		perCall[k] = el.Seconds() / float64(n)
	}
	add("serve.cell_ns", perCall[kindCell]*1e9, "ns")
	add("serve.block_us", perCall[kindBlock]*1e6, "us")
	add("serve.topk_us", perCall[kindTopK]*1e6, "us")
	add("serve.nn_us", perCall[kindNN]*1e6, "us")
	return nil
}

func intPow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}
