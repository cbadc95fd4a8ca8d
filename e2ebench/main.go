// Command e2ebench is the repository's end-to-end benchmark: for each
// workload it generates a seeded tensor, writes it as a .tptl file,
// starts a fresh twopcpd, decomposes the file through the HTTP API,
// checks the job against an independent oracle and drives a closed-loop
// query phase against the finished model. With --trace 1 it instead
// reports per-layer metrics from an in-process traced run. See README.md.
//
// Run it through run.sh, which builds the binaries from the checkout:
//
//	bash e2ebench/run.sh --workload dense_aligned --seed 1 --seconds 6 --trace 0
//	bash e2ebench/run.sh aa -k 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// binDir holds the binaries run.sh builds; workRoot holds per-run
// scratch directories, removed when the run ends.
const (
	binDir   = ".bench_build/bin"
	workRoot = ".bench_build/work"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// accounting counts what a run attempted and what failed, by kind.
type accounting struct {
	mu       sync.Mutex
	attempts map[string]int
	failures map[string]int
	errs     []string
}

func newAccounting() *accounting {
	return &accounting{attempts: map[string]int{}, failures: map[string]int{}}
}

// record counts one attempted operation of kind, failed when err != nil.
func (a *accounting) record(kind string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts[kind]++
	if err != nil {
		a.failures[kind]++
		if len(a.errs) < 20 {
			a.errs = append(a.errs, kind+": "+err.Error())
		}
	}
}

// recordN counts n attempted operations of kind, of which failed failed.
func (a *accounting) recordN(kind string, n, failed int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempts[kind] += n
	a.failures[kind] += failed
	if failed > 0 && err != nil && len(a.errs) < 20 {
		a.errs = append(a.errs, kind+": "+err.Error())
	}
}

func (a *accounting) totals() (attempted, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, n := range a.attempts {
		attempted += n
		failed += a.failures[k]
	}
	return attempted, failed
}

func (a *accounting) summary() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	kinds := make([]string, 0, len(a.attempts))
	for k := range a.attempts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d/%d", k, a.attempts[k], a.failures[k])
	}
	return "attempted/failed:" + b.String()
}

// liveDaemons lets the signal handler reap every daemon still running.
var liveDaemons struct {
	sync.Mutex
	set map[*daemon]bool
}

func track(d *daemon) {
	liveDaemons.Lock()
	defer liveDaemons.Unlock()
	if liveDaemons.set == nil {
		liveDaemons.set = map[*daemon]bool{}
	}
	liveDaemons.set[d] = true
}

func untrack(d *daemon) {
	liveDaemons.Lock()
	defer liveDaemons.Unlock()
	delete(liveDaemons.set, d)
}

func stopAll() {
	liveDaemons.Lock()
	ds := make([]*daemon, 0, len(liveDaemons.set))
	for d := range liveDaemons.set {
		ds = append(ds, d)
	}
	liveDaemons.Unlock()
	for _, d := range ds {
		d.stop()
		untrack(d)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "aa" {
		os.Exit(aaMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload name (see README.md)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 6, "measured query-phase seconds")
		trace   = flag.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(workRoot, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cleanup := func() {
		stopAll()
		os.RemoveAll(work)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	acct := newAccounting()
	r := &runner{w: w, seed: *seed, seconds: *seconds, work: work, acct: acct,
		bin: filepath.Join(binDir, "twopcpd")}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = r.traced()
	} else {
		metrics, err = r.gated()
	}
	cleanup()
	if err != nil {
		acct.record("run", err)
	}
	attempted, failed := acct.totals()
	acct.mu.Lock()
	for _, e := range acct.errs {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED", e)
	}
	acct.mu.Unlock()
	fmt.Println(acct.summary())
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics}
	if out.Metrics == nil {
		out.Metrics = map[string]metric{}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if failed > 0 || err != nil {
		os.Exit(1)
	}
}

// runner carries one benchmark invocation's settings.
type runner struct {
	w       workload
	seed    int64
	seconds int
	work    string
	bin     string
	acct    *accounting
}

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// relDiff is |a−b| relative to |b|.
func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
