package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the A/A mode reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is the last line a benchmark run prints.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// aaMain runs every workload k times per set, for two sets, with seeds
// 1..k in both, alternating set and workload order, each run lasting
// BENCHMARK.json's run_seconds. It then prints each metric's median,
// quartiles and spread per set and checks the two sets against the
// bounds in BENCHMARK.json: every metric's spread (IQR ÷ median) within
// its bound, set B's median no worse than set A's by more than the
// bound, and the same share of failed operations in both sets.
func aaMain(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	k := fs.Int("k", 10, "runs per workload per set")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	fs.Parse(args)

	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aa:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "aa:", err)
		return 2
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aa:", err)
		return 2
	}

	// values[set][workload][metric] in seed order; failShare likewise.
	type series map[string][]float64
	const sets = 2
	var values [sets]map[string]series
	var attempted, failed [sets]map[string]int
	for s := range values {
		values[s] = map[string]series{}
		attempted[s], failed[s] = map[string]int{}, map[string]int{}
		for _, n := range names {
			values[s][n] = series{}
		}
	}
	ok := true
	for i := 0; i < *k; i++ {
		for j := 0; j < sets; j++ {
			s := (i + j) % sets
			for l := range names {
				name := names[(l+i+j)%len(names)]
				seed := i + 1
				out, err := runOnce(self, name, seed, spec.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "aa: set %c %s seed %d: %v\n", 'A'+s, name, seed, err)
					ok = false
					continue
				}
				attempted[s][name] += out.Attempted
				failed[s][name] += out.Failed
				for mname, mv := range out.Metrics {
					values[s][name][mname] = append(values[s][name][mname], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: set %c %-16s seed %2d done\n", 'A'+s, name, seed)
			}
		}
	}

	for _, name := range names {
		fmt.Printf("\n%s\n", name)
		fmt.Printf("  %-14s %3s %14s %14s %14s %8s %6s\n", "metric", "set", "median", "q1", "q3", "spread", "bound")
		for _, e := range spec.EndToEnd {
			var med [sets]float64
			for s := 0; s < sets; s++ {
				v := values[s][name][e.Name]
				if len(v) < 2 {
					fmt.Printf("  %-14s %3c   (only %d values)\n", e.Name, 'A'+s, len(v))
					ok = false
					continue
				}
				q1, q2, q3 := quartiles(v)
				spread := (q3 - q1) / q2
				mark := ""
				if spread > e.Bound {
					mark, ok = " FAIL spread", false
				} else if spread > e.Bound/3 {
					mark = " (above bound/3)"
				}
				med[s] = q2
				fmt.Printf("  %-14s %3c %14.6g %14.6g %14.6g %8.4f %6.3f n=%d%s\n", e.Name, 'A'+s, q2, q1, q3, spread, e.Bound, len(v), mark)
			}
			if med[0] != 0 {
				worse := (med[1] - med[0]) / med[0]
				if e.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > e.Bound {
					verdict, ok = "FAIL", false
				}
				fmt.Printf("  %-14s B vs A: %+.4f worse (bound %.3f) %s\n", e.Name, worse, e.Bound, verdict)
			}
		}
		for s := 0; s < sets; s++ {
			fmt.Printf("  failed share set %c: %d/%d\n", 'A'+s, failed[s][name], attempted[s][name])
		}
		if failed[0][name]*attempted[1][name] != failed[1][name]*attempted[0][name] {
			fmt.Printf("  FAIL: failed shares differ\n")
			ok = false
		}
	}
	if !ok {
		fmt.Println("\nA/A: FAIL")
		return 1
	}
	fmt.Println("\nA/A: PASS")
	return 0
}

// runOnce runs one gated benchmark invocation and parses its last line.
func runOnce(self, name string, seed, seconds int) (*runOutput, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	if runErr != nil || !out.Correct {
		return &out, fmt.Errorf("run failed: %v, correct=%v", runErr, out.Correct)
	}
	return &out, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the figures match the acceptance check exactly.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
