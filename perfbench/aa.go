package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the A/A command reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaMain runs two sets of untraced runs of one build, alternating which
// set goes first in each pair and giving every run its own seed, then
// prints each metric's median and quartiles per set and whether the sets
// agree within BENCHMARK.json's bounds: each set's quartile spread within
// the bound, set B's median no worse than set A's by more than the
// bound, and the same share of failed operations.
func aaMain(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.String("seconds", "20", "timed phase of each run")
	bin := fs.String("bin", os.Args[0], "perfbench binary to run")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description with the bounds")
	seed0 := fs.Int("seed", 1, "first seed; run i of set s gets seed+2i+s")
	fs.Parse(args)

	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench aa:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench aa:", err)
		return 2
	}

	type set struct {
		values          map[string][]float64
		attempted, fail int
	}
	sets := [2]*set{{values: map[string][]float64{}}, {values: map[string][]float64{}}}
	for i := 0; i < *runs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			seed := *seed0 + 2*i + s
			res, err := runOnce(*bin, *workload, seed, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench aa: run %d of set %c: %v\n", i, 'A'+s, err)
				return 1
			}
			sets[s].attempted += res.Attempted
			sets[s].fail += res.Failed
			for name, m := range res.Metrics {
				sets[s].values[name] = append(sets[s].values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %c run %d seed %d: %v\n", 'A'+s, i, seed, res.Metrics)
		}
	}

	ok := true
	fmt.Printf("%s: %d runs per set, alternating\n", *workload, *runs)
	fmt.Printf("%-16s %-4s %12s %12s %12s %8s %8s %8s\n", "metric", "set", "median", "q1", "q3", "spread", "shift", "bound")
	for _, m := range spec.EndToEnd {
		a, b := sets[0].values[m.Name], sets[1].values[m.Name]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		shift := math.NaN()
		for s, vs := range [][]float64{a, b} {
			q := pyQuartiles(vs)
			spread := (q[2] - q[0]) / q[1]
			verdict := ""
			if !(spread <= m.Bound) {
				verdict, ok = "SPREAD", false
			}
			shiftCol := ""
			if s == 1 {
				ma, mb := pyQuartiles(a)[1], q[1]
				shift = (mb - ma) / ma // positive = B higher
				worse := shift
				if m.Better == "higher" {
					worse = -shift
				}
				shiftCol = fmt.Sprintf("%+.4f", shift)
				if !(worse <= m.Bound) {
					verdict, ok = verdict+" SHIFT", false
				}
			}
			fmt.Printf("%-16s %-4c %12.6g %12.6g %12.6g %8.4f %8s %8.3f %s\n",
				m.Name, 'A'+s, q[1], q[0], q[2], spread, shiftCol, m.Bound, verdict)
		}
	}
	fa := float64(sets[0].fail) / float64(sets[0].attempted)
	fb := float64(sets[1].fail) / float64(sets[1].attempted)
	fmt.Printf("failed share: A %d/%d, B %d/%d\n", sets[0].fail, sets[0].attempted, sets[1].fail, sets[1].attempted)
	if fa != fb {
		ok = false
	}
	if ok {
		fmt.Println("A/A: the two sets agree within the bounds")
		return 0
	}
	fmt.Println("A/A: the two sets DISAGREE")
	return 1
}

// runOnce runs the benchmark once and parses its last line.
func runOnce(bin, workload string, seed int, seconds string) (*result, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", seconds, "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line %q: %w", last, err)
	}
	return &res, nil
}

// pyQuartiles returns the three quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), the definition the benchmark's spread bound is stated in.
func pyQuartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q
}
