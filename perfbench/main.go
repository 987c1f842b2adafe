// perfbench measures the multiscalar simulator end to end and layer by
// layer on four workloads: paper-suite (msbench -all), arb-pressure
// (matmul with full ARB banks), sampled-long (sampled simulation of long
// runs) and serve-mix (the msserve daemon under batch sweeps, each
// resubmitted whole).
// See README.md.
//
// Run one workload from the repository root (perfbench/run.sh builds
// this command and msserve first):
//
//	perfbench --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — end-to-end with --trace 0,
// per-layer with --trace 1. Progress, failures and the traced run's
// per-layer table go to standard error.
//
// Compare two sets of runs of one build (A/A):
//
//	perfbench aa --workload serve-mix --runs 10 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

var workloadFuncs = map[string]func(*run) error{
	"paper-suite":  paperSuite,
	"arb-pressure": arbPressure,
	"sampled-long": sampledLong,
	"serve-mix":    serveMix,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "aa" {
		os.Exit(aaMain(os.Args[2:]))
	}
	var opt options
	var traced int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs (arb-pressure matrices, serve-mix stream)")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: spans, CPU profile, per-layer metrics")
	flag.StringVar(&opt.msserve, "msserve", filepath.Join(".bench_build", "perfbench", "msserve"), "msserve binary (serve-mix)")
	flag.StringVar(&opt.spans, "spans", "", "traced run: write spans here (default .bench_build/perfbench/spans-<workload>.jsonl)")
	flag.Parse()
	opt.traced = traced == 1
	opt.log = os.Stderr
	if opt.spans == "" && opt.traced {
		opt.spans = filepath.Join(".bench_build", "perfbench", "spans-"+opt.workload+".jsonl")
	}

	// The same collector setting as msbench and msserve, the commands
	// whose work this measures.
	debug.SetGCPercent(400)
	res, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload and returns the result line.
func runWorkload(opt options) (*result, error) {
	fn := workloadFuncs[opt.workload]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	r := newRun(opt)
	if err := fn(r); err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s attempted no operation", opt.workload)
	}
	metrics := r.e2e
	if r.tr != nil {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
		metrics = r.layers
	}
	r.logMetrics(opt.workload+" figures (log only)", r.notes)
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}
