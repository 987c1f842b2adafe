package main

import (
	"fmt"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/bench"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/sample"
	"multiscalar/internal/workloads"
)

// sampledScale stretches the workloads' default scale for sampled-long,
// as msbench -sampled does: sampling pays off on long runs.
const sampledScale = 16

var sampledNames = []string{"example", "wc"}

// sampledLong times OpSampled jobs with default sampling parameters on
// the suite's two longest workloads at 16× scale, on 8 two-way
// out-of-order units. The exact detailed runs that check the intervals
// run after the timed phase and count in no metric.
func sampledLong(r *run) error {
	cfg := core.DefaultConfig(8, 2, true)
	type item struct {
		name   string
		spec   *job.Spec
		oracle *job.Oracle
		ests   []*sample.Estimate
	}
	items := make([]*item, len(sampledNames))
	var sourceBytes, oracleInstrs float64
	err := r.setup(func() error {
		sourceBytes, oracleInstrs = 0, 0
		for i, name := range sampledNames {
			w := workloads.Get(name)
			scale := sampledScale * w.DefaultScale
			if r.opt.small {
				scale = sampledScale * w.TestScale
			}
			src := w.Source(scale)
			p, o, err := r.build(name, src, asm.ModeMultiscalar)
			if err != nil {
				return err
			}
			items[i] = &item{name: name, oracle: o,
				spec: &job.Spec{Op: job.OpSampled, Program: p, Config: cfg}}
			sourceBytes += float64(len(src))
			oracleInstrs += float64(o.ICount)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.buildLayers(sourceBytes, oracleInstrs, r.setups())

	// Windows run serially: the sampled runner is the bench pool.
	bench.SetWorkers(1)
	var sampledMS []float64
	var instrs float64
	err = r.timed(func(int) error {
		instrs = 0
		for _, it := range items {
			var out *job.Output
			var err error
			s0 := time.Now()
			r.tr.do("job.Execute", it.name, func() { out, err = job.Execute(it.spec, nil) })
			sampledMS = append(sampledMS, sinceMS(s0))
			if err != nil {
				r.op(fmt.Errorf("%s sampled: %w", it.name, err))
				continue
			}
			it.ests = append(it.ests, out.Sampled)
			instrs += float64(out.Sampled.TotalInstrs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metric("sim_mips", "MIPS", r.unitRate(instrs)/1e6)
	r.metric("max_rss_mb", "MB", r.rssMB)

	// Outside timing: one exact detailed run per workload, and every
	// estimate checked against it and the oracle. The exact runs also
	// give the per-layer counts and host time per simulated cycle.
	widest := 0.0
	var windows, detailed, exactCycles, exactMS float64
	var exact []*core.Result
	for _, it := range items {
		sim := *it.spec
		sim.Op = job.OpSimulate
		t0 := time.Now()
		out, err := job.Execute(&sim, nil)
		ms := sinceMS(t0)
		if err == nil {
			err = checkSim(out.Result, it.oracle, cfg.NumUnits)
		}
		if err != nil {
			for range it.ests {
				r.op(fmt.Errorf("%s exact run: %w", it.name, err))
			}
			continue
		}
		exact = append(exact, out.Result)
		exactMS += ms
		exactCycles += float64(out.Result.Cycles)
		for _, est := range it.ests {
			if err := checkEstimate(est, it.oracle, out.Result.Cycles); err != nil {
				r.op(fmt.Errorf("%s: %w", it.name, err))
				continue
			}
			r.op(nil)
			widest = max(widest, ciHalfWidthPct(est))
		}
		if len(it.ests) > 0 {
			est := it.ests[0]
			windows += float64(est.Windows)
			detailed += float64(est.DetailedCycles)
		}
	}
	r.note("ci_halfwidth_pct", "%", widest)
	if r.tr == nil {
		return nil
	}
	r.note("sample.sampled_ms", "ms", median(sampledMS))
	r.note("sample.windows", "count", windows)
	r.note("sample.detailed_cycles", "count", detailed)
	r.note("sample.detail_reduction", "x", exactCycles/detailed)
	if len(exact) == 0 {
		return fmt.Errorf("no exact run passed its checks")
	}
	r.layer("core.ns_per_cycle", "ns", 1e6*exactMS/exactCycles)
	r.resultLayers(exact)
	specs := make([]*job.Spec, len(items))
	for i, it := range items {
		specs[i] = it.spec
	}
	if err := r.keyLayer(specs); err != nil {
		return err
	}
	return r.snapshotLayers(items[len(items)-1].spec.Program, cfg)
}
