package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
	"multiscalar/internal/sample"
)

// The checks compare each result with a reference made apart from the
// timed path — the functional interpreter on a separately built program,
// a computation in Go, or a property the method must have. They are
// plain functions so the package's tests can show each one fails on a
// corrupted result.

// checkSim holds a timing result to the oracle: same output, same
// committed instruction count. On a multiscalar point (units > 1) every
// unit-cycle must also be accounted exactly once: the activity classes
// plus the squashed unit-cycles sum to units × cycles.
func checkSim(res *core.Result, o *job.Oracle, units int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Out != o.Out {
		return fmt.Errorf("output %q, oracle %q", clip(res.Out), clip(o.Out))
	}
	if res.Committed != o.ICount {
		return fmt.Errorf("committed %d instructions, oracle executed %d", res.Committed, o.ICount)
	}
	if res.Cycles == 0 {
		return fmt.Errorf("zero cycles")
	}
	if units > 1 {
		var acct uint64
		for _, a := range res.Activity {
			acct += a
		}
		acct += res.SquashedCycles
		if want := uint64(units) * res.Cycles; acct != want {
			return fmt.Errorf("unit-cycle accounting %d, units×cycles %d", acct, want)
		}
	}
	return nil
}

// checkEstimate holds a sampled estimate to the oracle (exact instruction
// count and output) and to the exact detailed run: its cycles must lie in
// the estimate's 95% interval.
func checkEstimate(est *sample.Estimate, o *job.Oracle, exactCycles uint64) error {
	if est == nil {
		return fmt.Errorf("no estimate")
	}
	if est.TotalInstrs != o.ICount {
		return fmt.Errorf("estimate counts %d instructions, oracle executed %d", est.TotalInstrs, o.ICount)
	}
	if est.Out != o.Out {
		return fmt.Errorf("estimate output %q, oracle %q", clip(est.Out), clip(o.Out))
	}
	if exactCycles < est.CyclesLow || exactCycles > est.CyclesHi {
		return fmt.Errorf("exact run took %d cycles, outside the 95%% interval [%d, %d]",
			exactCycles, est.CyclesLow, est.CyclesHi)
	}
	return nil
}

// ciHalfWidthPct is an estimate's relative 95% half-width in percent.
func ciHalfWidthPct(est *sample.Estimate) float64 {
	return 100 * float64(est.CyclesHi-est.CyclesLow) / 2 / float64(est.EstCycles)
}

// checkResubmit holds a resubmitted sweep's response to the sweep's
// first response, kept as each job's SHA-256: every job answered from
// the cache, and each job's result byte-identical to its first apart
// from the cached flag, which a resubmission must set.
func checkResubmit(first [][32]byte, body []byte) error {
	var b batchResponse
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decoding resubmission: %w", err)
	}
	if b.Count != len(first) || b.Cached != b.Count || b.Executed != 0 || b.Errors != 0 || len(b.Results) != b.Count {
		return fmt.Errorf("resubmission: %d jobs, %d cached, %d executed, %d errors, %d results; want all %d cached",
			b.Count, b.Cached, b.Executed, b.Errors, len(b.Results), len(first))
	}
	for i, jr := range b.Results {
		fixed := bytes.Replace(jr.Result, []byte(`"cached":true`), []byte(`"cached":false`), 1)
		if bytes.Equal(fixed, jr.Result) {
			return fmt.Errorf("resubmitted job %d was not answered from the cache", i)
		}
		if jr.Index != i || sha256.Sum256(fixed) != first[i] {
			return fmt.Errorf("resubmitted job %d (%d bytes) differs from its first response", i, len(jr.Result))
		}
	}
	return nil
}

// checkFractions holds one Section 3 breakdown row to its definition:
// the five activity classes and the squashed share partition all
// unit-cycles.
func checkFractions(name string, parts ...float64) error {
	if s := sum(parts); math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("%s: cycle fractions sum to %.12f", name, s)
	}
	return nil
}

// build assembles src and runs the functional oracle over it, inside the
// asm.Assemble and interp.Run spans.
func (r *run) build(name, src string, mode asm.Mode) (*isa.Program, *job.Oracle, error) {
	var p *isa.Program
	var o *job.Oracle
	var err error
	r.tr.do("asm.Assemble", name, func() { p, err = asm.Assemble(src, mode) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	r.tr.do("interp.Run", name, func() { o, err = job.RunOracle(p, nil, 0) })
	if err != nil {
		return nil, nil, fmt.Errorf("%s oracle: %w", name, err)
	}
	return p, o, nil
}

// buildLayers reports the assembly and oracle spans per pass over the
// workload's programs (passes of them were spanned): asm.build_ms,
// asm.source_kb, interp.oracle_ms and interp.oracle_mips.
func (r *run) buildLayers(sourceBytes, oracleInstrs float64, passes int) {
	if r.tr == nil {
		return
	}
	st := r.tr.stats()
	n := float64(passes)
	if s := st["asm.Assemble"]; s != nil {
		r.layer("asm.build_ms", "ms", s.Total/1e3/n)
	}
	r.layer("asm.source_kb", "KB", sourceBytes/1024)
	if s := st["interp.Run"]; s != nil {
		r.layer("interp.oracle_ms", "ms", s.Total/1e3/n)
		r.layer("interp.oracle_mips", "MIPS", oracleInstrs*n/s.Total)
	}
}

// keyRounds is how many times keyLayer keys each spec.
const keyRounds = 20

// keyLayer times job.Spec.Key over the workload's specs, keyRounds times
// each (job.key_us, the median call).
func (r *run) keyLayer(specs []*job.Spec) error {
	var err error
	r.traced(func() {
		var us []float64
		for i := 0; i < keyRounds; i++ {
			for _, s := range specs {
				t0 := time.Now()
				r.tr.do("job.Key", s.Workload, func() { _, err = s.Key() })
				us = append(us, sinceMS(t0)*1e3)
				if err != nil {
					return
				}
			}
		}
		r.layer("job.key_us", "us", median(us))
	})
	return err
}

// resultLayers reports the simulated-time counts of a set of timing
// results: core, pu, arb, mem and predict. They repeat exactly, so they
// tell less work from faster work when a host-speed metric moves.
func (r *run) resultLayers(results []*core.Result) {
	var c core.Result
	for _, res := range results {
		c.Cycles += res.Cycles
		c.CyclesTicked += res.CyclesTicked
		c.Committed += res.Committed
		c.TasksSquashed += res.TasksSquashed
		for i, a := range res.Activity {
			c.Activity[i] += a
		}
		c.SquashedCycles += res.SquashedCycles
		c.ARBAllocs += res.ARBAllocs
		c.ARBOverflows += res.ARBOverflows
		c.ARBPeakOccupancy = max(c.ARBPeakOccupancy, res.ARBPeakOccupancy)
		c.ARBViolations += res.ARBViolations
		c.ARBStoreForwards += res.ARBStoreForwards
		c.DCacheMisses += res.DCacheMisses
		c.ICacheMisses += res.ICacheMisses
		c.DBankConflicts += res.DBankConflicts
		c.BusRequests += res.BusRequests
		c.Predictions += res.Predictions
		c.PredCorrect += res.PredCorrect
	}
	r.layer("core.cycles", "count", float64(c.Cycles))
	r.layer("core.cycles_ticked", "count", float64(c.CyclesTicked))
	r.layer("core.committed", "count", float64(c.Committed))
	r.layer("core.tasks_squashed", "count", float64(c.TasksSquashed))
	for a := pu.Activity(0); a < pu.NumActivities; a++ {
		r.layer("pu.unit_cycles."+a.String(), "count", float64(c.Activity[a]))
	}
	r.layer("pu.squashed_unit_cycles", "count", float64(c.SquashedCycles))
	r.layer("arb.allocs", "count", float64(c.ARBAllocs))
	r.layer("arb.overflows", "count", float64(c.ARBOverflows))
	r.layer("arb.peak_occupancy", "entries", float64(c.ARBPeakOccupancy))
	r.layer("arb.violations", "count", float64(c.ARBViolations))
	r.layer("arb.store_forwards", "count", float64(c.ARBStoreForwards))
	r.layer("mem.dcache_misses", "count", float64(c.DCacheMisses))
	r.layer("mem.icache_misses", "count", float64(c.ICacheMisses))
	r.layer("mem.bank_conflicts", "count", float64(c.DBankConflicts))
	r.layer("mem.bus_requests", "count", float64(c.BusRequests))
	r.layer("predict.predictions", "count", float64(c.Predictions))
	r.layer("predict.correct", "count", float64(c.PredCorrect))
}

// snapshotLayers times Save and Restore of a finished multiscalar
// machine running p under cfg (snapshot.bytes, save_ms, restore_ms).
func (r *run) snapshotLayers(p *isa.Program, cfg core.Config) error {
	var err error
	r.traced(func() {
		err = func() error {
			m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
			if err != nil {
				return err
			}
			r.tr.do("core.Run", "snapshot", func() { _, err = m.Run() })
			if err != nil {
				return err
			}
			var snap []byte
			var saves, restores []float64
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				r.tr.do("snapshot.Save", "snapshot", func() { snap, err = m.Save() })
				saves = append(saves, sinceMS(t0))
				if err != nil {
					return err
				}
				m2, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
				if err != nil {
					return err
				}
				t0 = time.Now()
				r.tr.do("snapshot.Restore", "snapshot", func() { err = m2.Restore(snap) })
				restores = append(restores, sinceMS(t0))
				if err != nil {
					return err
				}
			}
			r.layer("snapshot.bytes", "bytes", float64(len(snap)))
			r.layer("snapshot.save_ms", "ms", median(saves))
			r.layer("snapshot.restore_ms", "ms", median(restores))
			return nil
		}()
	})
	return err
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}
