package main

import (
	"fmt"
	"math"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/bench"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// suiteRef is one suite workload's reference: the functional oracle of a
// separately built scalar and multiscalar binary.
type suiteRef struct {
	scalar, multi *job.Oracle
}

// paperSuite regenerates everything msbench -all computes, through
// internal/bench with one worker, from cold memos in every unit. The
// references come from the set-up: each workload built apart from the
// harness's memo and run on the functional interpreter.
func paperSuite(r *run) error {
	scale := bench.Scale(0)
	if r.opt.small {
		scale = -1
	}
	ws := workloads.All()
	resolved := func(w *workloads.Workload) int {
		if scale < 0 {
			return w.TestScale
		}
		return w.DefaultScale
	}

	refs := map[string]suiteRef{}
	var specs []*job.Spec // the multiscalar builds on the 8-unit machine (job.key_us)
	var sourceBytes, oracleInstrs float64
	err := r.setup(func() error {
		sourceBytes, oracleInstrs, specs = 0, 0, nil
		for _, w := range ws {
			src := w.Source(resolved(w))
			_, so, err := r.build(w.Name, src, asm.ModeScalar)
			if err != nil {
				return err
			}
			mp, mo, err := r.build(w.Name, src, asm.ModeMultiscalar)
			if err != nil {
				return err
			}
			refs[w.Name] = suiteRef{so, mo}
			specs = append(specs, &job.Spec{Op: job.OpSimulate, Program: mp, Config: core.DefaultConfig(8, 1, false)})
			sourceBytes += 2 * float64(len(src))
			oracleInstrs += float64(so.ICount + mo.ICount)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.buildLayers(sourceBytes, oracleInstrs, r.setups())

	bench.SetWorkers(1)
	var (
		instrs                    float64
		sections                  = map[string][]float64{}
		simRuns, restored, builds float64
		simCycles                 float64
		detail                    []*core.Result
	)
	err = r.timed(func(i int) error {
		bench.ResetMemo()
		job.ResetBuildMemo()
		runs0, cycles0, _ := bench.SimTotals()
		restored0, builds0 := bench.RunsRestored(), bench.BuildsPerformed()
		instrs, detail = suiteUnit(r, scale, refs, sections)
		runs1, cycles1, _ := bench.SimTotals()
		simRuns = float64(runs1 - runs0)
		simCycles = float64(cycles1 - cycles0)
		restored = float64(bench.RunsRestored() - restored0)
		builds = float64(bench.BuildsPerformed() - builds0)
		return nil
	})
	if err != nil {
		return err
	}
	r.metric("sim_mips", "MIPS", r.unitRate(instrs)/1e6)
	r.metric("max_rss_mb", "MB", r.rssMB)

	if r.tr == nil {
		return nil
	}
	for name, secs := range sections {
		r.note("bench.section_s."+name, "s", median(secs))
	}
	r.note("bench.sim_runs", "count", simRuns)
	r.note("bench.runs_restored", "count", restored)
	r.note("bench.builds", "count", builds)
	r.layer("core.ns_per_cycle", "ns", 1e9*median(append(r.plainUnits, r.tracedUnits...))/simCycles)
	r.resultLayers(detail)
	if err := r.keyLayer(specs); err != nil {
		return err
	}
	w := workloads.Get("example")
	p, err := w.Build(asm.ModeMultiscalar, resolved(w))
	if err != nil {
		return err
	}
	return r.snapshotLayers(p, core.DefaultConfig(8, 1, false))
}

// suiteUnit runs one msbench -all regeneration, checking every result it
// reports. It returns the simulated instructions whose timing the unit
// reports — each simulation point's committed count, restored points
// included — and the 4- and 8-unit results of Tables 3 and 4.
func suiteUnit(r *run, scale bench.Scale, refs map[string]suiteRef, secs map[string][]float64) (float64, []*core.Result) {
	var instrs float64
	var detail []*core.Result
	section := func(name string, fn func() error) {
		t0 := time.Now()
		var err error
		r.tr.do("bench."+name, name, func() { err = fn() })
		secs[name] = append(secs[name], sinceMS(t0)/1e3)
		if err != nil {
			r.op(fmt.Errorf("%s: %w", name, err))
		}
	}

	section("table2", func() error {
		rows, err := bench.Table2(scale)
		if err != nil {
			return err
		}
		_ = bench.FormatTable2(rows)
		for _, row := range rows {
			ref := refs[row.Name]
			switch {
			case ref.scalar.Out != ref.multi.Out:
				r.op(fmt.Errorf("table2 %s: scalar and multiscalar builds disagree on output", row.Name))
			case row.Scalar != ref.scalar.ICount || row.Multi != ref.multi.ICount:
				r.op(fmt.Errorf("table2 %s: counts %d/%d, oracle %d/%d", row.Name,
					row.Scalar, row.Multi, ref.scalar.ICount, ref.multi.ICount))
			default:
				r.op(nil)
			}
		}
		return nil
	})
	for _, sec := range []struct {
		name string
		ooo  bool
	}{{"table3", false}, {"table4", true}} {
		section(sec.name, func() error {
			for _, width := range []int{1, 2} {
				rows, err := bench.PerfTable(width, sec.ooo, scale)
				if err != nil {
					return err
				}
				_ = bench.FormatPerfTable(sec.name, rows)
				for _, row := range rows {
					ref := refs[row.Name]
					if row.ScalarCycles == 0 {
						r.op(fmt.Errorf("%s %s scalar: zero cycles", sec.name, row.Name))
					} else {
						r.op(nil)
					}
					for _, d := range []struct {
						units int
						res   *core.Result
					}{{4, row.Detail4}, {8, row.Detail8}} {
						if err := checkSim(d.res, ref.multi, d.units); err != nil {
							r.op(fmt.Errorf("%s %s %d units width %d: %w", sec.name, row.Name, d.units, width, err))
						} else {
							r.op(nil)
						}
						detail = append(detail, d.res)
					}
					instrs += float64(ref.scalar.ICount + 2*ref.multi.ICount)
				}
			}
			return nil
		})
	}
	section("breakdown", func() error {
		rows, err := bench.Breakdown(8, scale)
		if err != nil {
			return err
		}
		_ = bench.FormatBreakdown(rows)
		for _, row := range rows {
			r.op(checkFractions("breakdown "+row.Name, row.Compute, row.WaitPred, row.WaitIntra,
				row.WaitRetire, row.Idle, row.Squashed))
			instrs += float64(refs[row.Name].multi.ICount)
		}
		return nil
	})
	section("ablate", func() error {
		for _, ab := range []struct {
			workload string
			run      func() ([]bench.AblationRow, error)
		}{
			{"example", func() ([]bench.AblationRow, error) { return bench.UnitSweep("example", scale, []int{1, 2, 4, 8, 16}) }},
			{"compress", func() ([]bench.AblationRow, error) {
				return bench.RingLatencySweep("compress", scale, []int{0, 1, 2, 4, 8})
			}},
			{"tomcatv", func() ([]bench.AblationRow, error) { return bench.ARBSweep("tomcatv", scale, []int{2, 8, 256}) }},
			{"wc", func() ([]bench.AblationRow, error) { return bench.ForwardingAblation("wc", scale) }},
			{"gcc", func() ([]bench.AblationRow, error) { return bench.PredictorAblation("gcc", scale) }},
			{"tomcatv", func() ([]bench.AblationRow, error) { return bench.SharedFUAblation("tomcatv", scale) }},
		} {
			rows, err := ab.run()
			if err != nil {
				return err
			}
			_ = bench.FormatAblation(ab.workload, rows)
			for _, row := range rows {
				// Every row's speedup is relative to the sweep's first row.
				want := float64(rows[0].Cycles) / float64(row.Cycles)
				if row.Cycles == 0 || math.Abs(row.Speedup-want) > 1e-12*want {
					r.op(fmt.Errorf("ablation %s %q: %d cycles, speedup %v", ab.workload, row.Label, row.Cycles, row.Speedup))
				} else {
					r.op(nil)
				}
				instrs += float64(refs[ab.workload].multi.ICount)
			}
		}
		return nil
	})
	section("sweep", func() error {
		units := []int{2, 4, 8, 16}
		curves, err := bench.SpeedupCurves(1, false, scale, units)
		if err != nil {
			return err
		}
		_ = bench.FormatCurves("sweep", curves)
		for _, c := range curves {
			for _, sp := range c.Speedups {
				if !(sp > 0) || math.IsInf(sp, 0) {
					r.op(fmt.Errorf("sweep %s: speedup %v", c.Name, sp))
				} else {
					r.op(nil)
				}
			}
			ref := refs[c.Name]
			instrs += float64(ref.scalar.ICount + uint64(len(units))*ref.multi.ICount)
		}
		return nil
	})
	section("mix", func() error {
		rows, err := bench.Mixes(scale)
		if err != nil {
			return err
		}
		_ = bench.FormatMixes(rows)
		for _, row := range rows {
			o := refs[row.Name].multi
			if row.Total != o.ICount || row.Loads != o.Loads || row.Stores != o.Stores || row.Branches != o.Branches {
				r.op(fmt.Errorf("mix %s: %d/%d/%d/%d, oracle %d/%d/%d/%d", row.Name, row.Total, row.Loads,
					row.Stores, row.Branches, o.ICount, o.Loads, o.Stores, o.Branches))
			} else {
				r.op(nil)
			}
		}
		return nil
	})
	return instrs, detail
}
