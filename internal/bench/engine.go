package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
	"multiscalar/internal/workloads"
)

// The harness fans independent simulation jobs (one per workload ×
// configuration point) out over a bounded worker pool. Results land in
// index-addressed slices, so formatted tables are byte-identical to the
// sequential path regardless of completion order.

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// SetWorkers bounds the number of concurrent simulation jobs. 1 forces
// the fully sequential path (the msbench -seq flag); values above
// GOMAXPROCS buy nothing but are harmless.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workers.Store(int64(n))
}

// Workers returns the current job-pool bound.
func Workers() int { return int(workers.Load()) }

// RunJobs runs fn(0..n-1), fanning out across the worker pool. Each fn
// writes its result into its own slot of a caller-owned slice; RunJobs
// returns the lowest-index error so failures are deterministic. It is
// exported for the serve engine, whose batch submissions fan out over
// this same pool.
func RunJobs(n int, fn func(i int) error) error { return runJobs(n, fn) }

// runJobs is RunJobs; the harness's own sections call it directly.
func runJobs(n int, fn func(i int) error) error {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, w)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// The harness keeps two single-flight memos, both keyed by job.Spec
// keys and dropped by ResetMemo:
//
//   - oracles: per assemble spec (workload, mode, resolved scale), the
//     program job.Spec.Resolve builds — itself memoized by job — and the
//     functional oracle job.RunOracle computes over it.
//   - sims: per simulate spec (program, canonical config), the verified
//     core.Result of one job.Execute.
//
// The sections overlap heavily: every ablation sweep contains the
// unablated Section 5.1 configuration, the breakdown re-runs the main
// tables' 8-unit points, and the speedup curves re-run their scalar
// baselines and 4/8-unit points. The first request for a point simulates
// it; every duplicate gets a copy of the stored Result, which is
// identical to an independent full run (TestRunSharingMatchesIsolated).

var (
	oracles memo[built]
	sims    memo[core.Result]

	// buildsPerformed counts oracle-memo misses (build + oracle runs);
	// runsRestored counts simulation points answered from the sims memo.
	// Both feed the JSON report and the tests.
	buildsPerformed, runsRestored atomic.Uint64
)

// memo is a single-flight map: the first caller for a key runs the work,
// concurrent callers wait for it and share its value and error.
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

// do returns the value for key, running fn once per key. first reports
// whether this call ran fn.
func (m *memo[T]) do(key string, fn func() (T, error)) (val T, first bool, err error) {
	m.mu.Lock()
	f := m.m[key]
	if f == nil {
		if m.m == nil {
			m.m = map[string]*flight[T]{}
		}
		f = &flight[T]{}
		m.m[key] = f
	}
	m.mu.Unlock()
	f.once.Do(func() { first = true; f.val, f.err = fn() })
	return f.val, first, f.err
}

func (m *memo[T]) reset() {
	m.mu.Lock()
	m.m = nil
	m.mu.Unlock()
}

type built struct {
	prog   *isa.Program
	oracle *job.Oracle
}

// buildOracle returns workload w built in the given mode and its
// functional oracle, memoized per assemble-spec key. The returned Program
// is shared and must not be mutated — clone (cloneProgram) before
// transforming it.
func buildOracle(w *workloads.Workload, mode asm.Mode, scale Scale) (*isa.Program, *job.Oracle, error) {
	spec := &job.Spec{Op: job.OpAssemble, Workload: w.Name, Mode: mode, Scale: scale.of(w)}
	key, err := spec.Key()
	if err != nil {
		return nil, nil, err
	}
	b, _, err := oracles.do(key, func() (built, error) {
		buildsPerformed.Add(1)
		p, err := spec.Resolve()
		if err != nil {
			return built{}, err
		}
		o, err := job.RunOracle(p, nil, 0)
		return built{p, o}, err
	})
	return b.prog, b.oracle, err
}

// ResetMemo drops the oracle and simulation memos and job's build memo
// (tests and long-lived hosts).
func ResetMemo() {
	oracles.reset()
	sims.reset()
	job.ResetBuildMemo()
}

// BuildsPerformed returns how many assemble+oracle executions have
// actually run in this process (memo misses).
func BuildsPerformed() uint64 { return buildsPerformed.Load() }

// RunsRestored reports how many simulation points were answered from the
// memo of verified results rather than simulated again.
func RunsRestored() uint64 { return runsRestored.Load() }

// runShared simulates one (program, configuration) point through
// job.Execute and checks it against oracle o, memoized per simulate-spec
// key. The spec does not set Verify: o is the memoized oracle, so the
// program is not interpreted again for every point. what labels errors.
func runShared(p *isa.Program, o *job.Oracle, cfg core.Config, what string) (*core.Result, error) {
	spec := job.Spec{Op: job.OpSimulate, Program: p, Config: cfg}
	key, err := spec.Key()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	res, first, err := sims.do(key, func() (core.Result, error) {
		out, err := job.Execute(&spec, nil)
		if err != nil {
			return core.Result{}, err
		}
		r := out.Result
		if r.Out != o.Out || r.Committed != o.ICount {
			return core.Result{}, fmt.Errorf("diverged from oracle (committed %d vs %d)", r.Committed, o.ICount)
		}
		recordRun(r)
		return *r, nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if !first {
		runsRestored.Add(1)
	}
	return &res, nil
}

// cloneProgram returns a copy whose Text may be mutated freely (the
// ablations transform binaries in place). Data, task descriptors and
// symbols stay shared: nothing in the repository writes to them.
func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Text = append([]isa.Instr(nil), p.Text...)
	return &q
}

// Aggregate simulated-work counters behind the JSON report's throughput
// numbers. Every verified timing run adds its cycles and committed
// instructions; ticked counts the cycles the timing loops actually
// executed (cycles-ticked < cycles means the wakeup scheduler jumped
// stall windows — the skip ratio the JSON report derives).
var simCycles, simTicked, simInstrs, simRuns atomic.Uint64

func recordRun(res *core.Result) {
	simCycles.Add(res.Cycles)
	simTicked.Add(res.CyclesTicked)
	simInstrs.Add(res.Committed)
	simRuns.Add(1)
}

// SimTotals reports the cumulative simulated work of this process:
// timing-simulator runs, simulated cycles, and committed instructions.
func SimTotals() (runs, cycles, instrs uint64) {
	return simRuns.Load(), simCycles.Load(), simInstrs.Load()
}

// SimTicked reports the cumulative cycles the timing loops actually
// executed (see SimTotals; the difference from cycles is what the wakeup
// scheduler skipped).
func SimTicked() uint64 { return simTicked.Load() }
