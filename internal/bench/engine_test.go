package bench

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/interp"
	"multiscalar/internal/isa"
	"multiscalar/internal/workloads"
)

// withWorkers runs the body under a specific pool bound, restoring the
// process-wide setting afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	fn()
}

func TestMemoReturnsIdenticalProgram(t *testing.T) {
	ResetMemo()
	w := workloads.Get("wc")
	if w == nil {
		t.Fatal("workload wc missing")
	}
	before := BuildsPerformed()
	p1, o1, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	p2, o2, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("memo hit returned a different *isa.Program")
	}
	if o1 != o2 {
		t.Errorf("memo hit returned a different oracle: %+v vs %+v", o1, o2)
	}
	if got := BuildsPerformed() - before; got != 1 {
		t.Errorf("builds performed = %d, want 1", got)
	}
	// A different key builds again.
	if _, _, err := buildOracle(w, asm.ModeScalar, -1); err != nil {
		t.Fatal(err)
	}
	if got := BuildsPerformed() - before; got != 2 {
		t.Errorf("builds performed = %d, want 2", got)
	}
}

// TestMemoSingleFlight races many first requests for the same key: exactly
// one build must run, and every caller must share its result. Run under
// -race in CI.
func TestMemoSingleFlight(t *testing.T) {
	ResetMemo()
	w := workloads.Get("cmp")
	if w == nil {
		t.Fatal("workload cmp missing")
	}
	before := BuildsPerformed()
	const goroutines = 16
	progs := make([]*isa.Program, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i], _, errs[i] = buildOracle(w, asm.ModeMultiscalar, -1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if progs[i] != progs[0] {
			t.Errorf("goroutine %d got a different *isa.Program", i)
		}
	}
	if got := BuildsPerformed() - before; got != 1 {
		t.Errorf("builds performed = %d, want 1 (single flight)", got)
	}
}

func TestRunJobsReturnsLowestIndexError(t *testing.T) {
	errAt := func(bad ...int) func(i int) error {
		return func(i int) error {
			for _, b := range bad {
				if i == b {
					return fmt.Errorf("job %d failed", i)
				}
			}
			return nil
		}
	}
	for _, workers := range []int{1, 8} {
		withWorkers(t, workers, func() {
			err := runJobs(10, errAt(7, 3, 9))
			if err == nil || err.Error() != "job 3 failed" {
				t.Errorf("workers=%d: err = %v, want job 3's", workers, err)
			}
			if err := runJobs(10, errAt()); err != nil {
				t.Errorf("workers=%d: unexpected error %v", workers, err)
			}
		})
	}
}

func TestRunJobsRunsEveryJob(t *testing.T) {
	withWorkers(t, 4, func() {
		hit := make([]bool, 50)
		if err := runJobs(len(hit), func(i int) error { hit[i] = true; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, h := range hit {
			if !h {
				t.Errorf("job %d never ran", i)
			}
		}
	})
}

// TestParallelMatchesSequential is the determinism contract: every table
// and sweep must format byte-identically whether jobs run on 1 worker or
// many, regardless of completion order.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table twice")
	}
	sections := map[string]func() (string, error){
		"table2": func() (string, error) {
			rows, err := Table2(-1)
			return FormatTable2(rows), err
		},
		"perftable": func() (string, error) {
			rows, err := PerfTable(1, false, -1)
			return FormatPerfTable("t", rows), err
		},
		"breakdown": func() (string, error) {
			rows, err := Breakdown(4, -1)
			return FormatBreakdown(rows), err
		},
		"curves": func() (string, error) {
			curves, err := SpeedupCurves(1, false, -1, []int{2, 4, 8})
			return FormatCurves("c", curves), err
		},
		"mixes": func() (string, error) {
			rows, err := Mixes(-1)
			return FormatMixes(rows), err
		},
		"unitsweep": func() (string, error) {
			rows, err := UnitSweep("cmp", -1, []int{1, 2, 4, 8})
			return FormatAblation("u", rows), err
		},
		"ringsweep": func() (string, error) {
			rows, err := RingLatencySweep("compress", -1, []int{0, 1, 4})
			return FormatAblation("r", rows), err
		},
		"arbsweep": func() (string, error) {
			rows, err := ARBSweep("tomcatv", -1, []int{2, 256})
			return FormatAblation("a", rows), err
		},
		"forwarding": func() (string, error) {
			rows, err := ForwardingAblation("wc", -1)
			return FormatAblation("f", rows), err
		},
		"predictor": func() (string, error) {
			rows, err := PredictorAblation("gcc", -1)
			return FormatAblation("p", rows), err
		},
		"sharedfu": func() (string, error) {
			rows, err := SharedFUAblation("tomcatv", -1)
			return FormatAblation("s", rows), err
		},
	}
	for name, section := range sections {
		t.Run(name, func(t *testing.T) {
			var seq, par string
			var err error
			withWorkers(t, 1, func() { seq, err = section() })
			if err != nil {
				t.Fatal(err)
			}
			withWorkers(t, 8, func() { par, err = section() })
			if err != nil {
				t.Fatal(err)
			}
			if seq != par {
				t.Errorf("parallel output differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
			}
		})
	}
}

// TestConcurrentWorkloadsEndToEnd drives two different workloads through
// the full path — assemble, functional oracle, timing simulation, oracle
// verification — at the same time. Backed by -race in CI, it is the
// shared-state audit for workloads.Workload.Build and interp.NewSysEnv.
func TestConcurrentWorkloadsEndToEnd(t *testing.T) {
	ResetMemo()
	names := []string{"wc", "tomcatv", "cmp", "compress"}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			w := workloads.Get(name)
			if w == nil {
				errs[i] = errors.New(name + " missing")
				return
			}
			for units := 1; units <= 4; units *= 4 {
				if _, err := runOne(w, -1, units, 1, false); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}

func TestCloneProgramIsolatesText(t *testing.T) {
	ResetMemo()
	w := workloads.Get("wc")
	p, _, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	q := cloneProgram(p)
	if len(q.Text) == 0 || &q.Text[0] == &p.Text[0] {
		t.Fatal("clone shares Text backing array")
	}
	orig := p.Text[0]
	q.Text[0].Fwd = !q.Text[0].Fwd
	if p.Text[0] != orig {
		t.Error("mutating the clone changed the memoized program")
	}
}

// TestRunSharingMatchesIsolated pins the shared-run memo's contract: a
// duplicate simulation point, answered from the memo of verified
// results, gets its own copy of a Result identical to the first run's
// and to a fresh, isolated full simulation.
func TestRunSharingMatchesIsolated(t *testing.T) {
	ResetMemo()
	w := workloads.Get("wc")
	if w == nil {
		t.Fatal("workload wc missing")
	}
	p, o, err := buildOracle(w, asm.ModeMultiscalar, -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4, 1, false)

	first, err := runShared(p, o, cfg, "first point")
	if err != nil {
		t.Fatal(err)
	}
	before := RunsRestored()
	dup, err := runShared(p, o, cfg, "duplicate point")
	if err != nil {
		t.Fatal(err)
	}
	if got := RunsRestored() - before; got != 1 {
		t.Fatalf("RunsRestored delta = %d, want 1 (duplicate must come from the memo)", got)
	}
	if first == dup {
		t.Error("duplicate shares the first run's *core.Result")
	}

	// Isolated reference: a fresh machine simulating the point in full,
	// outside the memo.
	m, err := core.NewMultiscalar(p, interp.NewSysEnv(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	isolated, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dup, isolated) {
		t.Errorf("memoized duplicate diverges from isolated run:\nmemoized: %+v\nisolated: %+v", dup, isolated)
	}
	if !reflect.DeepEqual(first, dup) {
		t.Errorf("memoized duplicate diverges from the first run:\nfirst: %+v\ndup:   %+v", first, dup)
	}
}

// TestAllWorkCounters pins the work an msbench -all -quick run does:
// the sections -all runs, in its order (the ablation list mirrors
// cmd/msbench's runAblations), from cold memos. The counters are
// host-independent — single flight makes every key build or simulate
// exactly once whatever the worker count — so a change that adds,
// drops or duplicates work fails here.
func TestAllWorkCounters(t *testing.T) {
	ResetMemo()
	runs0, cycles0, instrs0 := SimTotals()
	ticked0, restored0, builds0 := SimTicked(), RunsRestored(), BuildsPerformed()

	const scale = Scale(-1)
	steps := []func() error{
		func() error { _, err := Table2(scale); return err },
		func() error { _, err := PerfTable(1, false, scale); return err },
		func() error { _, err := PerfTable(2, false, scale); return err },
		func() error { _, err := PerfTable(1, true, scale); return err },
		func() error { _, err := PerfTable(2, true, scale); return err },
		func() error { _, err := Breakdown(8, scale); return err },
		func() error { _, err := UnitSweep("example", scale, []int{1, 2, 4, 8, 16}); return err },
		func() error { _, err := RingLatencySweep("compress", scale, []int{0, 1, 2, 4, 8}); return err },
		func() error { _, err := ARBSweep("tomcatv", scale, []int{2, 8, 256}); return err },
		func() error { _, err := ForwardingAblation("wc", scale); return err },
		func() error { _, err := PredictorAblation("gcc", scale); return err },
		func() error { _, err := SharedFUAblation("tomcatv", scale); return err },
		func() error { _, err := SpeedupCurves(1, false, scale, []int{2, 4, 8, 16}); return err },
		func() error { _, err := Mixes(scale); return err },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	runs, cycles, instrs := SimTotals()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"builds", BuildsPerformed() - builds0, 20},
		{"sim runs", runs - runs0, 154},
		{"runs restored", RunsRestored() - restored0, 49},
		{"sim cycles", cycles - cycles0, 661367},
		{"sim cycles ticked", SimTicked() - ticked0, 635737},
		{"sim instructions", instrs - instrs0, 1009028},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
