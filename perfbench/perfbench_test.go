package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/pu"
	"multiscalar/internal/sample"
)

// manifestMetrics reads the metric names of BENCHMARK.json: every
// workload's result line must hold exactly these, the end-to-end ones
// untraced and the per-layer ones traced.
func manifestMetrics(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, e := range m.EndToEnd {
		endToEnd[e.Name] = true
	}
	for _, e := range m.PerLayer {
		perLayer[e.Name] = true
	}
	return endToEnd, perLayer
}

// buildMsserve builds the daemon serve-mix starts.
func buildMsserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "msserve")
	cmd := exec.Command("go", "build", "-o", bin, "multiscalar/cmd/msserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building msserve: %v\n%s", err, out)
	}
	return bin
}

func testOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 7, seconds: 0.2, small: true,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
}

// TestWorkloads runs every workload at test scale, untraced and traced:
// every operation passes its checks, and the result line holds exactly
// BENCHMARK.json's metrics, every end-to-end one above zero.
func TestWorkloads(t *testing.T) {
	msserve := buildMsserve(t)
	endToEnd, perLayer := manifestMetrics(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			if traced && name == "paper-suite" && testing.Short() {
				continue
			}
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				opt := testOptions(t, name)
				opt.traced, opt.msserve = traced, msserve
				var log bytes.Buffer
				opt.log = &log
				res, err := runWorkload(opt)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
					if _, err := os.Stat(opt.spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				for m := range want {
					v, ok := res.Metrics[m]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && !(v.Value > 0)) {
						t.Errorf("metric %s = %+v (present %v)", m, v, ok)
					}
				}
				for m := range res.Metrics {
					if !want[m] {
						t.Errorf("metric %s is not in BENCHMARK.json", m)
					}
				}
			})
		}
	}
}

// goodResult is a result that passes checkSim for o on the given units:
// its unit-cycles add up to units × 100 cycles.
func goodResult(o *job.Oracle, units int) *core.Result {
	res := &core.Result{Cycles: 100, Committed: o.ICount, Out: o.Out}
	res.Activity[pu.ActCompute] = uint64(units)*100 - 100
	res.Activity[pu.ActIdle] = 50
	res.SquashedCycles = 50
	return res
}

func TestCheckSimFailsOnCorruption(t *testing.T) {
	o := &job.Oracle{ICount: 1234, Out: "42"}
	if err := checkSim(goodResult(o, 4), o, 4); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*core.Result){
		"altered output":    func(r *core.Result) { r.Out = "43" },
		"altered committed": func(r *core.Result) { r.Committed++ },
		"lost unit-cycles":  func(r *core.Result) { r.Activity[pu.ActCompute]-- },
		"zero cycles":       func(r *core.Result) { r.Cycles = 0 },
	} {
		res := goodResult(o, 4)
		corrupt(res)
		if checkSim(res, o, 4) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCheckEstimateFailsOnShiftedInterval(t *testing.T) {
	o := &job.Oracle{ICount: 5000, Out: "ok"}
	est := &sample.Estimate{TotalInstrs: 5000, Out: "ok", EstCycles: 1000, CyclesLow: 950, CyclesHi: 1050}
	if err := checkEstimate(est, o, 990); err != nil {
		t.Fatalf("good estimate rejected: %v", err)
	}
	shifted := *est
	shifted.CyclesLow, shifted.CyclesHi = 1000, 1100
	if checkEstimate(&shifted, o, 990) == nil {
		t.Error("shifted interval passed")
	}
	altered := *est
	altered.Out = "ko"
	if checkEstimate(&altered, o, 990) == nil {
		t.Error("altered output passed")
	}
	miscounted := *est
	miscounted.TotalInstrs--
	if checkEstimate(&miscounted, o, 990) == nil {
		t.Error("miscounted instructions passed")
	}
	if got := ciHalfWidthPct(est); got != 5 {
		t.Errorf("half-width %v%%, want 5%%", got)
	}
}

func TestCheckResubmitFailsOnMismatch(t *testing.T) {
	batch := func(cached bool, cycles ...int) []byte {
		b := fmt.Sprintf(`{"count":%d,"cached":%d,"executed":%d,"errors":0,"results":[`,
			len(cycles), map[bool]int{true: len(cycles)}[cached], map[bool]int{false: len(cycles)}[cached])
		for i, c := range cycles {
			if i > 0 {
				b += ","
			}
			b += fmt.Sprintf(`{"index":%d,"result":{"key":"k%d","cached":%v,"op":"simulate","sim":{"Cycles":%d}}}`, i, i, cached, c)
		}
		return []byte(b + "]}")
	}
	var b batchResponse
	if err := json.Unmarshal(batch(false, 10, 20), &b); err != nil {
		t.Fatal(err)
	}
	first := [][32]byte{sha256.Sum256(b.Results[0].Result), sha256.Sum256(b.Results[1].Result)}
	if err := checkResubmit(first, batch(true, 10, 20)); err != nil {
		t.Fatalf("identical resubmission rejected: %v", err)
	}
	if checkResubmit(first, batch(true, 10, 21)) == nil {
		t.Error("mismatched resubmission passed")
	}
	if checkResubmit(first, batch(false, 10, 20)) == nil {
		t.Error("resubmission executed again passed")
	}
	if checkResubmit(first, batch(true, 10)) == nil {
		t.Error("short resubmission passed")
	}
}

func TestCheckFractions(t *testing.T) {
	if err := checkFractions("x", 0.5, 0.25, 0.25, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if checkFractions("x", 0.5, 0.25, 0.2, 0, 0, 0) == nil {
		t.Error("fractions summing to 0.95 passed")
	}
}

// TestMatmulChecksum runs the generated program on the functional
// interpreter and compares its output with the product computed in Go,
// and shows checkArb rejects an altered checksum and banks that never
// filled.
func TestMatmulChecksum(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		n := 6
		a, b := seededMatrices(seed, n)
		p, err := asm.Assemble(matmulSource(n, a, b), asm.ModeMultiscalar)
		if err != nil {
			t.Fatal(err)
		}
		o, err := job.RunOracle(p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := productChecksum(n, a, b)
		if o.Out != itoa32(want) {
			t.Fatalf("seed %d: program printed %q, Go computed %d", seed, o.Out, want)
		}
		res := goodResult(o, 8)
		res.ARBPeakOccupancy, res.ARBOverflows = 8, 1
		if err := checkArb(res, o, o.Out, 8); err != nil {
			t.Fatal(err)
		}
		if checkArb(res, o, itoa32(want+1), 8) == nil {
			t.Error("altered checksum passed")
		}
		if checkArb(res, o, o.Out, 256) == nil {
			t.Error("banks short of their entries passed")
		}
		res.ARBOverflows = 0
		if checkArb(res, o, o.Out, 8) == nil {
			t.Error("no refused allocation passed")
		}
	}
	// 2×2 by hand: A=[1 2;3 4], B=[5 6;7 8], C=[19 22;43 50].
	want := int32(((19*31+22)*31+43)*31 + 50)
	if got := productChecksum(2, []int32{1, 2, 3, 4}, []int32{5, 6, 7, 8}); got != want {
		t.Errorf("productChecksum = %d, want %d", got, want)
	}
}

func itoa32(v int32) string { return strconv.Itoa(int(v)) }

// TestPyQuartiles pins the quartile definition to Python's
// statistics.quantiles(values, n=4).
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
	} {
		if got := pyQuartiles(c.in); got != c.want {
			t.Errorf("pyQuartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestProfileShares profiles a busy loop inside a span and checks the
// decoder attributes the samples to the label.
func TestProfileShares(t *testing.T) {
	tr := newTracer()
	tr.setActive(true)
	tr.startProfile()
	if tr.prof == nil {
		t.Skip("CPU profiler busy")
	}
	x := 0
	tr.do("busy", "", func() {
		for i := 0; i < 300_000_000; i++ {
			x += i ^ x>>3
		}
	})
	tr.stopProfile()
	_ = x
	mods, spans, err := tr.cpuShares()
	if err != nil {
		t.Fatal(err)
	}
	if spans["busy"] < 0.5 {
		t.Errorf("span share %v, want most of the profile (modules %v)", spans["busy"], mods)
	}
	if st := tr.stats()["busy"]; st == nil || st.Count != 1 || st.Self <= 0 {
		t.Errorf("span stats %+v", st)
	}
}
