package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one run's settings (the command-line flags).
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	small    bool   // test-scale inputs (the package's own tests)
	msserve  string // daemon binary for serve-mix
	spans    string // file the traced run writes its spans to
	log      io.Writer
}

// run accumulates one workload run: operation accounting, end-to-end
// metrics, per-layer metrics and (when traced) spans and CPU profiles.
type run struct {
	opt       options
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
	// notes are figures only one workload can produce. The result line
	// holds the same metrics on every workload, so these go to the log.
	notes map[string]metric
	tr    *tracer // nil when untraced

	// Unit wall times of the timed phase, split by whether the unit ran
	// with tracing on (traced runs alternate the two), and the
	// calibrations that convert them to reference seconds (calib.go).
	plainUnits, tracedUnits []float64
	cal                     *calibrator
	units                   phase

	// rssMB is the peak resident set over the set-up and the first two
	// units: a point every run reaches, so the figure does not depend on
	// how many units fit in the run.
	rssMB float64
}

func newRun(opt options) *run {
	r := &run{opt: opt, e2e: map[string]metric{}, layers: map[string]metric{}, notes: map[string]metric{},
		cal: newCalibrator()}
	if opt.traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) logf(format string, args ...any) {
	if r.opt.log != nil {
		fmt.Fprintf(r.opt.log, format+"\n", args...)
	}
}

// op counts one attempted operation (a simulation, a sampled estimate or
// an HTTP job) and, if err is set, one failed operation. A failed check
// counts as a failed operation; the run goes on to its end.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.logf("FAIL: %v", err)
	}
}

func (r *run) metric(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *run) layer(name, unit string, v float64)  { r.layers[name] = metric{v, unit} }
func (r *run) note(name, unit string, v float64)   { r.notes[name] = metric{v, unit} }

// logMetrics prints a metric table to the log, sorted by name.
func (r *run) logMetrics(title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	r.logf("%s:", title)
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.logf("  %-36s %14.4f %s", k, ms[k].Value, ms[k].Unit)
	}
}

// setups is how many times a run sets up; setup_s is their median.
func (r *run) setups() int {
	if r.opt.small {
		return 2
	}
	return 7
}

// setup runs fn r.setups() times, each after a calibration, and reports
// the median in reference seconds as setup_s; the state the last call
// leaves behind is what the run uses. Under tracing the set-up is
// spanned and profiled like a traced unit.
func (r *run) setup(fn func() error) error {
	n := r.setups()
	times := make([]float64, 0, n)
	p := r.cal.begin()
	r.tr.startProfile()
	r.tr.setActive(true)
	defer func() {
		r.tr.setActive(false)
		r.tr.stopProfile()
	}()
	for i := 0; i < n; i++ {
		runtime.GC()
		r.cal.measure()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.metric("setup_s", "s", p.ref(median(times)))
	r.note("setup_host_s", "s", median(times))
	return nil
}

// timed runs identical units of work until about opt.seconds have gone
// by: it starts another unit while the phase would end nearer the target
// with it than without it, and runs at least two. Every unit starts
// after a GC and, while they have taken less than calibShare of the
// phase, calibrations. A traced run alternates plain and traced units so the two
// can be compared: the tracing overhead. unit returns an error only when
// the run cannot go on.
func (r *run) timed(unit func(i int) error) error {
	const minUnits = 2
	start := time.Now()
	r.units = r.cal.begin()
	last := 0.0
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minUnits && elapsed+last/2 >= r.opt.seconds {
			break
		}
		traced := r.tr != nil && i%2 == 1
		runtime.GC()
		r.units.keepUp()
		if traced {
			r.tr.startProfile()
		}
		r.tr.setActive(traced)
		t0 := time.Now()
		err := unit(i)
		last = time.Since(t0).Seconds()
		r.tr.setActive(false)
		if i == 1 {
			r.rssMB = maxRSSMB()
		}
		if traced {
			r.tr.stopProfile()
			r.tracedUnits = append(r.tracedUnits, last)
		} else {
			r.plainUnits = append(r.plainUnits, last)
		}
		if err != nil {
			return err
		}
	}
	r.logf("%s: %d units, plain %.3f s, traced %.3f s, %d calibrations of median %.4f s", r.opt.workload,
		len(r.plainUnits)+len(r.tracedUnits), r.plainUnits, r.tracedUnits,
		len(r.cal.samples)-r.units.from, median(r.cal.samples[r.units.from:]))
	return nil
}

// traced runs fn outside the timed phase, with tracing and profiling on
// in a traced run (per-layer measurements the timed units do not make
// themselves).
func (r *run) traced(fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	r.tr.startProfile()
	r.tr.setActive(true)
	fn()
	r.tr.setActive(false)
	r.tr.stopProfile()
}

// maxRSSMB is the peak resident set of this process so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// unitRate is work per reference second of the median plain unit: the
// run's host-speed figure (README.md, "Steadiness"). The median unit's
// host seconds go to the log.
func (r *run) unitRate(work float64) float64 {
	r.note("unit_host_s", "s", median(r.plainUnits))
	return work / r.units.ref(median(r.plainUnits))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
