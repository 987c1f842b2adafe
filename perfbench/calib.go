package main

import (
	"context"
	"math/rand/v2"
	"runtime/pprof"
	"slices"
	"time"
)

// The host this benchmark was built on drifts: the same work takes up to
// 1.8× longer in slow spells that last minutes, so runs made minutes
// apart disagree however long each is (README.md, "Steadiness"). A
// fixed calibration routine, written here and sharing no code with the
// repository's, is therefore run between the pieces of timed work, and
// times are reported in reference seconds: host seconds scaled by
// calibRef over the routine's median time in the same phase. A change to
// the program under test leaves the routine's time alone, so a change
// that makes the program slower still shows in full.

// calibRef is the calibration routine's time on the reference host, in
// seconds: about its time on the build host in a fast spell.
const calibRef = 0.1

// calibShare is the share of a timed phase the routine takes, spread
// over the phase between its pieces of work.
const calibShare = 0.1

// calibSpan labels the routine's CPU samples so that a traced run's
// profile shares leave them out.
const calibSpan = "perfbench.calibrate"

// calibrator runs the routine and keeps its latest time. The routine
// sorts, fills a hash map and interprets a small program — the kinds of
// work the simulator does — on buffers allocated once, so that it
// allocates nothing and the collector never runs inside it.
type calibrator struct {
	src, buf []int
	m        map[int]int
	samples  []float64 // the routine's times, in seconds
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewPCG(1, 2))
	c := &calibrator{src: make([]int, calibN), buf: make([]int, calibN), m: make(map[int]int, calibN/4)}
	for i := range c.src {
		c.src[i] = rng.IntN(1 << 30)
	}
	return c
}

// calibN is the routine's buffer length: 512 KiB of ints, which adds
// little to max_rss_mb.
const calibN = 1 << 16

// calibSink keeps the routine's result live.
var calibSink int

// measure runs the routine and keeps its time.
func (c *calibrator) measure() {
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("span", calibSpan), func(context.Context) {
		acc := 0
		for r := 0; r < 8; r++ {
			copy(c.buf, c.src)
			slices.Sort(c.buf)
			clear(c.m)
			for i, x := range c.buf {
				c.m[(x+r)%(calibN/4)] += i
			}
			acc += len(c.m)
		}
		prog := [8]int{0, 1, 2, 3, 1, 0, 2, 3}
		for i := 0; i < 1<<25; i++ {
			switch prog[i&7] {
			case 0:
				acc += c.buf[i&(calibN-1)]
			case 1:
				acc ^= acc >> 3
			case 2:
				acc *= 3
			case 3:
				acc -= i >> 2
			}
		}
		calibSink += acc
	})
	c.samples = append(c.samples, time.Since(t0).Seconds())
}

// phase is a stretch of timed work together with the calibrations made
// during it.
type phase struct {
	c     *calibrator
	start time.Time
	from  int // the phase's first sample
}

func (c *calibrator) begin() phase { return phase{c, time.Now(), len(c.samples)} }

// keepUp runs the routine until it has taken calibShare of the phase so
// far, and at least once.
func (p phase) keepUp() {
	for len(p.c.samples) == p.from || sum(p.c.samples[p.from:]) < calibShare*time.Since(p.start).Seconds() {
		p.c.measure()
	}
}

// ref converts host seconds of work timed in the phase to reference
// seconds.
func (p phase) ref(secs float64) float64 { return secs * calibRef / median(p.c.samples[p.from:]) }
