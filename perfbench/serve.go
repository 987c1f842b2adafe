package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/job"
	"multiscalar/internal/serve"
	"multiscalar/internal/trace"
	"multiscalar/internal/workloads"
)

// serve-mix stream make-up (README.md, "Inputs").
const (
	serveCache = 1 << 16
	serveRSSAt = 6400 // the daemon's peak RSS is read when this many jobs are answered
)

// sweepUnits, sweepWidths and sweepOOO are the axes of every sweep: those
// of the sweep example in docs/serve.md. The sweep's two 8-unit two-way
// points ask for the trace artifact.
var (
	sweepUnits  = []int{1, 2, 4, 8}
	sweepWidths = []int{1, 2}
	sweepOOO    = []bool{false, true}
)

// sweep is one batch of the serve-mix stream: one workload and one base
// configuration crossed with the sweep axes, sent to POST /v1/batch as
// an explicit job list, first fresh and then resubmitted whole.
type sweep struct {
	workload string
	jobs     []sweepJob
	body     []byte     // the POST /v1/batch request
	first    [][32]byte // SHA-256 of each job's first response
	instrs   float64    // committed instructions its jobs report
}

// sweepJob is one job of a sweep.
type sweepJob struct {
	mode  asm.Mode
	units int
	wire  serve.WireJob
}

// serveSpace lists the sweeps: every workload of the suite (extras
// included) at test scale, over ring hop latencies, ARB sizes,
// reorder-buffer sizes and data-cache hit latencies. Each sweep crosses
// its base configuration with the sweep axes; its 1-unit points run the
// scalar machine, which has no ring or ARB but keeps the base's values
// of those fields, as a sweep client that varies them sends it. The
// order is fixed; seededOrder orders it by the seed.
func serveSpace() ([]*sweep, error) {
	var out []*sweep
	for _, w := range workloads.AllWithExtras() {
		for _, ring := range []int{0, 1, 2, 4} {
			for _, entries := range []int{32, 64, 128, 256} {
				for _, rob := range []int{8, 16, 32, 64} {
					for _, hit := range []int{1, 2, 3, 4} {
						sw := &sweep{workload: w.Name}
						req := serve.BatchRequest{Client: "perfbench"}
						for _, units := range sweepUnits {
							for _, width := range sweepWidths {
								for _, ooo := range sweepOOO {
									cfg, mode := core.DefaultConfig(units, width, ooo), asm.ModeMultiscalar
									if units == 1 {
										cfg, mode = core.ScalarConfig(width, ooo), asm.ModeScalar
									}
									cfg.RingLatency, cfg.ARBEntries = ring, entries
									cfg.ROBSize, cfg.DCacheHit = rob, hit
									canon, err := cfg.MarshalCanonical()
									if err != nil {
										return nil, err
									}
									wj := serve.WireJob{Workload: w.Name, Scale: w.TestScale, Config: canon, Verify: true}
									if units == 8 && width == 2 {
										wj.Op = "trace"
									}
									sw.jobs = append(sw.jobs, sweepJob{mode: mode, units: units, wire: wj})
									req.Jobs = append(req.Jobs, wj)
								}
							}
						}
						sw.body = mustJSON(req)
						out = append(out, sw)
					}
				}
			}
		}
	}
	return out, nil
}

// seededOrder shuffles each workload's sweeps with rng and deals them
// out round-robin over the workloads: the seed picks the base
// configurations, and every run's stream holds the same mix of
// workloads at every point, so the daemon's memory at the read point
// and the instructions per job do not depend on which workloads a seed
// happens to draw first.
func seededOrder(space []*sweep, rng *rand.Rand) []*sweep {
	var groups [][]*sweep
	for i, sw := range space {
		if i == 0 || sw.workload != space[i-1].workload {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], sw)
	}
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([]*sweep, 0, len(space))
	for k := 0; len(out) < len(space); k++ {
		for _, g := range groups {
			if k < len(g) {
				out = append(out, g[k])
			}
		}
	}
	return out
}

// batchResponse is a POST /v1/batch response with each job's result
// kept as the bytes the daemon sent.
type batchResponse struct {
	Count    int `json:"count"`
	Cached   int `json:"cached"`
	Executed int `json:"executed"`
	Errors   int `json:"errors"`
	Results  []struct {
		Index  int             `json:"index"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	} `json:"results"`
}

// serveResponse is the part of a job result the checks read.
type serveResponse struct {
	Key    string       `json:"key"`
	Cached bool         `json:"cached"`
	Sim    *core.Result `json:"sim"`
	Trace  []byte       `json:"trace"`
}

// serveSample is one answered batch.
type serveSample struct {
	latency time.Duration
	cached  bool
	bytes   int
}

// stream is the state of the serve-mix client's closed loop.
type stream struct {
	client   *http.Client
	base     string
	refs     map[string]*job.Oracle
	sent     []*sweep // sweeps sent so far, in order
	answered int      // jobs answered
	instrs   float64  // committed instructions of the answered jobs
	samples  []serveSample
	results  []*core.Result // executed simulate results (per-layer counts)
	traceKB  []float64
}

// serveMix drives the msserve daemon, started as its own process, with
// seeded batch sweeps over one closed-loop HTTP connection. Each sweep
// is submitted and then resubmitted whole: the round trip of the
// repository's own msserve caller, the CI serve-smoke job.
func serveMix(r *run) error {
	// The oracle references the simulate checks need; set-up time for
	// serve-mix is the daemon's start, so these are made before it. A
	// traced run spans this one pass (asm.*, interp.*).
	refs := map[string]*job.Oracle{}
	var sourceBytes, oracleInstrs float64
	var space []*sweep
	var err error
	r.traced(func() {
		for _, w := range workloads.AllWithExtras() {
			src := w.Source(w.TestScale)
			for _, mode := range []asm.Mode{asm.ModeScalar, asm.ModeMultiscalar} {
				var o *job.Oracle
				if _, o, err = r.build(w.Name, src, mode); err != nil {
					return
				}
				refs[refKey(w.Name, mode)] = o
				sourceBytes += float64(len(src))
				oracleInstrs += float64(o.ICount)
			}
		}
	})
	if err == nil {
		space, err = serveSpace()
	}
	if err != nil {
		return err
	}
	r.buildLayers(sourceBytes, oracleInstrs, 1)
	space = seededOrder(space, rand.New(rand.NewPCG(uint64(r.opt.seed), 0x73657276)))

	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	err = r.setup(func() error {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		var err error
		d, err = startDaemon(r.opt.msserve)
		return err
	})
	if err != nil {
		return err
	}

	st := &stream{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}, base: d.base, refs: refs}
	defer st.client.CloseIdleConnections()
	// The daemon's memory grows with the results it holds, so its peak
	// is read at a fixed point of the stream, not at its time-bounded end.
	rss := math.NaN()
	// A traced run records spans around the stream's requests; its CPU
	// profile and tracing overhead are taken of the in-process replay
	// below, since the work of the stream is done in the daemon, which
	// is not profiled.
	// The stream's time is the sum of its rounds' (a sweep and its
	// resubmission, checks included); calibrations run between rounds.
	r.tr.setActive(true)
	t0 := time.Now()
	p := r.cal.begin()
	wall := 0.0
	for len(st.sent) == 0 || time.Since(t0).Seconds() < r.opt.seconds {
		if len(st.sent) == len(space) {
			break // the space is used up
		}
		p.keepUp()
		sw := space[len(st.sent)]
		st.sent = append(st.sent, sw)
		for _, repeat := range []bool{false, true} {
			s0 := time.Now()
			r.tr.do("serve.batch", sw.workload, func() { r.op(st.submit(sw, repeat)) })
			wall += time.Since(s0).Seconds()
			if math.IsNaN(rss) && st.answered >= serveRSSAt {
				rss = d.peakRSSMB()
			}
		}
	}
	r.tr.setActive(false)

	var hits, misses, all []float64
	var respBytes float64
	for _, s := range st.samples {
		us := float64(s.latency) / float64(time.Microsecond)
		all = append(all, us)
		respBytes += float64(s.bytes)
		if s.cached {
			hits = append(hits, us)
		} else {
			misses = append(misses, us)
		}
	}
	fresh := 0
	for _, sw := range st.sent {
		fresh += len(sw.jobs)
	}
	m, err := d.metrics(st.client)
	if err == nil {
		switch {
		case m.Executed != uint64(fresh):
			err = fmt.Errorf("daemon executed %d jobs for %d distinct keys", m.Executed, fresh)
		case m.Jobs != uint64(2*fresh) || m.CacheHits != uint64(fresh):
			err = fmt.Errorf("daemon counted %d jobs, %d hits; the stream sent %d, %d of them resubmitted", m.Jobs, m.CacheHits, 2*fresh, fresh)
		case m.Errors != 0 || m.Evictions != 0:
			err = fmt.Errorf("daemon reports %d errors, %d evictions", m.Errors, m.Evictions)
		}
	}
	r.op(err)
	st.client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		return err
	}
	if math.IsNaN(rss) {
		rss = d.rssMB
	}
	d = nil

	r.metric("sim_mips", "MIPS", st.instrs/p.ref(wall)/1e6)
	r.note("stream_host_s", "s", wall)
	r.metric("max_rss_mb", "MB", rss)
	r.note("jobs_per_s", "1/s", float64(st.answered)/wall)
	if len(hits) > 0 {
		r.note("hit_p50_us", "us", median(hits))
	}
	if len(misses) > 0 {
		r.note("miss_p50_ms", "ms", median(misses)/1e3)
	}
	r.logf("serve-mix: %d sweeps of %d jobs, each sent twice, in %.2f s", len(st.sent), len(space[0].jobs), wall)
	r.logf("serve-mix: resubmission latency p10/p50/p90 %.0f/%.0f/%.0f us, first submission %.1f/%.1f/%.1f ms",
		quantile(hits, 0.1), quantile(hits, 0.5), quantile(hits, 0.9),
		quantile(misses, 0.1)/1e3, quantile(misses, 0.5)/1e3, quantile(misses, 0.9)/1e3)
	if r.tr == nil {
		return nil
	}
	r.note("serve.jobs", "count", float64(m.Jobs))
	r.note("serve.executed", "count", float64(m.Executed))
	r.note("serve.cache_hits", "count", float64(m.CacheHits))
	r.note("serve.evictions", "count", float64(m.Evictions))
	r.note("serve.response_kb", "KB", respBytes/float64(st.answered)/1024)
	// The 99th percentile is a tail only with ten samples beyond it. It
	// is a per-layer figure: on a host whose speed drifts it moves too
	// much between runs to gate on (README.md, "Steadiness").
	if len(all) >= 1000 {
		r.note("serve.latency_p99_ms", "ms", quantile(all, 0.99)/1e3)
	}
	if len(st.traceKB) > 0 {
		r.note("trace.artifact_kb", "KB", sum(st.traceKB)/float64(len(st.traceKB)))
	}
	r.resultLayers(st.results)
	return r.jobLayers(st.sent)
}

func refKey(name string, mode asm.Mode) string { return name + "/" + strconv.Itoa(int(mode)) }

// submit posts a sweep, first fresh or then resubmitted, and checks the
// response.
func (st *stream) submit(sw *sweep, repeat bool) error {
	s0 := time.Now()
	body, err := post(st.client, st.base+"/v1/batch", sw.body)
	lat := time.Since(s0)
	if err == nil {
		st.answered += len(sw.jobs)
		if repeat {
			err = checkResubmit(sw.first, body)
		} else {
			err = st.checkSweep(sw, body)
		}
	}
	if err != nil {
		return fmt.Errorf("%s sweep: %w", sw.workload, err)
	}
	st.instrs += sw.instrs
	st.samples = append(st.samples, serveSample{latency: lat, cached: repeat, bytes: len(body)})
	return nil
}

// checkSweep holds a sweep's first response to the oracle: every job
// executed, each result matches the interpreter and each trace artifact
// decodes and ends at its run's cycle count. It keeps each job's
// response hash for the resubmission.
func (st *stream) checkSweep(sw *sweep, body []byte) error {
	var b batchResponse
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if b.Count != len(sw.jobs) || b.Executed != b.Count || b.Errors != 0 || len(b.Results) != b.Count {
		return fmt.Errorf("first submission: %d jobs, %d executed, %d errors, %d results; want all %d executed",
			b.Count, b.Executed, b.Errors, len(b.Results), len(sw.jobs))
	}
	sw.first = make([][32]byte, len(b.Results))
	for i, jr := range b.Results {
		j := sw.jobs[i]
		var resp serveResponse
		if err := json.Unmarshal(jr.Result, &resp); jr.Index != i || jr.Error != "" || err != nil {
			return fmt.Errorf("job %d: slot %d, error %q, decoding: %v", i, jr.Index, jr.Error, err)
		}
		if resp.Cached {
			return fmt.Errorf("job %d: first request for key %.12s answered from the cache", i, resp.Key)
		}
		if err := checkSim(resp.Sim, st.refs[refKey(sw.workload, j.mode)], j.units); err != nil {
			return fmt.Errorf("job %d, %d units: %w", i, j.units, err)
		}
		if j.wire.Op == "trace" {
			tr, err := trace.ReadAll(bytes.NewReader(resp.Trace))
			if err != nil {
				return fmt.Errorf("job %d: trace artifact: %w", i, err)
			}
			if s := trace.Summarize(tr); s.Cycles != resp.Sim.Cycles {
				return fmt.Errorf("job %d: trace ends at cycle %d, run took %d", i, s.Cycles, resp.Sim.Cycles)
			}
			st.traceKB = append(st.traceKB, float64(len(resp.Trace))/1024)
		}
		sw.first[i] = sha256.Sum256(jr.Result)
		sw.instrs += float64(resp.Sim.Committed)
		st.results = append(st.results, resp.Sim)
	}
	return nil
}

func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, clip(string(data)))
	}
	return data, nil
}

// serveReplay is how many of the stream's first jobs jobLayers replays:
// about a second of execution here, a hundred profile samples.
const serveReplay = 1024

// jobLayers replays the stream's first jobs in this process. Each job
// executes twice, plain and traced, each first in turn, so the two sets
// time the same work (tracing.overhead_pct); the plain executions give
// job.execute_ms and core.ns_per_cycle. A local serve engine times the
// in-process cache-hit path (serve.submit_hit_us). The cpu.* shares of
// serve-mix come from this replay, the keying and the snapshot timing
// alone: the daemon, which does the stream's work, is not profiled.
func (r *run) jobLayers(sent []*sweep) error {
	var wires []serve.WireJob
	for _, sw := range sent {
		for _, j := range sw.jobs {
			wires = append(wires, j.wire)
		}
	}
	wires = wires[:min(len(wires), serveReplay)]
	r.tr.profiles = nil
	var specs []*job.Spec
	var err error
	r.traced(func() {
		var hits []float64
		var plainMS, plainCycles float64
		eng := serve.NewLocal(serve.Options{CacheEntries: serveCache})
		for i, wj := range wires {
			var spec *job.Spec
			if spec, err = wj.Decode(); err != nil {
				return
			}
			specs = append(specs, spec)
			for k := 0; k < 2; k++ {
				traced := (i+k)%2 == 1
				var out *job.Output
				r.tr.setActive(traced)
				t0 := time.Now()
				r.tr.do("job.Execute", wj.Workload, func() { out, err = job.Execute(spec, nil) })
				ms := sinceMS(t0)
				r.tr.setActive(true)
				if err != nil {
					return
				}
				if out.Result == nil {
					err = fmt.Errorf("%s: replayed job returned no result", wj.Workload)
					return
				}
				if traced {
					r.tracedUnits = append(r.tracedUnits, ms)
				} else {
					r.plainUnits = append(r.plainUnits, ms)
					plainMS += ms
					plainCycles += float64(out.Result.Cycles)
				}
			}
			if _, err = eng.Submit(context.Background(), "perfbench", spec); err != nil {
				return
			}
			for i := 0; i < 10; i++ {
				t0 := time.Now()
				r.tr.do("serve.Submit", wj.Workload, func() { _, err = eng.Submit(context.Background(), "perfbench", spec) })
				hits = append(hits, sinceMS(t0)*1e3)
				if err != nil {
					return
				}
			}
		}
		r.note("job.execute_ms", "ms", median(r.plainUnits))
		r.layer("core.ns_per_cycle", "ns", 1e6*plainMS/plainCycles)
		r.note("serve.submit_hit_us", "us", median(hits))
	})
	if err != nil {
		return err
	}
	if err := r.keyLayer(specs); err != nil {
		return err
	}
	w := workloads.Get(sent[0].workload)
	p, err := w.Build(asm.ModeMultiscalar, w.TestScale)
	if err != nil {
		return err
	}
	return r.snapshotLayers(p, core.DefaultConfig(8, 2, true))
}

// daemon is a running msserve process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	rssMB float64
}

// startDaemon starts msserve on a free loopback port and waits until it
// answers /healthz.
func startDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache", strconv.Itoa(serveCache))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("msserve did not become healthy")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop ends the daemon, waits for it, and keeps its peak resident set.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.rssMB = float64(ru.Maxrss) / 1024
	}
	return nil
}

// peakRSSMB reads the running daemon's peak resident set.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func (d *daemon) metrics(client *http.Client) (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := client.Get(d.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
