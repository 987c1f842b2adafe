package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one call into a module's public function, recorded from the
// benchmark's side of the boundary. Spans of one job share Job.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = top level
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory and collects the CPU profiles of the
// traced phases. Every span is opened on the run's one goroutine. Every
// method is a no-op on a nil tracer, so untraced runs pay one nil check
// per call.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int // open spans
	active bool

	prof     *bytes.Buffer
	profiles [][]byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setActive(on bool) {
	if t != nil {
		t.active = on
	}
}

func (t *tracer) on() bool { return t != nil && t.active }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// do runs fn inside a span nested under the innermost open span, with
// the CPU samples it takes labelled span=name.
func (t *tracer) do(name, job string, fn func()) {
	if !t.on() {
		fn()
		return
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.open(name, job, parent)
	t.stack = append(t.stack, id)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.stack = t.stack[:len(t.stack)-1]
	t.close(id)
}

func (t *tracer) open(name, job string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: t.now()})
	return id
}

func (t *tracer) close(id int) { t.spans[id-1].End = t.now() }

// startProfile begins a CPU profile of this process; stopProfile ends it
// and keeps the bytes. A profile that cannot start (one is already
// running) is skipped.
func (t *tracer) startProfile() {
	if t == nil {
		return
	}
	buf := &bytes.Buffer{}
	if pprof.StartCPUProfile(buf) == nil {
		t.prof = buf
	}
}

func (t *tracer) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, t.prof.Bytes())
	t.prof = nil
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count       int
	Total, Self float64 // µs; self excludes time covered by child spans
}

// stats folds the spans by name. A span's self time is its duration
// minus its children's (children of one span never overlap here: every
// span nests on the run's one goroutine).
func (t *tracer) stats() map[string]*spanStat {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - child[s.ID]
	}
	return out
}

// cpuSample is the part of a pprof sample the per-layer table needs:
// its CPU time, its stack as leaf-first function names, and its span
// label.
type cpuSample struct {
	nanos int64
	stack []string
	span  string
}

// cpuShares folds the run's profiles into flat-CPU shares per module of
// this repository (the leaf frame's package), with garbage collection
// (any frame in the collector) as its own module "gc", and into CPU
// shares per span label.
func (t *tracer) cpuShares() (modules, spans map[string]float64, err error) {
	modules, spans = map[string]float64{}, map[string]float64{}
	var total int64
	for _, raw := range t.profiles {
		samples, err := parseProfile(raw)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range samples {
			if s.span == calibSpan {
				continue
			}
			total += s.nanos
			modules[moduleOf(s.stack)] += float64(s.nanos)
			label := s.span
			if label == "" {
				label = "(none)"
			}
			spans[label] += float64(s.nanos)
		}
	}
	if total == 0 {
		return modules, spans, nil
	}
	for k := range modules {
		modules[k] /= float64(total)
	}
	for k := range spans {
		spans[k] /= float64(total)
	}
	return modules, spans, nil
}

const modulePrefix = "multiscalar/internal/"

func moduleOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	if rest, ok := strings.CutPrefix(stack[0], modulePrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	}
	return "other"
}

// parseProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping samples' CPU nanoseconds, stacks (leaf
// first, inlined frames expanded) and "span" labels.
func parseProfile(raw []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> name index
		strs      []string
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					for _, x := range appendPacked(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, kv)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{}
		if len(s.values) > 1 {
			cs.nanos = s.values[1]
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcNames[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "span" {
				cs.span = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// profiledModules are the modules whose flat-CPU share the traced run
// reports as cpu.<module>.
var profiledModules = []string{
	"bench", "asm", "mslint", "cfg", "isa", "interp", "core", "pu", "arb", "mem",
	"predict", "snapshot", "sample", "job", "serve", "trace", "gc",
}

// finishTrace turns the tracer's spans and profiles into per-layer
// metrics (cpu.* shares, the tracing overhead), prints the per-layer
// table to the log, and writes the spans file.
func (r *run) finishTrace() error {
	t := r.tr
	modules, spanCPU, err := t.cpuShares()
	if err != nil {
		return err
	}
	for _, m := range profiledModules {
		r.layer("cpu."+m, "%", 100*modules[m])
	}
	if len(r.plainUnits) > 0 && len(r.tracedUnits) > 0 {
		r.layer("tracing.overhead_pct", "%", 100*(median(r.tracedUnits)/median(r.plainUnits)-1))
	}

	stats := t.stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	r.logf("spans (%d recorded, written to %s):", len(t.spans), r.opt.spans)
	r.logf("  %-28s %8s %12s %12s %7s", "span", "count", "total ms", "self ms", "cpu %")
	for _, n := range names {
		s := stats[n]
		r.logf("  %-28s %8d %12.2f %12.2f %7.1f", n, s.Count, s.Total/1e3, s.Self/1e3, 100*spanCPU[n])
	}
	r.logMetrics("per-layer metrics", r.layers)
	if r.opt.spans == "" {
		return nil
	}
	return t.write(r.opt.spans)
}
