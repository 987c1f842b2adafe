package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"multiscalar/internal/asm"
	"multiscalar/internal/core"
	"multiscalar/internal/isa"
	"multiscalar/internal/job"
)

// arbDim is the matrix dimension of arb-pressure: the smallest the
// suite's matmul reaches where ARB banks fill to their 256 entries and
// refuse allocations (docs in README.md).
const arbDim = 88

// arbPressure multiplies two seeded matrices with the suite's matmul
// task structure (one result row per task) on 8 two-way out-of-order
// units, and checks the printed checksum of the whole product against
// the same product computed in Go.
func arbPressure(r *run) error {
	n := arbDim
	cfg := core.DefaultConfig(8, 2, true)
	if r.opt.small {
		// The same full-bank path at a size a test runs quickly.
		n, cfg.ARBEntries = 12, 8
	}
	a, b := seededMatrices(r.opt.seed, n)
	src := matmulSource(n, a, b)
	want := strconv.Itoa(int(productChecksum(n, a, b)))

	var prog *isa.Program
	var oracle *job.Oracle
	err := r.setup(func() error {
		p, o, err := r.build("matmul", src, asm.ModeMultiscalar)
		if err != nil {
			return err
		}
		prog, oracle = p, o
		return nil
	})
	if err != nil {
		return err
	}
	r.buildLayers(float64(len(src)), float64(oracle.ICount), r.setups())
	if oracle.Out != want {
		return fmt.Errorf("oracle printed %q, the Go product's checksum is %s", clip(oracle.Out), want)
	}

	spec := &job.Spec{Op: job.OpSimulate, Program: prog, Config: cfg}
	var simMS []float64
	var last *core.Result
	err = r.timed(func(i int) error {
		var out *job.Output
		var err error
		t0 := time.Now()
		r.tr.do("job.Execute", "matmul", func() { out, err = job.Execute(spec, nil) })
		simMS = append(simMS, sinceMS(t0))
		if err == nil {
			err = checkArb(out.Result, oracle, want, cfg.ARBEntries)
		}
		r.op(err)
		if err == nil {
			last = out.Result
		}
		return nil
	})
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no simulation passed its checks")
	}
	r.metric("sim_mips", "MIPS", r.unitRate(float64(last.Committed))/1e6)
	r.metric("max_rss_mb", "MB", r.rssMB)
	if r.tr == nil {
		return nil
	}
	r.note("core.sim_ms", "ms", median(simMS))
	r.layer("core.ns_per_cycle", "ns", 1e6*median(simMS)/float64(last.Cycles))
	r.resultLayers([]*core.Result{last})
	if err := r.keyLayer([]*job.Spec{spec}); err != nil {
		return err
	}
	return r.snapshotLayers(prog, cfg)
}

// checkArb holds one arb-pressure result to the oracle and to the
// checksum computed in Go, and requires the run to have taken the ARB's
// full-bank path: some bank reached its entries and refused allocations.
func checkArb(res *core.Result, o *job.Oracle, want string, entries int) error {
	if err := checkSim(res, o, 8); err != nil {
		return err
	}
	if res.Out != want {
		return fmt.Errorf("printed checksum %q, Go computed %s", clip(res.Out), want)
	}
	if res.ARBPeakOccupancy != entries || res.ARBOverflows == 0 {
		return fmt.Errorf("ARB banks peaked at %d of %d entries with %d refused allocations: the full-bank path went unused",
			res.ARBPeakOccupancy, entries, res.ARBOverflows)
	}
	return nil
}

// seededMatrices draws two n×n matrices of small signed integers.
func seededMatrices(seed int64, n int) (a, b []int32) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x61726270))
	a, b = make([]int32, n*n), make([]int32, n*n)
	for i := range a {
		a[i] = int32(rng.IntN(199)) - 99
		b[i] = int32(rng.IntN(199)) - 99
	}
	return a, b
}

// productChecksum folds C = A·B row-major as s = 31·s + c[i][j] in
// 32-bit wrapping arithmetic, as the program does.
func productChecksum(n int, a, b []int32) int32 {
	var s int32
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var c int32
			for k := 0; k < n; k++ {
				c += a[i*n+k] * b[k*n+j]
			}
			s = 31*s + c
		}
	}
	return s
}

// matmulSource is the suite's matmul kernel (internal/workloads) with
// its matrices given as data instead of a[i][j]=i+j, b[i][j]=i−j, whose
// product has trace 0 at every dimension, and a checksum over the whole
// product instead of its diagonal.
func matmulSource(n int, a, b []int32) string {
	var sb strings.Builder
	words := func(label string, m []int32) {
		for i := 0; i < len(m); i += 16 {
			if i == 0 {
				sb.WriteString(label + ":")
			}
			sb.WriteString("\t.word ")
			for j := i; j < min(i+16, len(m)); j++ {
				if j > i {
					sb.WriteString(", ")
				}
				sb.WriteString(strconv.Itoa(int(m[j])))
			}
			sb.WriteString("\n")
		}
	}
	sb.WriteString("\t.data\n")
	words("ma", a)
	sb.WriteString("mpad1:\t.space 192\n")
	words("mb", b)
	sb.WriteString("mpad2:\t.space 192\n")
	sb.WriteString("mc:\t.space " + strconv.Itoa(4*n*n) + "\n")
	sb.WriteString(`
	.text
main:
	li   $s0, 0 !f
	li   $s5, ` + strconv.Itoa(n) + ` !f
	li   $s6, ` + strconv.Itoa(4*n) + ` !f
	j    MROW !s

	; c[i] = a[i] * b : one result row per task
MROW:
	move $t9, $s0
	.msonly addi $s0, $s0, 1 !f
	.msonly slt  $at, $s0, $s5
	mul  $t0, $t9, $s6       ; a row base / c row base
	li   $t1, 0              ; j
MCOL:
	li   $t2, 0              ; k
	li   $t3, 0              ; acc
MDOT:
	sll  $t4, $t2, 2
	add  $t4, $t4, $t0
	lw   $t5, ma($t4)        ; a[i][k]
	mul  $t6, $t2, $s6
	sll  $t7, $t1, 2
	add  $t6, $t6, $t7
	lw   $t7, mb($t6)        ; b[k][j]
	mul  $t5, $t5, $t7
	add  $t3, $t3, $t5
	addi $t2, $t2, 1
	bne  $t2, $s5, MDOT
	sll  $t4, $t1, 2
	add  $t4, $t4, $t0
	sw   $t3, mc($t4)
	addi $t1, $t1, 1
	bne  $t1, $s5, MCOL
	.msonly bnez $at, MROW !s
	.sconly addi $s0, $s0, 1
	.sconly bne  $s0, $s5, MROW

MDONE:
	; checksum the whole product: s = 31*s + c[i][j], row-major
	li   $t0, 0
	li   $s1, 0
	li   $t3, 31
	mul  $t4, $s5, $s5
	sll  $t4, $t4, 2
MCHK:
	lw   $t2, mc($t0)
	mul  $s1, $s1, $t3
	add  $s1, $s1, $t2
	addi $t0, $t0, 4
	bne  $t0, $t4, MCHK
	move $a0, $s1
	li   $v0, 1
	syscall
	li   $v0, 10
	li   $a0, 0
	syscall

	.task main targets=MROW create=$s0,$s5,$s6
	.task MROW targets=MROW,MDONE create=$s0
	.task MDONE
`)
	return sb.String()
}
