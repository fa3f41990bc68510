package main

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// runCtx is what every workload of one invocation shares.
type runCtx struct {
	seed   uint64
	trace  bool
	res    *result
	outDir string
	log    io.Writer
	// procOwner names the workload whose timed phases the proc.* metrics
	// describe; they are whole-process figures, so only one can own them.
	procOwner string
}

func (c *runCtx) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// workload is one of the four benchmark workloads.
//
// setUp generates the inputs from the seed, boots what the workload needs
// and preloads it; secs is the total length of its timed phases. measure
// runs one slice of them, secs long; it is called passes times. finish
// verifies the outputs against the oracle and records the metrics. tearDown
// stops every goroutine and listener setUp started.
//
// Within a slice a metric is the quantity its name defines (operations over
// elapsed time, the exact median of the slice's round trips); across the
// slices of a run it is the median, or for a throughput the total over the
// total time.
type workload interface {
	name() string
	setUp(c *runCtx, secs float64) error
	measure(c *runCtx, secs float64) error
	finish(c *runCtx) error
	tearDown()
}

func newWorkload(name string) workload {
	switch name {
	case "lib-sketch":
		return &libSketch{}
	case "serve-write":
		return &serveWrite{}
	case "serve-read":
		return &serveRead{}
	case "many-keys":
		return &manyKeys{}
	}
	panic("benchmark: unknown workload " + name)
}

// passes is the number of slices each workload's timed phases are cut into.
const passes = 5

// clients is the number of load-generating goroutines and connections: one
// per core of the two-core reference box, so the generator never outnumbers
// the machine. All loops are closed: a client sends its next request only
// when the previous one has been answered.
const clients = 2

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmUp is the untimed lead-in of a serve workload: a tenth of the
// measured time, at most the 3 s the full-size runs use.
func warmUp(secs float64) time.Duration {
	w := secs / 10
	if w > 3 {
		w = 3
	}
	return secondsToDuration(w)
}

// timeChunks calls f in chunks of n for about d (at least two chunks) and
// returns each chunk's time per call in nanoseconds.
func timeChunks(d time.Duration, n int, f func()) []float64 {
	var per []float64
	deadline := time.Now().Add(d)
	for len(per) < 2 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return per
}

// timeOp is timeChunks reduced to one figure, the median chunk.
func timeOp(d time.Duration, n int, f func()) float64 {
	return median(timeChunks(d, n, f))
}

// allocsPerCall measures heap allocations per call of f on a quiet process.
func allocsPerCall(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// procSnap is a reading of the whole-process counters.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pauseNs uint64
	heapSys uint64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNs: ms.PauseTotalNs, heapSys: ms.HeapSys}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// procUse sums the process counters over a workload's timed slices.
type procUse struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	pauseNs uint64
	heapSys uint64 // the largest seen
	cmds    int64
}

func (u *procUse) add(before, after procSnap, cmds int64) {
	u.cpu += after.cpu - before.cpu
	u.mallocs += after.mallocs - before.mallocs
	u.bytes += after.bytes - before.bytes
	u.pauseNs += after.pauseNs - before.pauseNs
	if after.heapSys > u.heapSys {
		u.heapSys = after.heapSys
	}
	u.cmds += cmds
}

// recordProc emits the proc.* metrics if this workload owns them.
func (c *runCtx) recordProc(workload string, u procUse) {
	if !c.trace || c.procOwner != workload || u.cmds == 0 {
		return
	}
	n := float64(u.cmds)
	c.res.set("proc.cpu_us_per_cmd", float64(u.cpu.Microseconds())/n)
	c.res.set("proc.allocs_per_cmd", float64(u.mallocs)/n)
	c.res.set("proc.alloc_bytes_per_cmd", float64(u.bytes)/n)
	c.res.set("proc.gc_pause_ms", float64(u.pauseNs)/1e6)
	c.res.set("proc.heap_peak_mb", float64(u.heapSys)/1e6)
}
