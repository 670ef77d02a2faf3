package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine this benchmark runs on is a few cores of a shared host, and
// how fast those cores run shifts by up to twice over minutes as other
// tenants come and go: the same code on the same inputs measured 1.85 and
// 3.9 ms of CPU per fleet tick an hour apart. A fixed kernel that belongs to
// the benchmark, not to the programs measured, runs alongside each
// measurement, one short chunk every probePeriod, and every timing is
// reported scaled to the speed the kernel had on a reference machine state
// (refChunkMs). A change to the programs moves the scaled figures as it
// moves the raw ones; a slower host slows the kernel as well, and cancels.
// The raw figures are printed too.
//
// A chunk is timed by its thread's CPU time, not wall time, so the
// measured programs taking the CPU from the probe does not read as a slow
// machine; and it runs while the programs run, so it sees the host as
// they do, busy cores included.

// refChunkMs is the median CPU time of one probe chunk on the 2-CPU Intel
// Xeon this benchmark was calibrated on in a quiet spell. It only sets the
// scale of the reported figures; any fixed value compares runs alike.
const refChunkMs = 4.0

// probePeriod is how often the probe runs a chunk: about 5% of one CPU.
const probePeriod = 100 * time.Millisecond

// speedKernel is the probe's state: tables and buffers at two sizes, one
// that fits a core's own caches and one that spills into the cache the
// host's cores share, so the probe slows as the programs do whether the
// host contends for the cores or for the shared cache.
type speedKernel struct {
	small, large hashedWork
	sink         float64
}

type hashedWork struct {
	table []uint64
	buf   []float64
	x     uint64
}

func newSpeedKernel(seed uint64) *speedKernel {
	return &speedKernel{
		small: hashedWork{table: make([]uint64, 1<<13), buf: make([]float64, 1<<16), x: seed | 1},
		large: hashedWork{table: make([]uint64, 1<<16), buf: make([]float64, 1<<19), x: seed | 1},
	}
}

// chunk does a fixed amount of mixed work: a dependent floating-point
// chain, then hashed loads and stores in each table, like the engines'
// inner loops.
func (k *speedKernel) chunk() {
	s := k.sink
	for i := 0; i < 100_000; i++ {
		s = math.Sqrt(s*1.000001+float64(i&1023)) + 0.5
	}
	s = k.small.run(42_000, s)
	s = k.large.run(75_000, s)
	k.sink = math.Mod(s, 1e6)
}

func (w *hashedWork) run(n int, s float64) float64 {
	x := w.x
	tmask := uint64(len(w.table) - 1)
	bmask := len(w.buf) - 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h := (x * 0x9e3779b97f4a7c15) >> 40 & tmask
		w.table[h] += x
		j := int(w.table[(h*7)&tmask]>>7) & bmask
		w.buf[j] = w.buf[j]*0.5 + s*1e-9
		s += w.buf[(j*7)&bmask] * 1e-12
	}
	w.x = x
	return s
}

// speedProbe runs the kernel in the background until stopped, and reads
// the machine's CPU and steal times at every chunk.
type speedProbe struct {
	quit    chan struct{}
	done    chan struct{}
	chunks  []float64 // CPU milliseconds per chunk
	samples []cpuSample
}

type cpuSample struct {
	at          time.Time
	busy, steal float64 // machineCPU's figures
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The chunk's thread CPU time is read on the thread that ran it.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newSpeedKernel(0x2545f4914f6cdd1d)
		k.chunk() // warm the caches
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
			if busy, steal, err := machineCPU(); err == nil {
				p.samples = append(p.samples, cpuSample{time.Now(), busy, steal})
			}
			c0, err0 := threadCPU()
			k.chunk()
			c1, err1 := threadCPU()
			if err0 == nil && err1 == nil {
				p.chunks = append(p.chunks, ms(c1-c0))
			}
		}
	}()
	return p
}

// stop ends the probe, waits for it and returns its chunk times.
func (p *speedProbe) stop() []float64 {
	close(p.quit)
	<-p.done
	return p.chunks
}

// stolen is the share of the CPU time the machine wanted that the host
// took, between the last sample at or before from and the first at or
// after to (the nearest samples at the ends of the probe's run).
func (p *speedProbe) stolen(from, to time.Time) float64 {
	s := p.samples
	if len(s) < 2 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].at.After(from) }) - 1
	j := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(to) })
	i = max(i, 0)
	j = min(j, len(s)-1)
	if j <= i {
		return 0
	}
	steal := s[j].steal - s[i].steal
	return ratio(steal, s[j].busy-s[i].busy+steal)
}

// threadCPU is the calling thread's CPU time, as precise as the kernel
// keeps it (getrusage leaves out the running slice; this clock does not).
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID of <time.h>.
const clockThreadCPUTimeID = 3
