package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark runs on is shared with other tenants, and its
// speed drifts: a fixed computation run alone took from 1.7 to 4.3 ms within
// one minute, and its 10-second means spread by a quarter of their median
// over five minutes. That drift moves every time the benchmark measures, in
// step. So while the load runs, a speed probe measures the machine: a thread
// of the benchmark that every probeInterval runs probeKernel, a fixed
// computation on a few kilobytes, and records the thread CPU time it took.
// Each reported time is scaled by probeReferenceUS over the probe's median in
// the same window, which puts every run at one reference speed.
//
// The probe's time under load was the same on schedule-hot and
// schedule-zipf, whose daemons run entirely different code, so what the
// daemon does does not leak into the scale. Across runs the daemons' times
// moved nearly in proportion to the probe's; benchmark/README.md gives the
// numbers.
const (
	probeInterval = 10 * time.Millisecond
	// probeReferenceUS is the probe's median CPU time under the benchmark's
	// load on the 2-vCPU machine the bounds were set on; a run whose probe
	// reads this reports times as measured.
	probeReferenceUS = 68.0
)

// probeSample is one timing of probeKernel.
type probeSample struct {
	at time.Time
	us float64 // thread CPU time
}

// speedProbe runs probeKernel on a locked thread until stopped.
type speedProbe struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []probeSample
	err     error
	sum     uint64 // the kernel's results, kept so that no work is dropped
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stopc: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *speedProbe) run() {
	defer close(p.done)
	// Thread CPU time needs one thread for the whole timing. The thread is
	// handed back, not ended: the daemons are started with a parent-death
	// signal, which a thread that forked one would fire when it ends.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	buf := make([]int, len(probeInput))
	for {
		select {
		case <-p.stopc:
			return
		case <-tick.C:
		}
		c0, err := threadCPU()
		if err != nil {
			p.err = err
			return
		}
		p.sum += probeKernel(buf)
		c1, err := threadCPU()
		if err != nil {
			p.err = err
			return
		}
		p.samples = append(p.samples, probeSample{at: time.Now(), us: float64(c1-c0) / float64(time.Microsecond)})
	}
}

// stop ends the probe and returns its samples.
func (p *speedProbe) stop() ([]probeSample, error) {
	close(p.stopc)
	<-p.done
	if p.err == nil && len(p.samples) == 0 {
		p.err = fmt.Errorf("speed probe: no samples")
	}
	return p.samples, p.err
}

// clockThreadCPUTimeID is CLOCK_THREAD_CPUTIME_ID on Linux.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("speed probe: clock_gettime: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// probeInput is 512 seeded integers, 4 KiB. It and the buffer the probe
// sorts it in stay in the first-level cache.
var probeInput = func() []int {
	xs := make([]int, 512)
	v := uint64(7)
	for i := range xs {
		v = v*6364136223846793005 + 1
		xs[i] = int(v >> 33)
	}
	return xs
}()

// probeKernel sorts the probe input in buf and hashes the result, four
// times: branchy integer work without allocation.
func probeKernel(buf []int) uint64 {
	h := uint64(14695981039346656037)
	for r := 0; r < 4; r++ {
		copy(buf, probeInput)
		sort.Ints(buf)
		for _, v := range buf {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

// speedFactors returns, for each of n windows of length win from start, how
// much slower than the reference the machine ran: the median probe time of
// the samples in the window over probeReferenceUS. A window without samples
// takes the median of all of them.
func speedFactors(samples []probeSample, start time.Time, win time.Duration, n int) []float64 {
	byWindow := make([][]float64, n)
	var all []float64
	for _, s := range samples {
		all = append(all, s.us)
		if d := s.at.Sub(start); d >= 0 && int(d/win) < n {
			k := int(d / win)
			byWindow[k] = append(byWindow[k], s.us)
		}
	}
	f := make([]float64, n)
	for k, us := range byWindow {
		if len(us) == 0 {
			us = all
		}
		f[k] = median(us) / probeReferenceUS
	}
	return f
}

// scaled returns the phase's latencies by endpoint and its completed work by
// window, each at reference speed: a latency divided by the factor of the
// window it completed in, the work of a window multiplied by it.
func (p *phase) scaled(f []float64) (lat map[string][]float64, ops []float64) {
	lat = make(map[string][]float64, len(p.lat))
	for path, l := range p.lat {
		s := make([]float64, len(l))
		for i, v := range l {
			s[i] = v / f[p.latWindow[path][i]]
		}
		lat[path] = s
	}
	ops = make([]float64, len(p.windowOps))
	for k, v := range p.windowOps {
		ops[k] = v * f[k]
	}
	return lat, ops
}
