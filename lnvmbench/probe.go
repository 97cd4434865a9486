package main

import "time"

// refProbe is the probe's time on the reference host: the host_ref_*
// figures and setup_s are scaled to a host on which one probe takes this
// long.
const refProbe = 3 * time.Millisecond

// hostProbe times a fixed memory-bound kernel between the measured
// rounds. The shared host this benchmark is made for switches between
// memory-system states about 1.5x apart, every few hundred milliseconds
// and with a drift over minutes, while a CPU-bound loop stays within a
// few percent; the workloads, which spend much of their time in memclr,
// copies and cache misses, slow down with it. Scaling a run's host
// figures by the mean probe time of the same run cancels that drift and
// leaves what the program itself costs: a change to the program moves the
// workload's rounds but not the probe.
type hostProbe struct {
	buf  []uint64
	secs []float64
}

func newHostProbe() *hostProbe {
	return &hostProbe{buf: make([]uint64, 2<<20)} // 16 MB, more than a host CPU's share of L3
}

// run clears 4 MB and makes 100k dependent random read-modify-writes
// over the buffer, and records how long that took.
func (h *hostProbe) run() {
	t0 := time.Now()
	clear(h.buf[:512<<10])
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 100000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(h.buf))
		acc += h.buf[j]
		h.buf[j] = acc
	}
	h.secs = append(h.secs, time.Since(t0).Seconds())
}

// slowdown is how many times slower than the reference host this host ran
// over the probes so far: the mean probe time ÷ refProbe. The mean, not the
// median, because the probe times are bimodal and the mean follows the
// share of time spent in each state.
func (h *hostProbe) slowdown() float64 {
	return ratio(sum(h.secs), float64(len(h.secs))*refProbe.Seconds())
}
