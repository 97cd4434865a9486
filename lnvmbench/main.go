// Command lnvmbench is the repository's benchmark: it builds one of three
// workloads on the LightNVM stack, runs a fixed-length measured phase,
// checks the outputs, and prints every metric by name with its unit. The
// last line of its output is one JSON object with the result.
//
//	lnvmbench -workload ftl-gc-mix -seed 1 -seconds 25 -trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) reports the per-layer metrics: it runs the measured phase
// twice from identical set-ups, once plain and once with spans, state
// sampling and a CPU profile, and requires both to leave the same
// simulated fingerprint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/sim"
)

// setupReps is how many times an untraced run builds its stack; setup_s
// is the median, and the last build runs the measured phase.
const setupReps = 3

// rounds splits the measured phase into equal op counts run back to back,
// with a host probe after each.
const rounds = 180

// sampleEvery is the traced run's state-sampling period in virtual time.
const sampleEvery = time.Millisecond

type config struct {
	seed    int64
	seconds float64
	ops     int64 // measured-phase op count for tests; 0 derives it from seconds
	tiny    bool  // small media and datasets, for tests
	out     string
	probe   *hostProbe // run after each measured round; nil for none
}

func main() {
	var (
		name  = flag.String("workload", "", "workload: ftl-gc-mix, fleet-randread or kv-mixed")
		seed  = flag.Int64("seed", 1, "workload seed")
		secs  = flag.Float64("seconds", 25, "run length; sets the measured phase's op count")
		trace = flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
		out   = flag.String("out", ".bench_build/out", "directory for the span file and CPU profile")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lnvmbench: need -workload (ftl-gc-mix, fleet-randread, kv-mixed), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	// The simulation runs one process at a time; a second P only adds
	// cross-CPU wakeups to every handoff, and their cost varies with
	// whatever else the host runs.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *secs, out: *out}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(w, cfg)
	} else {
		rep, err = runPlain(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lnvmbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lnvmbench: %v\n", err)
		os.Exit(1)
	}
}

func (c config) opCount(w workload) int64 {
	if c.ops > 0 {
		return c.ops
	}
	return max(1, int64(c.seconds*w.opsPerSecond))
}

// instance is one build of a workload's stack and, when measured, its
// measured phase.
type instance struct {
	setup time.Duration
	ph    phase
	chk   check
	media media
	delta counters // moved by the measured phase
	end   counters // at the end of the measured phase
	write *phaseWindow
	wall  time.Duration
	// roundOK and roundSecs are each round's successful ops and host time.
	roundOK   []int64
	roundSecs []float64
	rt        runtimeDelta
	sm        samples
	tr        *tracer
	cpu       map[string]float64
	simE2E    map[string]float64
	fp        string
}

// runInstance builds the stack in a fresh simulation and, if measure,
// runs the measured phase and the correctness check on it.
func runInstance(w workload, cfg config, measure bool, mode phaseMode) (*instance, error) {
	runtime.GC()
	debug.FreeOSMemory()
	env := sim.NewEnv(cfg.seed)
	inst := &instance{}
	var runErr error
	env.Go("bench", func(p *sim.Proc) {
		t0 := time.Now()
		st, err := w.setup(p, env, cfg.seed, cfg.tiny)
		inst.setup = time.Since(t0)
		if err != nil {
			runErr = fmt.Errorf("setup: %w", err)
			return
		}
		if measure {
			runErr = inst.measure(p, env, st, cfg.opCount(w), mode, cfg)
		}
		if err := st.close(p); err != nil && runErr == nil {
			runErr = fmt.Errorf("close: %w", err)
		}
	})
	env.Run()
	// The registry would keep the device, and its NAND arenas, alive.
	lightnvm.UnregisterAll()
	return inst, runErr
}

// phaseMode selects what a measured phase records besides its metrics.
type phaseMode int

const (
	plainPhase    phaseMode = iota
	profiledPhase           // CPU profile to <out>/cpu.pprof
	tracedPhase             // spans and state samples
)

func (inst *instance) measure(p *sim.Proc, env *sim.Env, st stack, n int64, mode phaseMode, cfg config) error {
	inst.media = st.media()
	var (
		smp  *sampler
		prof *os.File
	)
	switch mode {
	case tracedPhase:
		inst.tr = newTracer(env)
		inst.sm.freeGroupsMin = math.MaxInt
		smp = startSampler(env, sampleEvery, func() {
			inst.sm.n++
			st.sample(&inst.sm)
		})
	case profiledPhase:
		var err error
		if prof, err = os.Create(filepath.Join(cfg.out, "cpu.pprof")); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	ph := phase{lat: *newLatencies(n)}
	// Start from a collected heap so earlier garbage is not charged to
	// the measured phase.
	runtime.GC()
	before := st.counters()
	rt0 := readRuntime()
	t0 := time.Now()
	var err error
	for r := 0; r < rounds && err == nil; r++ {
		ok0, r0 := ph.ops-ph.failed, time.Now()
		err = st.measure(p, r, n*int64(r+1)/rounds-n*int64(r)/rounds, inst.tr, &ph)
		inst.roundSecs = append(inst.roundSecs, time.Since(r0).Seconds())
		inst.roundOK = append(inst.roundOK, ph.ops-ph.failed-ok0)
		if cfg.probe != nil {
			cfg.probe.run()
		}
	}
	inst.wall = time.Since(t0)
	inst.rt = readRuntime().minus(rt0)
	inst.end = st.counters()
	switch mode {
	case tracedPhase:
		smp.stop()
	case profiledPhase:
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	inst.ph = ph
	inst.delta = inst.end.minus(before)
	inst.write = st.writePhase()
	inst.simE2E = simMetrics(inst)
	all := counters{}
	for k, v := range inst.end {
		all["end."+k] = v
		all["delta."+k] = inst.delta[k]
	}
	inst.fp = fingerprint(all, inst.simE2E)
	inst.chk = st.check(p)
	return nil
}

// runtimeDelta is what the Go runtime did during the measured phase.
type runtimeDelta struct {
	allocBytes, gcCPU, totalCPU, gcCycles float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeDelta{allocBytes: v[0], gcCPU: v[1], totalCPU: v[2], gcCycles: v[3]}
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.gcCycles - b.gcCycles}
}

// simMetrics are the end-to-end metrics in virtual time. fleet-randread's
// measured phase only reads; its write metrics describe its set-up's
// second overwrite pass.
func simMetrics(inst *instance) map[string]float64 {
	ph := inst.ph
	wp, wd := ph, inst.delta
	if inst.write != nil {
		wp, wd = inst.write.ph, inst.write.delta
	}
	// Sorted in place: a copy would be resident or not depending on
	// whether it reuses freed memory, and move peak_rss_MB.
	reads, writes := ph.lat.reads, wp.lat.writes
	slices.Sort(reads)
	slices.Sort(writes)
	virtual := time.Duration(inst.delta["sim.Now"])
	return map[string]float64{
		"sim_ops_per_s":     ratio(float64(ph.ops-ph.failed), virtual.Seconds()),
		"sim_read_mean_us":  meanUs(reads),
		"sim_read_p50_us":   percentileUs(reads, 50),
		"sim_read_p99_us":   percentileUs(reads, 99),
		"sim_read_p999_us":  percentileUs(reads, 99.9),
		"sim_write_mean_us": meanUs(writes),
		"sim_write_p50_us":  percentileUs(writes, 50),
		"sim_write_p99_us":  percentileUs(writes, 99),
		"sim_write_p999_us": percentileUs(writes, 99.9),
		"sim_waf":           waf(wd["ocssd.SectorsWritten"], int64(inst.media.sectorSize), wp.userWritten),
	}
}

// report is one run's result.
type report struct {
	workload  string
	cfg       config
	inst      *instance
	notes     []string
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric // reported in the JSON result
	printed   []metric // printed only
	values    map[string]float64
}

func newReport(w workload, cfg config, inst *instance) *report {
	r := &report{workload: w.name, cfg: cfg, inst: inst, values: map[string]float64{}}
	r.attempted = inst.ph.ops + inst.chk.ops
	r.failed = inst.ph.failed + inst.chk.failed
	r.correct = inst.ph.mismatches == 0 && inst.chk.mismatches == 0 && inst.chk.err == nil
	if inst.chk.err != nil {
		r.failed++
		r.notes = append(r.notes, "invariant violation: "+inst.chk.err.Error())
	}
	return r
}

// runPlain is the untraced run: end-to-end metrics. Its host figures are
// scaled by the host probe.
func runPlain(w workload, cfg config) (*report, error) {
	cfg.probe = newHostProbe()
	var setups []float64
	var inst *instance
	for i := 0; i < setupReps; i++ {
		var err error
		if inst, err = runInstance(w, cfg, i == setupReps-1, plainPhase); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setup.Seconds())
	}
	r := newReport(w, cfg, inst)
	for k, v := range inst.simE2E {
		r.values[k] = v
	}
	var ok int64
	for _, n := range inst.roundOK {
		ok += n
	}
	slow := cfg.probe.slowdown()
	r.values["host_ops_per_s"] = ratio(float64(ok), sum(inst.roundSecs))
	r.values["host_ref_ops_per_s"] = r.values["host_ops_per_s"] * slow
	r.values["host_setup_s"] = median(setups)
	r.values["setup_s"] = ratio(median(setups), slow)
	r.values["peak_rss_MB"] = peakRSSMB()
	r.values["host_alloc_B_per_op"] = ratio(inst.rt.allocBytes, float64(inst.ph.ops))
	r.metrics = endToEnd
	r.printed = printedOnly
	r.notes = append(r.notes, fmt.Sprintf("setup_s samples %.3f host s", setups),
		fmt.Sprintf("host probe: %d runs, mean %.3f ms, slowdown vs the %v reference %.4f",
			len(cfg.probe.secs), 1e3*sum(cfg.probe.secs)/float64(len(cfg.probe.secs)), refProbe, slow))
	return r, nil
}

// runTraced is the traced run: the measured phase with a CPU profile,
// then again from an identical set-up with spans and state sampling. The
// profiled phase is the baseline of the tracing overhead, so the profile
// does not include the tracer's own cost.
func runTraced(w workload, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	plain, err := runInstance(w, cfg, true, profiledPhase)
	if err != nil {
		return nil, err
	}
	traced, err := runInstance(w, cfg, true, tracedPhase)
	if err != nil {
		return nil, err
	}
	r := newReport(w, cfg, traced)
	if plain.fp != traced.fp {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("fingerprint differs: untraced %s, traced %s", plain.fp, traced.fp))
	}
	prof := filepath.Join(cfg.out, "cpu.pprof")
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if plain.cpu, err = cpuShares(string(top)); err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.csv", w.name, cfg.seed))
	if err := traced.tr.writeSpans(spans); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: %d kept, %d dropped, written to %s", len(traced.tr.spans), traced.tr.dropped, spans))
	r.values = perLayer(plain, traced)
	r.metrics = perLayerMetrics
	return r, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable lines, then the JSON result line.
func (r *report) print(f *os.File) error {
	inst := r.inst
	fmt.Fprintf(f, "workload %s seed %d: %d measured ops (%d reads, %d writes ok, %d failed) in %.2fs host, %.3fs virtual\n",
		r.workload, r.cfg.seed, inst.ph.ops, len(inst.ph.lat.reads), len(inst.ph.lat.writes), inst.ph.failed,
		inst.wall.Seconds(), time.Duration(inst.delta["sim.Now"]).Seconds())
	fmt.Fprintf(f, "sizes: %s\n", inst.media.sizes)
	if inst.write != nil {
		fmt.Fprintf(f, "write metrics describe the set-up overwrite: %d writes\n", len(inst.write.ph.lat.writes))
	}
	fmt.Fprintf(f, "check: %d ops, %d failed, %d mismatched\n", inst.chk.ops, inst.chk.failed, inst.chk.mismatches)
	fmt.Fprintf(f, "failed_op_frac %.6g (%d of %d ops)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	fmt.Fprintf(f, "fingerprint %s\n", inst.fp)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		fmt.Fprintf(f, "  %-40s %16.6f %s\n", m.Name, v, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, m := range r.printed {
		fmt.Fprintf(f, "  %-40s %16.6f %s (printed only)\n", m.Name, r.values[m.Name], m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}
