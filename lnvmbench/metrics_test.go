package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/ocssd"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 1000; i++ {
		xs = append(xs, time.Duration(i)*time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{
		{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentileUs(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentileUs(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	if got := meanUs(xs[:4]); got != 2.5 {
		t.Errorf("mean = %v, want 2.5", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestWAF(t *testing.T) {
	// 300 sectors of 4 KB reached the media for 100 user 4 KB blocks.
	if got := waf(300, 4096, 100*4096); got != 3 {
		t.Errorf("waf = %v, want 3", got)
	}
	if got := waf(10, 4096, 0); got != 0 {
		t.Errorf("waf with no user writes = %v, want 0", got)
	}
}

func TestPUBusyFrac(t *testing.T) {
	tm := ocssd.Timing{PageRead: 50 * time.Microsecond, PageProgram: time.Millisecond, BlockErase: 3 * time.Millisecond}
	d := counters{
		"ocssd.FlashReads":    1000, // 50 ms
		"ocssd.FlashPrograms": 100,  // 100 ms
		"nand.BlockErases":    40,   // 10 multi-plane erases over 4 planes: 30 ms
	}
	// 180 ms of array time over 2 PUs for 1 s.
	got := puBusyFrac(d, tm, 2, 4, time.Second)
	if math.Abs(got-0.09) > 1e-12 {
		t.Errorf("pu_busy_frac = %v, want 0.09", got)
	}
}

func TestCounters(t *testing.T) {
	type st struct {
		A, B   int64
		D      time.Duration
		hidden int64
		Name   string
	}
	c := counters{}
	c.flatten("x", &st{A: 1, B: 2, D: 3, hidden: 4})
	c.flatten("x", st{A: 10})
	want := counters{"x.A": 11, "x.B": 2, "x.D": 3}
	if len(c) != len(want) {
		t.Fatalf("flatten = %v, want %v", c, want)
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %d, want %d", k, c[k], v)
		}
	}
	d := c.minus(counters{"x.A": 1})
	if d["x.A"] != 10 || d["x.B"] != 2 {
		t.Errorf("minus = %v", d)
	}
}

func TestFingerprint(t *testing.T) {
	c := counters{"a": 1, "b": 2}
	m := map[string]float64{"sim_ops_per_s": 1.5}
	fp := fingerprint(c, m)
	if fp != fingerprint(counters{"b": 2, "a": 1}, map[string]float64{"sim_ops_per_s": 1.5}) {
		t.Error("fingerprint depends on map order")
	}
	if fp == fingerprint(counters{"a": 1, "b": 3}, m) {
		t.Error("fingerprint ignores a counter")
	}
	if fp == fingerprint(c, map[string]float64{"sim_ops_per_s": 1.5000001}) {
		t.Error("fingerprint ignores a metric digit")
	}
}

func TestCPUGroup(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pblk.(*Pblk).admitStep":        "pblk",
		"repro/internal/sim.(*Env).dispatch":           "sim",
		"repro/internal/lsmdb.fnv64 (inline)":          "lsmdb",
		"repro/internal/ppa.Format.Encode":             "other",
		"main.(*kvStack).measure.func1":                "bench",
		"runtime.mallocgc":                             "runtime_alloc",
		"runtime.memclrNoHeapPointers":                 "runtime_alloc",
		"runtime.memmove":                              "runtime_copy",
		"runtime.findRunnable":                         "runtime_sched",
		"runtime.chanrecv":                             "runtime_sched",
		"runtime.scanobject":                           "runtime_gc",
		"runtime.gcBgMarkWorker":                       "runtime_gc",
		"runtime.mapaccess1_fast64":                    "runtime_other",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime_other",
		"cmpbody":          "runtime_other",
		"runtime.duffcopy": "runtime_copy",
		"sort.insertionSortCmpFunc[go.shape.float64]":    "other",
		"math/rand.(*rngSource).Uint64 (inline)":         "other",
		"repro/internal/blockdev.(*cbQueue).dispatch":    "blockdev",
		"repro/internal/volume.(*Volume).issueData.func": "volume",
	} {
		if got := cpuGroup(fn); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUShares(t *testing.T) {
	top := `File: lnvmbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     1.20s 60.00% 60.00%      1.20s 60.00%  runtime.memmove
     500ms 25.00% 85.00%      0.90s 45.00%  repro/internal/pblk.(*Pblk).admitStep
     0.20s 10.00% 95.00%      0.20s 10.00%  repro/internal/lsmdb.fnv64 (inline)
     100ms  5.00%   100%      0.10s  5.00%  runtime.mallocgc
         0     0%   100%      2.00s   100%  runtime.goexit
`
	got, err := cpuShares(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"runtime_copy": 0.6, "pblk": 0.25, "lsmdb": 0.1, "runtime_alloc": 0.05}
	sum := 0.0
	for _, g := range cpuGroups {
		sum += got[g]
		if math.Abs(got[g]-want[g]) > 1e-9 {
			t.Errorf("share %s = %v, want %v", g, got[g], want[g])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := cpuShares("no table here"); err == nil {
		t.Error("cpuShares accepted output without a table")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
