package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/ocssd"
)

// counters is a flat snapshot of every simulated counter of a stack,
// keyed "<layer>.<Field>" (for example "pblk.UserWrites"). Subtracting two
// snapshots gives the counts of one phase; the fingerprint hashes them.
type counters map[string]int64

// flatten adds every exported integer field of the struct v (a value or a
// pointer to one) to c under prefix, summing into existing keys so the
// stats of several dies, devices or targets fold into one layer total.
func (c counters) flatten(prefix string, v any) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int64:
			c[prefix+"."+f.Name] += rv.Field(i).Int()
		}
	}
}

// minus returns c - base, key by key.
func (c counters) minus(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not use reports 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentileUs returns the q-th percentile (0 < q <= 100) of the sorted
// latencies by the nearest-rank rule, in microseconds.
func percentileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float rounding (99.9/100*1000 = 999.0000000000001)
	// from pushing an exact rank up by one.
	rank := int(math.Ceil(q/100*float64(len(sorted)) - 1e-9))
	rank = max(1, min(rank, len(sorted)))
	return float64(sorted[rank-1]) / float64(time.Microsecond)
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []time.Duration) []time.Duration {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// meanUs returns the mean of the latencies in microseconds.
func meanUs(xs []time.Duration) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return ratio(sum, float64(len(xs))) / float64(time.Microsecond)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// waf is media bytes written per user byte written.
func waf(mediaSectors, sectorSize, userBytes int64) float64 {
	return ratio(float64(mediaSectors*sectorSize), float64(userBytes))
}

// puBusyFrac is the share of PU time spent in NAND array operations:
// page reads, programs and erases at the device's timing, over all PUs
// for the elapsed virtual time. Multi-plane reads and programs count once
// per PU operation (ocssd's Flash* counters); the dies count an erase per
// plane, so block erases are divided by the planes per PU.
func puBusyFrac(d counters, t ocssd.Timing, pus, planes int, elapsed time.Duration) float64 {
	busy := time.Duration(d["ocssd.FlashReads"])*t.PageRead +
		time.Duration(d["ocssd.FlashPrograms"])*t.PageProgram +
		time.Duration(d["nand.BlockErases"]/int64(max(planes, 1)))*t.BlockErase
	return ratio(float64(busy), float64(pus)*float64(elapsed))
}

// fingerprint hashes every simulated counter and metric. Two runs of the
// same workload, seed and length must print the same fingerprint, traced
// or not: host-side changes may not move it.
func fingerprint(c counters, sim map[string]float64) string {
	h := fnv.New64a()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d;", k, c[k])
	}
	keys = keys[:0]
	for k := range sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s;", k, strconv.FormatFloat(sim[k], 'g', -1, 64))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// layerGroups are the repository packages with a CPU share of their own.
var layerGroups = []string{"sim", "nand", "ocssd", "lightnvm", "blockdev", "pblk", "volume", "lsmdb", "fio"}

// cpuGroups are the per-layer CPU shares of a profile, in output order.
var cpuGroups = append(slices.Clone(layerGroups),
	"bench", "runtime_alloc", "runtime_sched", "runtime_copy", "runtime_gc", "runtime_other", "other")

// Runtime function-name fragments for the runtime_* groups, matched in
// this order: a name is charged to the first group with a matching
// fragment.
var runtimeGroups = []struct {
	group string
	frags []string
}{
	{"runtime_copy", []string{"memmove", "slicecopy", "duffcopy"}},
	{"runtime_alloc", []string{"malloc", "memclr", "duffzero", "mcache", "mcentral", "mheap", "mspan",
		"newobject", "newarray", "makeslice", "growslice", "makemap", "nextFree",
		"heapBits", "heapSetType", "allocSpan", "sweep", "refill", "fixalloc", "deductAssistCredit"}},
	{"runtime_gc", []string{"gcBgMarkWorker", "gcDrain", "scanobject", "greyobject", "markroot",
		"scanblock", "scanstack", "scanframe", "findObject", "gcmarknewobject", "wbBuf",
		"WriteBarrier", "bulkBarrier", "gcWork", "gcAssist", "markBits", "spanOf", "gcStart",
		"gcMark", "shade", "tryDeferToSpanScan", "scanSpan", "gcFlush"}},
	{"runtime_sched", []string{"schedule", "findRunnable", "park_m", "gopark", "goready",
		"ready", "chansend", "chanrecv", "send", "recv", "selectgo", "mcall", "gogo",
		"execute", "runqget", "runqput", "runqgrab", "runqsteal", "stealWork", "futex",
		"notesleep", "notewakeup", "lock2", "unlock2", "stopm", "startm", "wakep",
		"handoffp", "acquirep", "releasep", "casgstatus", "resetspinning", "checkTimers",
		"procyield", "osyield", "usleep", "mPark", "goexit", "newproc", "gfget", "gfput",
		"semacquire", "semrelease", "lockWithRank", "unlockWithRank", "netpoll", "nanotime",
		"goschedImpl", "dropg", "entersyscall", "exitsyscall"}},
}

// funcPackage returns the import path of a symbol as pprof prints it:
// "repro/internal/pblk.(*Pblk).admitStep" -> "repro/internal/pblk".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuGroup maps one profiled function to its cpuGroups entry.
func cpuGroup(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		layer := strings.TrimPrefix(pkg, "repro/internal/")
		if slices.Contains(layerGroups, layer) {
			return layer
		}
		return "other"
	case pkg == "runtime" || pkg == fn || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		// Names without a package ("cmpbody", "aeshashbody") are the
		// runtime's assembly routines.
		name := strings.TrimPrefix(fn, pkg+".")
		for _, g := range runtimeGroups {
			for _, f := range g.frags {
				if strings.Contains(name, f) {
					return g.group
				}
			}
		}
		return "runtime_other"
	}
	return "other"
}

// cpuShares groups the flat (self) time of a `go tool pprof -top` listing
// by layer and returns each group's share of the total.
func cpuShares(top string) (map[string]float64, error) {
	flat := make(map[string]float64)
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(top))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		fn := strings.Join(fields[5:], " ")
		flat[cpuGroup(fn)] += v
		total += v
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	out := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		out[g] = ratio(flat[g], total)
	}
	return out, nil
}

// parseDuration reads a pprof time cell such as "1.20s", "30ms" or "0".
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return d.Seconds(), nil
}
