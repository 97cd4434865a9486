package main

import "time"

// metric is one reported metric as BENCHMARK.json declares it.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics. sim_* are in virtual time and
// repeat exactly for a seed and run length; peak_rss_MB is an OS
// measurement; host_ref_ops_per_s and setup_s are wall-clock measurements
// scaled to the reference host by the run's host probe.
var endToEnd = []metric{
	{"sim_ops_per_s", "1/s", "higher"},
	{"sim_read_mean_us", "us", "lower"},
	{"sim_read_p99_us", "us", "lower"},
	{"sim_read_p999_us", "us", "lower"},
	{"sim_write_p99_us", "us", "lower"},
	{"sim_waf", "ratio", "lower"},
	{"host_ref_ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_MB", "MB", "lower"},
}

// printedOnly are end-to-end figures the untraced run prints but does not
// report in its JSON result, because they cannot be bounded:
//   - A median latency sits on a plateau of identical virtual-time samples
//     (an uncontended read, a write acknowledged from the buffer), so it
//     reads the same for every seed; the mean stands in for it.
//   - The mean and p99.9 of writes are set by a handful of GC and
//     rate-limiter freezes and vary by a quarter or more from seed to seed.
//   - Allocation per op is near zero on fleet-randread; the traced run
//     reports it as go.alloc_B_per_op.
//   - The unscaled host rate and set-up time move with the load of other
//     machines on the same host by a quarter or more within minutes.
var printedOnly = []metric{
	{"sim_read_p50_us", "us", "lower"},
	{"sim_write_p50_us", "us", "lower"},
	{"sim_write_mean_us", "us", "lower"},
	{"sim_write_p999_us", "us", "lower"},
	{"host_alloc_B_per_op", "B", "lower"},
	{"host_ops_per_s", "1/s", "higher"},
	{"host_setup_s", "s", "lower"},
}

// perLayerMetrics are the traced run's metrics, grouped by layer. A layer
// a workload does not use reports 0.
var perLayerMetrics = []metric{
	{"sim.virtual_s", "s", "lower"},
	{"sim.spawns_per_kop", "count", "lower"},
	{"go.gc_cpu_frac", "frac", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.alloc_B_per_op", "B", "lower"},
	{"nand.page_reads_per_op", "count", "lower"},
	{"nand.page_programs_per_op", "count", "lower"},
	{"nand.erases_per_kop", "count", "lower"},
	{"ocssd.pu_busy_frac", "frac", "lower"},
	{"ocssd.sectors_per_read_cmd", "count", "higher"},
	{"ocssd.sectors_per_write_cmd", "count", "higher"},
	{"ocssd.page_cache_hit_frac", "frac", "higher"},
	{"ocssd.suspensions_per_kop", "count", "lower"},
	{"ocssd.read_retries", "count", "lower"},
	{"blockdev.queue_wait_p99_us", "us", "lower"},
	{"pblk.waf", "ratio", "lower"},
	{"pblk.gc_moved_frac", "frac", "lower"},
	{"pblk.pad_frac", "frac", "lower"},
	{"pblk.gc_victims_per_GB", "count", "lower"},
	{"pblk.free_groups_min", "count", "higher"},
	{"pblk.buffer_read_frac", "frac", "higher"},
	{"pblk.read_service_p50_us", "us", "lower"},
	{"pblk.read_service_p99_us", "us", "lower"},
	{"pblk.write_service_p99_us", "us", "lower"},
	{"pblk.write_errors", "count", "lower"},
	{"pblk.gc_lost_sectors", "count", "lower"},
	{"volume.member_reads_per_read", "count", "lower"},
	{"volume.read_skew", "ratio", "lower"},
	{"volume.retries", "count", "lower"},
	{"lsmdb.app_waf", "ratio", "lower"},
	{"lsmdb.compaction_read_per_user_byte", "ratio", "lower"},
	{"lsmdb.stalls_per_kput", "count", "lower"},
	{"lsmdb.wal_syncs_per_kput", "count", "lower"},
	{"lsmdb.block_cache_hit_frac", "frac", "higher"},
	{"lsmdb.bloom_skips_per_get", "count", "higher"},
	{"lsmdb.device_read_bytes_per_get", "B", "lower"},
	{"lsmdb.space_amp", "ratio", "lower"},
	{"lsmdb.tables_max", "count", "lower"},
	{"cpu.sim", "frac", "lower"},
	{"cpu.nand", "frac", "lower"},
	{"cpu.ocssd", "frac", "lower"},
	{"cpu.lightnvm", "frac", "lower"},
	{"cpu.blockdev", "frac", "lower"},
	{"cpu.pblk", "frac", "lower"},
	{"cpu.volume", "frac", "lower"},
	{"cpu.lsmdb", "frac", "lower"},
	{"cpu.fio", "frac", "lower"},
	{"cpu.bench", "frac", "lower"},
	{"cpu.runtime_alloc", "frac", "lower"},
	{"cpu.runtime_sched", "frac", "lower"},
	{"cpu.runtime_copy", "frac", "lower"},
	{"cpu.runtime_gc", "frac", "lower"},
	{"cpu.runtime_other", "frac", "lower"},
	{"cpu.other", "frac", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
}

// perLayer computes the per-layer metrics. Counter ratios come from the
// measured phase's counters, which both phases share; the Go runtime
// figures and CPU shares come from the profiled phase, and spans and
// samples from the traced one.
func perLayer(plain, traced *instance) map[string]float64 {
	d, end, ph := traced.delta, traced.end, traced.ph
	ops := float64(ph.ops)
	kops := ops / 1000
	virtual := time.Duration(d["sim.Now"])
	ss := float64(traced.media.sectorSize)
	m := map[string]float64{
		"sim.virtual_s":      virtual.Seconds(),
		"sim.spawns_per_kop": ratio(float64(d["sim.Spawns"]), kops),
		"go.gc_cpu_frac":     ratio(plain.rt.gcCPU, plain.rt.totalCPU),
		"go.gc_cycles":       plain.rt.gcCycles,
		"go.alloc_B_per_op":  ratio(plain.rt.allocBytes, ops),

		"nand.page_reads_per_op":    ratio(float64(d["nand.PageReads"]), ops),
		"nand.page_programs_per_op": ratio(float64(d["nand.PagePrograms"]), ops),
		"nand.erases_per_kop":       ratio(float64(d["nand.BlockErases"]), kops),

		"ocssd.pu_busy_frac":          puBusyFrac(d, traced.media.timing, traced.media.pus, traced.media.planes, virtual),
		"ocssd.sectors_per_read_cmd":  ratio(float64(d["ocssd.SectorsRead"]), float64(d["ocssd.Reads"])),
		"ocssd.sectors_per_write_cmd": ratio(float64(d["ocssd.SectorsWritten"]), float64(d["ocssd.Writes"])),
		"ocssd.page_cache_hit_frac":   ratio(float64(d["ocssd.CacheHits"]), float64(d["ocssd.CacheHits"]+d["ocssd.FlashReads"])),
		"ocssd.suspensions_per_kop":   ratio(float64(d["ocssd.Suspensions"]), kops),
		"ocssd.read_retries":          float64(d["ocssd.ReadRetries"]),

		"pblk.write_errors":    float64(d["pblk.WriteErrors"]),
		"pblk.gc_lost_sectors": float64(d["pblk.GCLostSectors"]),

		"volume.retries": float64(d["volume.RetriedReads"] + d["volume.RetriedWrites"]),

		"lsmdb.app_waf": ratio(float64(d["lsmdb.WALBytes"]+d["lsmdb.FlushedBytes"]+d["lsmdb.CompactionWriteBytes"]),
			float64(d["lsmdb.UserBytesIn"])),
		"lsmdb.compaction_read_per_user_byte": ratio(float64(d["lsmdb.CompactionReadBytes"]), float64(d["lsmdb.UserBytesIn"])),
		"lsmdb.stalls_per_kput":               ratio(float64(d["lsmdb.WriteStalls"]), float64(d["lsmdb.Puts"])/1000),
		"lsmdb.wal_syncs_per_kput":            ratio(float64(d["lsmdb.Syncs"]), float64(d["lsmdb.Puts"])/1000),
		"lsmdb.block_cache_hit_frac":          ratio(float64(d["lsmdb.CacheHits"]), float64(d["lsmdb.CacheHits"]+d["lsmdb.CacheMisses"])),
		"lsmdb.bloom_skips_per_get":           ratio(float64(d["lsmdb.BloomSkips"]), float64(d["lsmdb.Gets"])),
		"lsmdb.device_read_bytes_per_get":     ratio(float64(traced.tr.clientReadBytes), float64(d["lsmdb.Gets"])),
		"lsmdb.space_amp":                     ratio(float64(end["lsmdb.Tables"]*end["lsmdb.SlotBytes"]), float64(end["lsmdb.LiveKeyBytes"])),
		"lsmdb.tables_max":                    float64(traced.sm.tablesMax),

		"trace.overhead_s": traced.wall.Seconds() - plain.wall.Seconds(),
		"trace.spans":      float64(int64(len(traced.tr.spans)) + traced.tr.dropped),
	}

	// pblk: device writes per user write, and what the extra ones were.
	user, moved, pad := float64(d["pblk.UserWrites"]), float64(d["pblk.GCMovedSectors"]), float64(d["pblk.PaddedSectors"])
	m["pblk.waf"] = ratio(user+moved+pad, user)
	m["pblk.gc_moved_frac"] = ratio(moved, user+moved+pad)
	m["pblk.pad_frac"] = ratio(pad, user+moved+pad)
	m["pblk.gc_victims_per_GB"] = ratio(float64(d["pblk.GCBlocksRecycled"]), user*ss/1e9)
	m["pblk.free_groups_min"] = 0
	if traced.sm.n > 0 {
		m["pblk.free_groups_min"] = float64(traced.sm.freeGroupsMin)
	}
	m["pblk.buffer_read_frac"] = ratio(float64(d["pblk.CacheReads"]), float64(d["pblk.UserReads"]))
	rs, ws, qw := sortedCopy(traced.tr.readService), sortedCopy(traced.tr.writeService), sortedCopy(traced.tr.queueWait)
	m["pblk.read_service_p50_us"] = percentileUs(rs, 50)
	m["pblk.read_service_p99_us"] = percentileUs(rs, 99)
	m["pblk.write_service_p99_us"] = percentileUs(ws, 99)
	m["blockdev.queue_wait_p99_us"] = percentileUs(qw, 99)

	// volume: member sectors read per volume read, and how evenly the
	// members share them.
	members, total, most := 0, 0.0, 0.0
	for ; ; members++ {
		v, ok := d[memberKey(members)]
		if !ok {
			break
		}
		total += float64(v)
		most = max(most, float64(v))
	}
	m["volume.member_reads_per_read"] = ratio(total, float64(d["volume.Reads"]))
	m["volume.read_skew"] = ratio(most, ratio(total, float64(members)))

	for _, g := range cpuGroups {
		m["cpu."+g] = plain.cpu[g]
	}
	return m
}
