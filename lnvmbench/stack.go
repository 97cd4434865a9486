package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/lsmdb"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
	"repro/internal/volume"
)

// phase is what a measured phase (or fleet-randread's set-up overwrite)
// did, as the client saw it.
type phase struct {
	ops, failed int64 // client ops attempted, and those that errored or read wrong data
	mismatches  int64 // ops that returned wrong data
	lat         latencies
	userWritten int64 // user bytes written
}

// check is the outcome of a workload's correctness check, run after the
// measured phase and outside its timing.
type check struct {
	ops, failed, mismatches int64
	err                     error // invariant violation
}

// media describes the simulated hardware under a stack and the data on it.
type media struct {
	pus, planes, sectorSize int
	timing                  ocssd.Timing
	sizes                   string
}

// stack is one workload's system under test, built by a workload's setup.
type stack interface {
	media() media
	// measure runs one round of the measured phase: n client ops, traced
	// when tr is non-nil, added to ph.
	measure(p *sim.Proc, round int, n int64, tr *tracer, ph *phase) error
	check(p *sim.Proc) check
	counters() counters
	// sample reads the state the traced run tracks over time.
	sample(s *samples)
	// writePhase is the phase the write metrics describe when the
	// measured phase has no writes (fleet-randread's set-up overwrite),
	// else nil.
	writePhase() *phaseWindow
	close(p *sim.Proc) error
}

// phaseWindow is a phase with the counters it moved.
type phaseWindow struct {
	ph    phase
	delta counters
}

// samples are the state readings of the traced run's sampler.
type samples struct {
	n             int64
	freeGroupsMin int
	tablesMax     int
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// opsPerSecond sets the measured phase's fixed op count: --seconds x
	// opsPerSecond ops take about --seconds of host time on a 2-CPU x86
	// host. A fixed count, not a deadline, keeps every simulated metric a
	// pure function of the seed and the run length.
	opsPerSecond float64
	setup        func(p *sim.Proc, env *sim.Env, seed int64, tiny bool) (stack, error)
}

var workloads = []workload{
	{"ftl-gc-mix", 220e3, setupFTL},
	{"fleet-randread", 460e3, setupFleet},
	{"kv-mixed", 40e3, setupKV},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quietMedia is NAND without wear-out: the benchmark measures the
// datapath, not media aging.
func quietMedia() nand.Config {
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	return m
}

func deviceCounters(c counters, dev *ocssd.Device) {
	c.flatten("ocssd", &dev.Stats)
	for i := 0; i < dev.Geometry().TotalPUs(); i++ {
		c.flatten("nand", &dev.Die(i).Stats)
	}
}

func simCounters(c counters, env *sim.Env) {
	c["sim.Now"] = int64(env.Now())
	c["sim.Spawns"] = env.Spawns()
}

// benchDev presents a pblk instance to fio and lsmdb with a queue the
// benchmark builds itself, blockdev.NewQueue over pblk's IssueAsync: the
// same queue pblk.OpenQueue builds, so untraced runs produce the same
// events. A queue opened while lat is set is fio's client queue. lsmdb
// opens its queue once, at set-up, so the tracer is looked up per call.
type benchDev struct {
	*pblk.Pblk
	lat *latencies
	tr  *tracer
}

func (d *benchDev) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	q := blockdev.NewQueue(env, d.Pblk, depth, d.issue)
	if d.lat != nil {
		return newLatQueue(q, d.lat, d.tr)
	}
	return &engineQueue{Queue: q, d: d}
}

func (d *benchDev) issue(r *blockdev.Request, done func(*blockdev.Request)) {
	if d.tr != nil {
		d.tr.issue(r, done, d.Pblk.IssueAsync)
		return
	}
	d.Pblk.IssueAsync(r, done)
}

// engineQueue is lsmdb's queue: while tracing, its I/O is attributed to
// the client op that caused it.
type engineQueue struct {
	blockdev.Queue
	d *benchDev
}

func (q *engineQueue) Submit(reqs ...*blockdev.Request) {
	if q.d.tr != nil {
		q.d.tr.engineSubmitted(reqs)
	}
	q.Queue.Submit(reqs...)
}

// fioPhase runs one fio job on dev and adds it to ph.
func fioPhase(p *sim.Proc, dev blockdev.Device, job fio.Job, ph *phase) error {
	res, err := fio.Run(p, dev, job)
	if err != nil {
		return err
	}
	ph.ops += res.Reads + res.Writes + res.Errors
	ph.failed += res.Errors
	ph.userWritten += res.WriteBytes
	return nil
}

// patternCheck writes a seeded sample of 4 KB blocks with an
// offset-derived pattern through dev, flushes, reads them back and counts
// blocks that come back different or fail.
func patternCheck(p *sim.Proc, dev blockdev.Device, seed int64, n int) check {
	const bs = 4096
	rng := rand.New(rand.NewSource(seed))
	slots := dev.Capacity() / bs
	offs := make([]int64, 0, n)
	seen := make(map[int64]bool, n)
	for len(offs) < n && len(offs) < int(slots) {
		off := rng.Int63n(slots) * bs
		if !seen[off] {
			seen[off] = true
			offs = append(offs, off)
		}
	}
	fill := func(buf []byte, off int64) {
		for i := range buf {
			x := off + int64(i)
			buf[i] = byte(x) ^ byte(x>>9) ^ byte(seed)
		}
	}
	var c check
	buf, want := make([]byte, bs), make([]byte, bs)
	for _, off := range offs {
		fill(buf, off)
		c.ops++
		if err := dev.Write(p, off, buf, bs); err != nil {
			c.failed++
		}
	}
	if err := dev.Flush(p); err != nil {
		c.failed++
	}
	for _, off := range offs {
		c.ops++
		fill(want, off)
		if err := dev.Read(p, off, buf, bs); err != nil {
			c.failed++
		} else if !bytes.Equal(buf, want) {
			c.failed++
			c.mismatches++
		}
	}
	return c
}

// ---- ftl-gc-mix ----

// ftlGeometry is the wa experiment's 8-PU device: small enough to reach
// GC steady state in two drive-writes.
func ftlGeometry(tiny bool) ppa.Geometry {
	g := ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 4,
		BlocksPerPlane: 8, PagesPerBlock: 256,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
	if tiny {
		g.PagesPerBlock = 32
	}
	return g
}

type ftlStack struct {
	env  *sim.Env
	dev  *ocssd.Device
	k    *pblk.Pblk
	bd   *benchDev
	seed int64
}

func setupFTL(p *sim.Proc, env *sim.Env, seed int64, tiny bool) (stack, error) {
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: ftlGeometry(tiny), Timing: ocssd.DefaultTiming(),
		Media: quietMedia(), PageCache: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k, err := pblk.New(p, lightnvm.Register("bench-ftl", dev), "pblk-ftl", pblk.Config{OverProvision: 0.4})
	if err != nil {
		return nil, err
	}
	s := &ftlStack{env: env, dev: dev, k: k, bd: &benchDev{Pblk: k}, seed: seed}
	// Prefill the LBA space, then overwrite it twice with random 4 KB
	// writes so the measured phase starts in GC steady state.
	capacity := k.Capacity()
	jobs := []fio.Job{
		{Name: "prefill", Pattern: fio.SeqWrite, BS: 64 << 10, QD: 32, MaxOps: capacity / (64 << 10), Seed: seed + 1},
		{Name: "overwrite", Pattern: fio.RandWrite, BS: 4 << 10, QD: 32, MaxOps: 2 * capacity / (4 << 10), Seed: seed + 2},
	}
	for _, j := range jobs {
		res, err := fio.Run(p, s.bd, j)
		if err != nil {
			return nil, err
		}
		if res.Errors > 0 {
			return nil, fmt.Errorf("%s: %d write errors", j.Name, res.Errors)
		}
	}
	return s, nil
}

func (s *ftlStack) media() media {
	g := s.dev.Geometry()
	return media{pus: g.TotalPUs(), planes: g.PlanesPerPU, sectorSize: g.SectorSize, timing: s.dev.Timing(),
		sizes: fmt.Sprintf("%d PUs, %d MB raw, pblk capacity %d MB, all of it live", g.TotalPUs(), rawBytes(g)>>20, s.k.Capacity()>>20)}
}

func rawBytes(g ppa.Geometry) int64 {
	return int64(g.TotalPUs()*g.PlanesPerPU*g.BlocksPerPlane*g.PagesPerBlock*g.SectorsPerPage) * int64(g.SectorSize)
}

func (s *ftlStack) measure(p *sim.Proc, round int, n int64, tr *tracer, ph *phase) error {
	s.bd.lat, s.bd.tr = &ph.lat, tr
	defer func() { s.bd.lat, s.bd.tr = nil, nil }()
	return fioPhase(p, s.bd, fio.Job{
		Name: "ftl-gc-mix", Pattern: fio.RandRW, RWMixRead: 30,
		BS: 4 << 10, QD: 32, MaxOps: n, Seed: s.seed + 100 + int64(round),
	}, ph)
}

func (s *ftlStack) check(p *sim.Proc) check {
	c := patternCheck(p, s.k, s.seed+4, 256)
	c.err = s.k.CheckInvariants()
	return c
}

func (s *ftlStack) counters() counters {
	c := counters{}
	simCounters(c, s.env)
	deviceCounters(c, s.dev)
	c.flatten("pblk", &s.k.Stats)
	return c
}

func (s *ftlStack) sample(sm *samples) {
	sm.freeGroupsMin = min(sm.freeGroupsMin, s.k.FreeGroups())
}

func (s *ftlStack) writePhase() *phaseWindow { return nil }

func (s *ftlStack) close(p *sim.Proc) error { return s.k.Stop(p) }

// ---- fleet-randread ----

// volDev hands fio the volume's own queue as a client queue.
type volDev struct {
	*volume.Volume
	lat *latencies
	tr  *tracer
}

func (d *volDev) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	return newLatQueue(d.Volume.OpenQueue(env, depth), d.lat, d.tr)
}

type fleetStack struct {
	env     *sim.Env
	mgr     *volume.Manager
	v       *volume.Volume
	seed    int64
	written phaseWindow
}

func setupFleet(p *sim.Proc, env *sim.Env, seed int64, tiny bool) (stack, error) {
	blocks := 20
	if tiny {
		blocks = 16
	}
	mgr, err := volume.NewManager(p, env, volume.Config{
		Devices: 4, OCSSD: volume.DefaultDeviceConfig(blocks),
		Pblk: pblk.Config{OverProvision: 0.25}, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	v, err := mgr.CreateVolume("bench", volume.StripeOfMirrors(64<<10, []int{0, 1}, []int{2, 3}), volume.Options{})
	if err != nil {
		return nil, err
	}
	s := &fleetStack{env: env, mgr: mgr, v: v, seed: seed}
	// Fill the volume with 4 KB writes in a seeded random order, then
	// overwrite it twice with random 4 KB writes so the members' FTLs
	// reach GC steady state and the data layout depends on the seed. The
	// second overwrite pass is the fleet's write phase, which its write
	// metrics describe.
	nblocks := v.Capacity() / (4 << 10)
	var fill, warm phase
	fillInOrder(p, env, v.OpenQueue(env, 32), rand.New(rand.NewSource(seed+1)).Perm(int(nblocks)), 4<<10, &fill)
	overwrite := func(pass int64, ph *phase) error {
		return fioPhase(p, &volDev{Volume: v, lat: &ph.lat}, fio.Job{
			Name: "overwrite", Pattern: fio.RandWrite, BS: 4 << 10, QD: 32,
			MaxOps: nblocks, Seed: seed + 2 + pass,
		}, ph)
	}
	if err := overwrite(0, &warm); err != nil {
		return nil, err
	}
	before := s.counters()
	ph := phase{lat: *newLatencies(nblocks)}
	if err := overwrite(1, &ph); err != nil {
		return nil, err
	}
	if n := fill.failed + warm.failed + ph.failed; n > 0 {
		return nil, fmt.Errorf("prefill: %d write errors", n)
	}
	s.written = phaseWindow{ph: ph, delta: s.counters().minus(before)}
	// Let the collectors finish before the read-only measured phase.
	if err := v.Flush(p); err != nil {
		return nil, err
	}
	for {
		recycled := s.counters()["pblk.GCBlocksRecycled"]
		p.Sleep(100 * time.Millisecond)
		if s.counters()["pblk.GCBlocksRecycled"] == recycled {
			break
		}
	}
	return s, nil
}

// fillInOrder writes one bs-sized block at each index of order through q,
// keeping the queue full (closed loop), and waits for the last write.
func fillInOrder(p *sim.Proc, env *sim.Env, q blockdev.Queue, order []int, bs int64, ph *phase) {
	done := env.NewEvent()
	next, inflight := 0, 0
	reqs := make([]blockdev.Request, q.Depth())
	free := make([]*blockdev.Request, 0, len(reqs))
	for i := range reqs {
		free = append(free, &reqs[i])
	}
	var submit func()
	onComplete := func(r *blockdev.Request) {
		inflight--
		ph.ops++
		if r.Err != nil {
			ph.failed++
		} else {
			ph.userWritten += bs
		}
		free = append(free, r)
		submit()
	}
	submit = func() {
		for next < len(order) && len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			*r = blockdev.Request{Op: blockdev.ReqWrite, Off: int64(order[next]) * bs, Length: bs, OnComplete: onComplete}
			next++
			inflight++
			q.Submit(r)
		}
		if next == len(order) && inflight == 0 {
			done.Signal()
		}
	}
	env.Schedule(0, submit)
	p.Wait(done)
}

func (s *fleetStack) media() media {
	g := s.mgr.Member(0).Device().Geometry()
	n := len(s.mgr.Members())
	return media{pus: n * g.TotalPUs(), planes: g.PlanesPerPU, sectorSize: g.SectorSize, timing: s.mgr.Member(0).Device().Timing(),
		sizes: fmt.Sprintf("%d members x %d PUs, %d MB raw each, volume %d MB, all of it live", n, g.TotalPUs(), rawBytes(g)>>20, s.v.Capacity()>>20)}
}

func (s *fleetStack) measure(p *sim.Proc, round int, n int64, tr *tracer, ph *phase) error {
	return fioPhase(p, &volDev{Volume: s.v, lat: &ph.lat, tr: tr}, fio.Job{
		Name: "fleet-randread", Pattern: fio.RandRead, BS: 4 << 10, QD: 32,
		MaxOps: n, Seed: s.seed + 100 + int64(round),
	}, ph)
}

func (s *fleetStack) check(p *sim.Proc) check {
	c := patternCheck(p, s.v, s.seed+4, 256)
	for _, m := range s.mgr.Members() {
		if err := m.Target().CheckInvariants(); err != nil && c.err == nil {
			c.err = fmt.Errorf("%s: %w", m.Name(), err)
		}
	}
	return c
}

func (s *fleetStack) counters() counters {
	c := counters{}
	simCounters(c, s.env)
	for i, m := range s.mgr.Members() {
		deviceCounters(c, m.Device())
		c.flatten("pblk", &m.Target().Stats)
		c[memberKey(i)] = m.Target().Stats.UserReads
	}
	st := s.v.Stats()
	c.flatten("volume", &st)
	return c
}

// memberKey is the counter of sectors member i served to volume reads.
func memberKey(i int) string { return fmt.Sprintf("member%d.UserReads", i) }

func (s *fleetStack) sample(sm *samples) {
	for _, m := range s.mgr.Members() {
		sm.freeGroupsMin = min(sm.freeGroupsMin, m.Target().FreeGroups())
	}
}

func (s *fleetStack) writePhase() *phaseWindow { return &s.written }

func (s *fleetStack) close(p *sim.Proc) error {
	for _, m := range s.mgr.Members() {
		if err := m.Target().Stop(p); err != nil {
			return err
		}
	}
	return nil
}

// ---- kv-mixed ----

const (
	kvClients   = 4
	kvKeySize   = 16
	kvValueSize = 2016
	kvFill      = 0.46 // live key bytes as a share of pblk capacity
)

// kvGeometry is the wa-e2e experiment's 8-PU device with ~1 MB block
// groups.
func kvGeometry() ppa.Geometry {
	return ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 28, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

type kvStack struct {
	env        *sim.Env
	dev        *ocssd.Device
	k          *pblk.Pblk
	bd         *benchDev
	db         *lsmdb.DB
	slot       int64
	cacheBytes int64
	seed       int64
	entries    int64
	// Per key: the last acknowledged generation, and the last one a Put
	// was issued for. A read may return any generation in between.
	acked, issued []int32
}

func setupKV(p *sim.Proc, env *sim.Env, seed int64, tiny bool) (stack, error) {
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: kvGeometry(), Timing: ocssd.DefaultTiming(),
		Media: quietMedia(), PageCache: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	k, err := pblk.New(p, lightnvm.Register("bench-kv", dev), "pblk-kv", pblk.Config{
		ActivePUs: 2, OverProvision: 0.10, HintPolicy: pblk.HintColdStream,
	})
	if err != nil {
		return nil, err
	}
	// The wa-e2e engine config: 2 KB entries, table slots of one erase
	// unit per active PU, an 8 MB block cache.
	segment := int64(k.ActivePUs()) * k.EraseUnitBytes()
	cfg := lsmdb.DefaultConfig()
	cfg.Seed = seed
	cfg.KeySize, cfg.ValueSize = kvKeySize, kvValueSize
	cfg.MemtableSize = segment - 160<<10
	cfg.WALSize = 4 << 20
	cfg.WALSyncBytes = 128 << 10
	cfg.L0CompactionTrigger, cfg.L0StallLimit = 2, 4
	cfg.LevelRatio, cfg.MaxLevels = 3, 3
	cfg.BlockSize = 4 << 10
	cfg.TableTargetSize = segment - 128<<10
	cfg.TableSlotSize = segment
	cfg.BlockCacheSize = 8 << 20
	cfg.ColdHints = true
	bd := &benchDev{Pblk: k}
	db, err := lsmdb.Open(p, env, bd, cfg)
	if err != nil {
		return nil, err
	}
	fillFrac := kvFill
	if tiny {
		fillFrac = 0.1
	}
	entries := int64(fillFrac*float64(k.Capacity())) / (kvKeySize + kvValueSize)
	s := &kvStack{
		env: env, dev: dev, k: k, bd: bd, db: db, slot: segment, cacheBytes: cfg.BlockCacheSize, seed: seed, entries: entries,
		acked: make([]int32, entries), issued: make([]int32, entries),
	}
	// fillrandom then one overwrite pass, each a seeded permutation of
	// the whole keyspace so every key is live with a known generation.
	rng := rand.New(rand.NewSource(seed + 1))
	for gen := int32(0); gen <= 1; gen++ {
		perm := rng.Perm(int(entries))
		var setupErr error
		s.clients(p, -1-int(gen), func(pw *sim.Proc, c int, w *kvWorker) {
			for i := c; i < len(perm) && setupErr == nil; i += kvClients {
				idx := int64(perm[i])
				if err := db.Put(pw, w.key(idx), w.value(idx, gen)); err != nil {
					setupErr = err
				}
				s.acked[idx], s.issued[idx] = gen, gen
			}
		})
		if setupErr != nil {
			return nil, fmt.Errorf("kv setup pass %d: %w", gen, setupErr)
		}
	}
	return s, nil
}

// kvWorker is one client's scratch buffers. Keys are 16-byte big-endian
// indices; values carry the key index and a generation in their first 16
// bytes.
type kvWorker struct {
	k, v, dst []byte
	rng       *rand.Rand
}

func (w *kvWorker) key(idx int64) []byte {
	if w.k == nil {
		w.k = make([]byte, kvKeySize)
	}
	binary.BigEndian.PutUint64(w.k[kvKeySize-8:], uint64(idx))
	return w.k
}

func (w *kvWorker) value(idx int64, gen int32) []byte {
	if w.v == nil {
		w.v = make([]byte, kvValueSize)
	}
	binary.BigEndian.PutUint64(w.v[0:8], uint64(idx))
	binary.BigEndian.PutUint64(w.v[8:16], uint64(gen))
	return w.v
}

// clients runs body on kvClients sim processes and waits for all of them.
// Each round of clients draws from its own seeded streams.
func (s *kvStack) clients(p *sim.Proc, round int, body func(pw *sim.Proc, c int, w *kvWorker)) {
	done := s.env.NewEvent()
	running := kvClients
	for c := 0; c < kvClients; c++ {
		w := &kvWorker{rng: rand.New(rand.NewSource((s.seed*64+int64(round))*kvClients + int64(c)))}
		s.env.Go(fmt.Sprintf("kv-client%d", c), func(pw *sim.Proc) {
			body(pw, c, w)
			running--
			if running == 0 {
				done.Signal()
			}
		})
	}
	p.Wait(done)
}

// readOK reports whether a Get of idx returned a value a correct engine
// could return: stamped with idx, at a generation at least the one
// acknowledged before the Get started and at most the last one issued.
func readOK(val []byte, found bool, idx int64, lo, hi int32) bool {
	if !found || len(val) < 16 || int64(binary.BigEndian.Uint64(val[0:8])) != idx {
		return false
	}
	gen := int32(binary.BigEndian.Uint64(val[8:16]))
	return gen >= lo && gen <= hi
}

func (s *kvStack) media() media {
	g := s.dev.Geometry()
	live := s.entries * (kvKeySize + kvValueSize)
	return media{pus: g.TotalPUs(), planes: g.PlanesPerPU, sectorSize: g.SectorSize, timing: s.dev.Timing(),
		sizes: fmt.Sprintf("%d PUs, %d MB raw, pblk capacity %d MB; %d keys, %d MB live = %.1fx the %d MB block cache",
			g.TotalPUs(), rawBytes(g)>>20, s.k.Capacity()>>20, s.entries, live>>20,
			float64(live)/float64(s.cacheBytes), s.cacheBytes>>20)}
}

// measure runs n closed-loop ops over kvClients clients: 50/50 uniform
// Get/Put, each client writing only the keys it owns (idx mod kvClients).
func (s *kvStack) measure(p *sim.Proc, round int, n int64, tr *tracer, ph *phase) error {
	s.bd.tr = tr
	before := s.db.UserBytesIn
	client := func(pw *sim.Proc, c int, w *kvWorker) {
		owned := (s.entries - int64(c) + kvClients - 1) / kvClients
		var g uint64
		if tr != nil {
			g = goid()
		}
		for i := int64(c); i < n; i += kvClients {
			ph.ops++
			get := w.rng.Intn(2) == 0
			var idx int64
			var gen int32
			if get {
				idx = w.rng.Int63n(s.entries)
			} else {
				idx = int64(c) + kvClients*w.rng.Int63n(owned)
				gen = s.issued[idx] + 1
				s.issued[idx] = gen
			}
			lo := s.acked[idx]
			t0 := s.env.Now()
			var op uint64
			if tr != nil {
				op = tr.newOp()
				tr.enter(g, op)
			}
			var err error
			var val []byte
			var found bool
			if get {
				val, found, err = s.db.Get(pw, w.key(idx), w.dst)
				w.dst = val
			} else {
				err = s.db.Put(pw, w.key(idx), w.value(idx, gen))
			}
			if tr != nil {
				tr.exit(g)
				name := spanPut
				if get {
					name = spanGet
				}
				tr.add(span{op: op, name: name, start: t0, end: s.env.Now()})
			}
			switch {
			case err != nil:
				ph.failed++
			case get && !readOK(val, found, idx, lo, s.issued[idx]):
				ph.failed++
				ph.mismatches++
			case get:
				ph.lat.reads = append(ph.lat.reads, s.env.Now()-t0)
			default:
				s.acked[idx] = gen
				ph.lat.writes = append(ph.lat.writes, s.env.Now()-t0)
			}
		}
	}
	if tr != nil {
		tr.clientCode = reflect.ValueOf(client).Pointer()
	}
	s.clients(p, round, client)
	s.bd.tr = nil
	ph.userWritten += s.db.UserBytesIn - before
	return nil
}

// check reads back a seeded sample of keys: each must return its last
// acknowledged generation (or, where a Put failed, one it may have
// applied).
func (s *kvStack) check(p *sim.Proc) check {
	var c check
	rng := rand.New(rand.NewSource(s.seed + 4))
	w := &kvWorker{}
	for i := 0; i < 2000; i++ {
		idx := rng.Int63n(s.entries)
		c.ops++
		val, found, err := s.db.Get(p, w.key(idx), w.dst)
		w.dst = val
		switch {
		case err != nil:
			c.failed++
		case !readOK(val, found, idx, s.acked[idx], s.issued[idx]):
			c.failed++
			c.mismatches++
		}
	}
	return c
}

func (s *kvStack) counters() counters {
	c := counters{}
	simCounters(c, s.env)
	deviceCounters(c, s.dev)
	c.flatten("pblk", &s.k.Stats)
	c.flatten("lsmdb", s.db)
	tables := 0
	for _, n := range s.db.LevelTables() {
		tables += n
	}
	c["lsmdb.Tables"] = int64(tables)
	c["lsmdb.SlotBytes"] = s.slot
	c["lsmdb.LiveKeyBytes"] = s.entries * (kvKeySize + kvValueSize)
	return c
}

func (s *kvStack) sample(sm *samples) {
	sm.freeGroupsMin = min(sm.freeGroupsMin, s.k.FreeGroups())
	tables := 0
	for _, n := range s.db.LevelTables() {
		tables += n
	}
	sm.tablesMax = max(sm.tablesMax, tables)
}

func (s *kvStack) writePhase() *phaseWindow { return nil }

func (s *kvStack) close(p *sim.Proc) error {
	// A fail-stopped engine reports its failure again on Close; it has
	// already been counted against the ops it failed.
	_ = s.db.Close(p)
	return s.k.Stop(p)
}
