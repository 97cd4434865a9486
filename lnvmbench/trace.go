package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Span names. A client op (fio request, Get or Put) is the top span; the
// pblk call it caused shares its op ID. I/O that no client op caused
// (flush, compaction, the WAL writer's group commits) has op ID 0 and is
// written out as "background".
const (
	spanFioRead uint8 = iota
	spanFioWrite
	spanGet
	spanPut
	spanPblkRead
	spanPblkWrite
	spanPblkFlush
	spanPblkTrim
)

var spanNames = []string{"fio.read", "fio.write", "kv.get", "kv.put", "pblk.read", "pblk.write", "pblk.flush", "pblk.trim"}

// maxSpans caps the spans kept in memory (and written out) per run; the
// latency distributions derived from spans keep every sample.
const maxSpans = 1 << 18

type span struct {
	op         uint64
	name       uint8
	start, end time.Duration
}

// inflight is what the tracer remembers about one request between its
// submission and completion.
type inflight struct {
	op     uint64
	client bool // the request is a client op (a fio request)
	issued time.Duration
	done   func(*blockdev.Request)
}

// tracer records spans and per-layer service times at the benchmark's own
// boundaries: the queue the client submits to and the pblk issue call
// under it. It reads the virtual clock only, so tracing leaves the
// simulation unchanged.
type tracer struct {
	env     *sim.Env
	spans   []span
	dropped int64
	nextOp  uint64
	reqs    map[*blockdev.Request]*inflight
	active  map[uint64]uint64 // goroutine ID -> op ID of the client op it runs
	// clientCode is the entry PC of the clients' loop function. goid is
	// costly on deep stacks, so it is only called for I/O submitted with
	// that function on the stack.
	clientCode uintptr

	clientReadBytes int64 // bytes of reads a client op caused

	queueWait    []time.Duration // Submitted -> issue call
	readService  []time.Duration // pblk issue -> done, reads
	writeService []time.Duration // pblk issue -> done, writes

	onIssueDone func(*blockdev.Request)
}

func newTracer(env *sim.Env) *tracer {
	t := &tracer{
		env:    env,
		reqs:   make(map[*blockdev.Request]*inflight),
		active: make(map[uint64]uint64),
	}
	t.onIssueDone = t.issueDone
	return t
}

func (t *tracer) add(s span) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// newOp allocates the ID of one client op.
func (t *tracer) newOp() uint64 {
	t.nextOp++
	return t.nextOp
}

// enter marks the client's goroutine g (see goid) as running op until
// exit, so I/O it submits meanwhile is attributed to op.
func (t *tracer) enter(g, op uint64) { t.active[g] = op }
func (t *tracer) exit(g uint64)      { delete(t.active, g) }

func (t *tracer) entry(r *blockdev.Request) *inflight {
	e := t.reqs[r]
	if e == nil {
		e = &inflight{}
		t.reqs[r] = e
	}
	return e
}

// clientSubmitted gives a client op (a fio request) its op ID.
func (t *tracer) clientSubmitted(r *blockdev.Request) {
	e := t.entry(r)
	e.op = t.newOp()
	e.client = true
}

// clientDone closes a client op's top span.
func (t *tracer) clientDone(r *blockdev.Request) {
	name := spanFioRead
	if r.Op == blockdev.ReqWrite {
		name = spanFioWrite
	}
	t.add(span{op: t.reqs[r].op, name: name, start: r.Submitted, end: r.Done})
	delete(t.reqs, r)
}

// engineSubmitted attributes requests an engine (lsmdb) submits to the
// client op running on the submitting goroutine, if any.
func (t *tracer) engineSubmitted(reqs []*blockdev.Request) {
	for _, r := range reqs {
		e := t.entry(r)
		e.op = 0
		if t.onClientStack() {
			e.op = t.active[goid()]
		}
	}
}

// issue starts r on inner, stamping its queue wait and issue time; the
// device span closes when inner calls back.
func (t *tracer) issue(r *blockdev.Request, done func(*blockdev.Request), inner blockdev.IssueFunc) {
	now := t.env.Now()
	e := t.entry(r)
	e.issued, e.done = now, done
	t.queueWait = append(t.queueWait, now-r.Submitted)
	inner(r, t.onIssueDone)
}

func (t *tracer) issueDone(r *blockdev.Request) {
	e := t.reqs[r]
	now := t.env.Now()
	var name uint8
	switch r.Op {
	case blockdev.ReqRead:
		name = spanPblkRead
		if e.op != 0 {
			t.clientReadBytes += r.Length
		}
		t.readService = append(t.readService, now-e.issued)
	case blockdev.ReqWrite:
		name = spanPblkWrite
		t.writeService = append(t.writeService, now-e.issued)
	case blockdev.ReqFlush:
		name = spanPblkFlush
	default:
		name = spanPblkTrim
	}
	t.add(span{op: e.op, name: name, start: e.issued, end: now})
	done := e.done
	if !e.client {
		delete(t.reqs, r)
	}
	done(r)
}

// writeSpans writes the kept spans as CSV: op ID (0 = background), name,
// start and end in virtual nanoseconds.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,name,start_ns,end_ns")
	for _, s := range t.spans {
		name := spanNames[s.name]
		if s.op == 0 {
			name = "background." + name
		}
		fmt.Fprintf(w, "%d,%s,%d,%d\n", s.op, name, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latQueue is a client queue: it records the exact virtual latency of
// every request it completes (fio keeps only bucketed histograms) and,
// when tr is set, each request's top span.
type latQueue struct {
	blockdev.Queue
	lat    *latencies
	tr     *tracer
	orig   func(*blockdev.Request)
	onDone func(*blockdev.Request)
}

// latencies are the virtual latencies of a phase's successful ops.
type latencies struct {
	reads, writes []time.Duration
}

// newLatencies sizes the sample buffers for n ops up front, so recording
// allocates nothing inside the measured phase. It writes to all of both,
// so they are resident whether the heap hands out fresh or reused memory,
// and peak_rss_MB does not depend on which.
func newLatencies(n int64) *latencies {
	l := &latencies{reads: make([]time.Duration, n), writes: make([]time.Duration, n)}
	clear(l.reads)
	clear(l.writes)
	l.reads, l.writes = l.reads[:0], l.writes[:0]
	return l
}

func newLatQueue(q blockdev.Queue, lat *latencies, tr *tracer) *latQueue {
	l := &latQueue{Queue: q, lat: lat, tr: tr}
	l.onDone = l.done
	return l
}

// Submit takes over each request's completion callback until it
// completes. The client (fio) gives all its requests the same callback.
func (q *latQueue) Submit(reqs ...*blockdev.Request) {
	for _, r := range reqs {
		q.orig = r.OnComplete
		r.OnComplete = q.onDone
		if q.tr != nil {
			q.tr.clientSubmitted(r)
		}
	}
	q.Queue.Submit(reqs...)
}

func (q *latQueue) done(r *blockdev.Request) {
	switch {
	case r.Err != nil:
	case r.Op == blockdev.ReqRead:
		q.lat.reads = append(q.lat.reads, r.Latency())
	case r.Op == blockdev.ReqWrite:
		q.lat.writes = append(q.lat.writes, r.Latency())
	}
	if q.tr != nil {
		q.tr.clientDone(r)
	}
	r.OnComplete = q.orig
	q.orig(r)
}

// sampler polls state with scheduled callbacks every interval of virtual
// time until stop. The callbacks only read, so the simulation's own
// events run exactly as without the sampler.
type sampler struct {
	stopped bool
}

func startSampler(env *sim.Env, every time.Duration, read func()) *sampler {
	s := &sampler{}
	var tick func()
	tick = func() {
		if s.stopped {
			return
		}
		read()
		env.Schedule(every, tick)
	}
	env.Schedule(0, tick)
	return s
}

func (s *sampler) stop() { s.stopped = true }

// onClientStack reports whether the clients' loop function is among the
// caller's frames.
func (t *tracer) onClientStack() bool {
	var pcs [32]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		if f := runtime.FuncForPC(pc - 1); f != nil && f.Entry() == t.clientCode {
			return true
		}
	}
	return false
}

// goid returns the current goroutine's ID. Each sim process runs on its
// own goroutine, which is how the tracer tells which client submitted an
// engine I/O. Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	b = b[:bytes.IndexByte(b, ' ')]
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
