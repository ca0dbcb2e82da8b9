package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aquila/internal/iface"
	"aquila/internal/sim/engine"
)

// Span names: one per call the benchmark times from outside the layer.
const (
	spanOp = iota // the benchmark's own loop around one operation
	spanYCSBNext
	spanYCSBKey
	spanYCSBValue
	spanKreonGet
	spanKreonPut
	spanKreonMsync
	spanLSMGet
	spanCoreLoad
	spanCoreStore
	spanCoreMsync
	spanHostLoad
	spanHostStore
	spanHostMsync
	numSpans
)

var spanNames = [numSpans]string{
	"bench.op", "ycsb.next", "ycsb.key", "ycsb.value",
	"kvs.kreon.get", "kvs.kreon.put", "kvs.kreon.msync", "kvs.lsm.get",
	"core.load", "core.store", "core.msync",
	"host.load", "host.store", "host.msync",
}

// maxRecorded bounds the spans kept for the trace file; every span, kept or
// not, feeds the self-time totals.
const maxRecorded = 1 << 17

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started; the trace id is (Phase, Proc, Op): the run's phase, the
// simulated thread and its operation index.
type spanRec struct {
	Name   string `json:"name"`
	Phase  int    `json:"phase"`
	Proc   int    `json:"proc"`
	Op     uint64 `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	h    uint64 // handle returned by begin
	name int
	rec  int32 // index into spans, -1 when not kept
	proc int
}

type procState struct {
	op    uint64
	stack []int32 // recorded spans open on this proc, innermost last
}

// tracer records spans around layer calls and splits the traced wall-clock
// into self time per span name. Only one simulated thread runs at a time, so
// the spans of all threads lie on one host timeline. Each stretch of that
// timeline between two span events goes to the most recently started span
// still open, or to "unattributed" when none is: for nested spans this is
// the span minus every span that starts and ends inside it (another
// thread's included), and the totals always sum to the traced wall-clock.
// Tracing is switched on and off per measured chunk (see clock), so one run
// measures both traced and untraced throughput.
//
// A nil *tracer is valid and records nothing.
type tracer struct {
	base   time.Time
	on     bool
	last   int64
	wall   int64
	unattr int64
	self   [numSpans]int64
	calls  [numSpans]uint64

	phase   int
	seq     uint64
	open    []openSpan
	procs   []procState
	spans   []spanRec
	dropped uint64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// attribute charges the timeline since the previous event.
func (t *tracer) attribute(now int64) {
	d := now - t.last
	t.last = now
	t.wall += d
	if n := len(t.open); n > 0 {
		t.self[t.open[n-1].name] += d
	} else {
		t.unattr += d
	}
}

// setOn starts or stops a traced window.
func (t *tracer) setOn(on bool) {
	if t == nil || t.on == on {
		return
	}
	now := t.now()
	if on {
		t.last = now
	} else {
		t.attribute(now)
	}
	t.on = on
}

// newPhase starts a new phase: simulated thread ids restart with each
// System.
func (t *tracer) newPhase(n int) {
	if t == nil {
		return
	}
	t.phase = n
	t.procs = t.procs[:0]
}

func (t *tracer) proc(p *engine.Proc) *procState {
	id := p.ID()
	for len(t.procs) <= id {
		t.procs = append(t.procs, procState{})
	}
	return &t.procs[id]
}

// beginOp opens the span of operation op on p.
func (t *tracer) beginOp(p *engine.Proc, op uint64) uint64 {
	if t == nil || !t.on {
		return 0
	}
	t.proc(p).op = op
	return t.begin(p, spanOp)
}

// begin opens a span and returns its handle; 0 means not traced.
func (t *tracer) begin(p *engine.Proc, name int) uint64 {
	if t == nil || !t.on {
		return 0
	}
	now := t.now()
	t.attribute(now)
	t.seq++
	ps := t.proc(p)
	rec := int32(-1)
	if len(t.spans) < maxRecorded {
		parent := int32(-1)
		if n := len(ps.stack); n > 0 {
			parent = ps.stack[n-1]
		}
		rec = int32(len(t.spans))
		t.spans = append(t.spans, spanRec{Name: spanNames[name], Phase: t.phase, Proc: p.ID(),
			Op: ps.op, Parent: parent, Start: now, End: -1})
	} else {
		t.dropped++
	}
	ps.stack = append(ps.stack, rec)
	t.open = append(t.open, openSpan{h: t.seq, name: name, rec: rec, proc: p.ID()})
	t.calls[name]++
	return t.seq
}

// end closes the span with handle h.
func (t *tracer) end(h uint64) {
	if h == 0 {
		return
	}
	now := t.now()
	if t.on {
		t.attribute(now)
	}
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i].h != h {
			continue
		}
		o := t.open[i]
		t.open = append(t.open[:i], t.open[i+1:]...)
		if o.rec >= 0 {
			t.spans[o.rec].End = now
		}
		ps := &t.procs[o.proc]
		ps.stack = ps.stack[:len(ps.stack)-1]
		return
	}
	panic(fmt.Sprintf("perfbench: end of unknown span handle %d", h))
}

// write saves the recorded spans as JSON lines, after one header line.
func (t *tracer) write(path string, stamp map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"stamp": stamp, "spans": len(t.spans), "spans_dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// layerSpans names the spans of one mapping layer.
type layerSpans struct{ load, store, msync int }

var (
	coreSpans = layerSpans{spanCoreLoad, spanCoreStore, spanCoreMsync}
	hostSpans = layerSpans{spanHostLoad, spanHostStore, spanHostMsync}
)

// timedNS times the mapping calls a KV store makes. Create and Open return
// the inner namespace's File unchanged, because both worlds' Mmap type-assert
// the File they are given.
type timedNS struct {
	iface.Namespace
	tr    *tracer
	spans layerSpans
}

// wrapNS returns ns itself when tracing is off, so untraced runs call the
// layers directly.
func wrapNS(ns iface.Namespace, tr *tracer, spans layerSpans) iface.Namespace {
	if tr == nil {
		return ns
	}
	return timedNS{ns, tr, spans}
}

func (n timedNS) Mmap(p *engine.Proc, f iface.File, size uint64) iface.Mapping {
	return &timedMapping{n.Namespace.Mmap(p, f, size), n.tr, n.spans}
}

type timedMapping struct {
	iface.Mapping
	tr    *tracer
	spans layerSpans
}

func (m *timedMapping) Load(p *engine.Proc, off uint64, buf []byte) {
	h := m.tr.begin(p, m.spans.load)
	m.Mapping.Load(p, off, buf)
	m.tr.end(h)
}

func (m *timedMapping) Store(p *engine.Proc, off uint64, buf []byte) {
	h := m.tr.begin(p, m.spans.store)
	m.Mapping.Store(p, off, buf)
	m.tr.end(h)
}

func (m *timedMapping) Msync(p *engine.Proc) error {
	h := m.tr.begin(p, m.spans.msync)
	err := m.Mapping.Msync(p)
	m.tr.end(h)
	return err
}

func (m *timedMapping) MsyncRange(p *engine.Proc, off, length uint64) error {
	h := m.tr.begin(p, m.spans.msync)
	err := m.Mapping.MsyncRange(p, off, length)
	m.tr.end(h)
	return err
}
