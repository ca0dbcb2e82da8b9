package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/sim/device"
)

// chunksPerPhase splits each measured phase of a traced run into windows
// that are traced and untraced in turn. Every phase replays the same
// operations, and the parity flips from phase to phase, so each chunk of work
// is timed both ways.
const chunksPerPhase = 16

type runCfg struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	tiny    bool
	outDir  string
}

// minPhaseOps keeps at least ten latency samples beyond p99.9.
const minPhaseOps = 12000

// phaseOps is the measured operation count of one phase: the run's seconds
// at the workload's nominal rate, split over its phases.
func (c runCfg) phaseOps() uint64 {
	if c.tiny {
		return minPhaseOps
	}
	return max(minPhaseOps, uint64(float64(c.seconds)*c.wl.rate/float64(c.wl.phases)))
}

type metric struct {
	name, unit string
	value      float64
}

type report struct {
	correct           bool
	attempted, failed uint64
	metrics           []metric
	// sim holds every simulated number, for the determinism checks.
	sim   map[string]float64
	stamp map[string]any
}

// snapshot is the simulated counters of a world at one instant.
type snapshot struct {
	core       core.Stats
	coreBreak  map[string]uint64
	pcInserted uint64
	pcEvicted  uint64
	pcWritten  uint64
	dev        device.Stats
	acct       [4]uint64
	irqs       uint64
	spills     uint64
	lsmBreak   map[string]uint64
	lsmBlocks  uint64
	lsmGets    uint64
	userBytes  uint64
}

func take(w *world) snapshot {
	s := w.sys
	snap := snapshot{
		pcInserted: s.Host.Cache.Inserted,
		pcEvicted:  s.Host.Cache.Evicted,
		pcWritten:  s.Host.Cache.WrittenBk,
		acct:       s.Sim.TotalAccounted(),
		userBytes:  w.userBytes,
	}
	if s.RT != nil {
		snap.core = s.RT.Stats
		snap.coreBreak = s.RT.Break.Map()
	}
	if s.PMem != nil {
		snap.dev = s.PMem.Stats()
	} else {
		snap.dev = s.NVMe.Stats()
	}
	for c := 0; c < s.Sim.NumCPUs(); c++ {
		snap.irqs += s.Sim.IRQCount(c)
	}
	if w.kreon != nil {
		snap.spills = w.kreon.Spills
	}
	if w.lsm != nil {
		snap.lsmBreak = w.lsm.Break.Map()
		snap.lsmBlocks = w.lsm.BlocksRead
		snap.lsmGets = w.lsm.Gets
	}
	return snap
}

// phase is one measured phase.
type phase struct {
	ops, failed   uint64
	cycles        uint64
	wall          time.Duration
	lat           []uint64
	before, after snapshot
	chunks        []time.Duration
	allocBytes    uint64
	gcCycles      uint32
}

// chunkTraced reports whether chunk k of phase ph is traced.
func chunkTraced(ph, k int) bool { return (k+ph)%2 == 1 }

// clock timestamps the measured phase every chunk operations, counted over
// all threads, and switches tracing per chunk.
type clock struct {
	chunk, done uint64
	phase       int
	last        time.Time
	durs        []time.Duration
	tr          *tracer
}

func (c *clock) tick() {
	c.done++
	if c.done%c.chunk != 0 {
		return
	}
	now := time.Now()
	c.durs = append(c.durs, now.Sub(c.last))
	c.last = now
	c.tr.setOn(chunkTraced(c.phase, len(c.durs)))
}

// measure runs measured phase number n: ops operations split evenly over
// the world's threads, each a closed loop.
func measure(w *world, n int, ops uint64, tr *tracer) phase {
	per := ops / uint64(w.threads)
	ph := phase{ops: per * uint64(w.threads)}
	lats := make([][]uint64, w.threads)
	for t := range lats {
		lats[t] = make([]uint64, 0, per)
	}
	clk := &clock{chunk: max(1, ph.ops/chunksPerPhase), phase: n, tr: tr,
		durs: make([]time.Duration, 0, chunksPerPhase+1)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph.before = take(w)
	tr.setOn(chunkTraced(n, 0))
	start := time.Now()
	clk.last = start
	ph.cycles = w.sys.Run(w.threads, func(t int, p *aquila.Proc) {
		for k := uint64(0); k < per; k++ {
			i := w.next[t]
			w.next[t]++
			c0 := p.Now()
			h := tr.beginOp(p, i)
			if !w.op(p, t, i) {
				ph.failed++
			}
			tr.end(h)
			lats[t] = append(lats[t], p.Now()-c0)
			clk.tick()
		}
	})
	ph.wall = time.Since(start)
	tr.setOn(false)
	ph.chunks = clk.durs[:min(len(clk.durs), chunksPerPhase)]
	ph.after = take(w)
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	for _, l := range lats {
		ph.lat = append(ph.lat, l...)
	}
	slices.Sort(ph.lat)
	return ph
}

// rank returns the nearest-rank q-quantile of sorted samples.
func rank(sorted []uint64, q float64) (v uint64, beyond int) {
	r := int(math.Ceil(q * float64(len(sorted))))
	r = min(max(r, 1), len(sorted))
	return sorted[r-1], len(sorted) - r
}

func meanOf(xs []uint64) float64 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func per(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// coreBreakCats are the fault-path cycle categories of internal/core;
// cycles of any other category go to "other".
var coreBreakCats = []string{
	"accounting", "alloc", "bg_reclaim", "cache-insert", "cache-lookup",
	"device-io", "direct_reclaim", "dirty-track", "evict-select", "exception",
	"io-retry", "lru", "map-pte", "msync", "tlb-shootdown", "unmap", "vspace",
	"writeback",
}

var lsmBreakCats = []string{"get", "cache", "io", "mmio"}

// simMetrics derives every simulated number of one phase. They are exact for
// a (seed, seconds) pair.
func simMetrics(ph phase) (map[string]float64, error) {
	b, a, ops := ph.before, ph.after, ph.ops
	p50, _ := rank(ph.lat, 0.5)
	p999, beyond := rank(ph.lat, 0.999)
	if beyond < 10 {
		return nil, fmt.Errorf("%d latency samples leave %d beyond p99.9; need 10", len(ph.lat), beyond)
	}
	m := map[string]float64{
		"sim_kops":    aquila.ThroughputOpsPerSec(ops, ph.cycles) / 1e3,
		"sim_mean_us": aquila.CyclesToMicros(1) * meanOf(ph.lat),
		"sim_tail_us": aquila.CyclesToMicros(1) * meanOf(ph.lat[len(ph.lat)-beyond:]),

		"sim.latency_samples":         float64(len(ph.lat)),
		"sim.p50_cycles":              float64(p50),
		"sim.p999_cycles":             float64(p999),
		"core.major_faults_per_op":    per(a.core.MajorFaults-b.core.MajorFaults, ops),
		"core.minor_faults_per_op":    per(a.core.MinorFaults-b.core.MinorFaults, ops),
		"core.wp_faults_per_op":       per(a.core.WPFaults-b.core.WPFaults, ops),
		"core.evictions_per_op":       per(a.core.Evictions-b.core.Evictions, ops),
		"core.writeback_pages_per_op": per(a.core.WrittenBack-b.core.WrittenBack, ops),
		"core.shootdown_batches_per_op": per(a.core.ShootdownBatches-b.core.ShootdownBatches,
			ops),
		"core.evict_stalls": float64(a.core.EvictStalls - b.core.EvictStalls),
		"core.io_retries":   float64(a.core.IORetries - b.core.IORetries),

		"host.pagecache_inserted_per_op":     per(a.pcInserted-b.pcInserted, ops),
		"host.pagecache_evicted_per_op":      per(a.pcEvicted-b.pcEvicted, ops),
		"host.pagecache_written_back_per_op": per(a.pcWritten-b.pcWritten, ops),

		"kvs.lsm.blocks_read_per_get": per(a.lsmBlocks-b.lsmBlocks, a.lsmGets-b.lsmGets),
		"kvs.kreon.spills":            float64(a.spills - b.spills),

		"device.reads_per_op":      per(a.dev.Reads-b.dev.Reads, ops),
		"device.read_bytes_per_op": per(a.dev.BytesRead-b.dev.BytesRead, ops),
		"device.writes_per_op":     per(a.dev.Writes-b.dev.Writes, ops),
		"device.write_bytes_per_user_byte": per(a.dev.BytesWritten-b.dev.BytesWritten,
			a.userBytes-b.userBytes),

		"engine.irqs_per_op": per(a.irqs-b.irqs, ops),
	}
	var other uint64
	for cat, c := range a.coreBreak {
		if !slices.Contains(coreBreakCats, cat) {

			other += c - b.coreBreak[cat]
		}
	}
	for _, cat := range coreBreakCats {
		m["core.cycles."+cat+"_per_op"] = per(a.coreBreak[cat]-b.coreBreak[cat], ops)
	}
	m["core.cycles.other_per_op"] = per(other, ops)
	for _, cat := range lsmBreakCats {
		m["kvs.lsm.cycles."+cat+"_per_op"] = per(a.lsmBreak[cat]-b.lsmBreak[cat], ops)
	}
	var acct uint64
	for k := range a.acct {
		acct += a.acct[k] - b.acct[k]
	}
	for k, name := range []string{"user", "system", "iowait", "lockwait"} {
		m["engine."+name+"_share"] = per(a.acct[k]-b.acct[k], acct)
	}
	return m, nil
}

// endToEnd lists the end-to-end metrics, printed by untraced runs.
var endToEnd = []struct{ name, unit string }{
	{"sim_kops", "kop/s"},
	{"sim_mean_us", "us"},
	{"sim_tail_us", "us"},
	{"host_kops", "kop/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"alloc_bytes_per_op", "B/op"},
}

// unitOf gives the unit of a per-layer metric from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_cycles"):
		return "cycles"
	case strings.HasPrefix(name, "core.cycles."), strings.HasPrefix(name, "kvs.lsm.cycles."):
		return "cycles/op"
	case strings.HasSuffix(name, "host_ns"):
		return "ns"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"),
		strings.HasSuffix(name, "_per_user_byte"):
		return "ratio"
	case strings.HasSuffix(name, "_per_get"), strings.HasSuffix(name, "_per_op"):
		return "1/op"
	case strings.HasSuffix(name, "_per_kop"):
		return "1/kop"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "count"
}

// spanMetric names the per-call self time of a span.
func spanMetric(name string) string {
	if strings.HasPrefix(name, "kvs.") {
		return name + ".self_host_ns"
	}
	return name + ".host_ns"
}

// perLayerNames lists every per-layer metric a traced run prints.
func perLayerNames() []string {
	names := []string{
		"failed_op_ratio", "sim.latency_samples", "sim.p50_cycles", "sim.p999_cycles",
		"core.major_faults_per_op", "core.minor_faults_per_op", "core.wp_faults_per_op",
		"core.evictions_per_op", "core.writeback_pages_per_op", "core.shootdown_batches_per_op",
		"core.evict_stalls", "core.io_retries",
	}
	for _, cat := range coreBreakCats {
		names = append(names, "core.cycles."+cat+"_per_op")
	}
	names = append(names, "core.cycles.other_per_op",
		"host.pagecache_inserted_per_op", "host.pagecache_evicted_per_op",
		"host.pagecache_written_back_per_op", "kvs.lsm.blocks_read_per_get")
	for _, cat := range lsmBreakCats {
		names = append(names, "kvs.lsm.cycles."+cat+"_per_op")
	}
	names = append(names, "kvs.kreon.spills",
		"device.reads_per_op", "device.read_bytes_per_op", "device.writes_per_op",
		"device.write_bytes_per_user_byte",
		"engine.user_share", "engine.system_share", "engine.iowait_share",
		"engine.lockwait_share", "engine.irqs_per_op", "engine.unattributed_host_share",
		"go.gc_cycles_per_kop", "setup.boot_s", "setup.load_s", "setup.warmup_s",
		"trace.overhead_ratio")
	for _, s := range spanNames {
		names = append(names, spanMetric(s), s+".self_share")
	}
	return names
}

// run sets up and measures the workload once per phase.
func run(cfg runCfg) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &report{correct: true}
	var (
		setups, boots, loads, warms []time.Duration
		rates                       []float64
		chunkTimes                  [chunksPerPhase][2][]float64 // [chunk][traced]
		ops, allocBytes             uint64
		gcCycles                    uint32
		heapLive                    float64
	)
	for r := 0; r < cfg.wl.phases; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		tr.newPhase(r)
		t0 := time.Now()
		w := cfg.wl.setup(setupCfg{seed: cfg.seed, ops: cfg.phaseOps(), tiny: cfg.tiny, tr: tr})
		setups = append(setups, time.Since(t0))
		boots, loads, warms = append(boots, w.boot), append(loads, w.load), append(warms, w.warm)

		ph := measure(w, r, cfg.phaseOps(), tr)
		sim, err := simMetrics(ph)
		if err != nil {
			return nil, err
		}
		if res.sim == nil {
			res.sim = sim
		} else if !equalMetrics(res.sim, sim) {
			fmt.Fprintf(os.Stderr, "perfbench: phase %d's simulated numbers differ from phase 0's\n", r)
			res.correct = false
		}
		res.attempted += w.attempted + ph.ops
		res.failed += w.failed + ph.failed
		ops += ph.ops
		allocBytes += ph.allocBytes
		gcCycles += ph.gcCycles
		rates = append(rates, float64(ph.ops)/ph.wall.Seconds())
		for k, d := range ph.chunks {
			on := 0
			if chunkTraced(r, k) {
				on = 1
			}
			chunkTimes[k][on] = append(chunkTimes[k][on], d.Seconds())
		}
		if r == cfg.wl.phases-1 {
			// Live heap with the System still reachable.
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapLive = float64(ms.HeapAlloc) / mib
			runtime.KeepAlive(w)
		}
	}
	if res.failed > 0 {
		res.correct = false
	}
	res.stamp = map[string]any{
		"workload": cfg.wl.name, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "phases": cfg.wl.phases, "ops_per_phase": cfg.phaseOps(),
		"latency_samples": res.sim["sim.latency_samples"],
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		host := map[string]float64{
			"host_kops":          median(rates) / 1e3,
			"setup_s":            median(durSeconds(setups)),
			"peak_rss_mb":        rss,
			"heap_live_mb":       heapLive,
			"alloc_bytes_per_op": per(allocBytes, ops),
		}
		for _, m := range endToEnd {
			v, ok := res.sim[m.name]
			if !ok {
				v = host[m.name]
			}
			res.metrics = append(res.metrics, metric{m.name, m.unit, v})
		}
		return res, nil
	}

	layer := map[string]float64{
		"failed_op_ratio":                per(res.failed, res.attempted),
		"engine.unattributed_host_share": float64(tr.unattr) / float64(tr.wall),
		"go.gc_cycles_per_kop":           float64(gcCycles) / (float64(ops) / 1e3),
		"setup.boot_s":                   median(durSeconds(boots)),
		"setup.load_s":                   median(durSeconds(loads)),
		"setup.warmup_s":                 median(durSeconds(warms)),
		"trace.overhead_ratio":           overheadRatio(chunkTimes[:]),
	}
	for i, s := range spanNames {
		layer[spanMetric(s)] = per(uint64(tr.self[i]), tr.calls[i])
		layer[s+".self_share"] = float64(tr.self[i]) / float64(tr.wall)
	}
	for _, name := range perLayerNames() {
		v, ok := layer[name]
		if !ok {
			v, ok = res.sim[name]
		}
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s has no value", name)
		}
		res.metrics = append(res.metrics, metric{name, unitOf(name), v})
	}
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.wl.name, cfg.seed))
		if err := tr.write(path, res.stamp); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// overheadRatio is traced throughput over untraced throughput, from the
// chunks timed both ways: the sum of each chunk's mean untraced time over the
// sum of its mean traced time.
func overheadRatio(chunks [][2][]float64) float64 {
	var untraced, traced float64
	for _, c := range chunks {
		if len(c[0]) > 0 && len(c[1]) > 0 {
			untraced += meanF(c[0])
			traced += meanF(c[1])
		}
	}
	return untraced / traced
}

func meanF(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func equalMetrics(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
