package main

import (
	"fmt"
	"math/rand"
	"time"

	"aquila"
	"aquila/internal/iface"
	"aquila/internal/kvs/kreon"
	"aquila/internal/kvs/lsm"
	"aquila/internal/ycsb"
)

const mib = 1 << 20

// workload is one input set of the benchmark. Each is a closed loop: every
// simulated thread issues its next operation only when the previous one has
// returned.
type workload struct {
	name string
	// rate is the nominal measured throughput in ops per host second on a
	// 2-vCPU host. It turns --seconds into a fixed operation count, so the
	// simulated numbers are exact for a (seed, seconds) pair.
	rate float64
	// phases is how many times a run sets up and measures; host numbers
	// are medians over them.
	phases int
	setup  func(c setupCfg) *world
}

type setupCfg struct {
	seed int64
	ops  uint64 // measured operations of one phase
	tiny bool   // shrink the data set, for the benchmark's own tests
	tr   *tracer
}

// world is one booted, loaded and warmed System with the workload's state.
type world struct {
	sys     *aquila.System
	threads int
	// op runs operation i of thread t and reports whether its output
	// check passed.
	op   func(p *aquila.Proc, t int, i uint64) bool
	next []uint64 // per thread: index of its next operation

	kreon     *kreon.DB
	lsm       *lsm.DB
	userBytes uint64 // bytes the operations stored

	boot, load, warm time.Duration
	attempted        uint64 // checked operations during set-up
	failed           uint64
}

func newWorld(sys *aquila.System, threads int) *world {
	return &world{sys: sys, threads: threads, next: make([]uint64, threads)}
}

// runOps runs n operations on each thread, outside the measured phase.
func (w *world) runOps(n uint64) {
	w.sys.Run(w.threads, func(t int, p *aquila.Proc) {
		for k := uint64(0); k < n; k++ {
			i := w.next[t]
			w.next[t]++
			if !w.op(p, t, i) {
				w.failed++
			}
		}
	})
	w.attempted += n * uint64(w.threads)
}

var workloads = []*workload{
	// Core's fault, eviction, writeback, shootdown and msync paths, with no
	// KV store and no YCSB: the bypass for KV and YCSB changes.
	{
		name:   "mmio-rw-4x",
		rate:   60000,
		phases: 5,
		setup:  setupMMIO,
	},
	// The KV store, value generation and msync writeback through SPDK.
	{
		name:   "kreon-ycsba-spdk",
		rate:   150000,
		phases: 5,
		setup:  setupKreon,
	},
	// The host page cache and read-around under the LSM store, with core and
	// value generation unused: the bypass for core and ycsb.Value changes.
	{
		name:   "lsm-ycsbc-linux-4x",
		rate:   16000,
		phases: 3,
		setup:  setupLSM,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupMMIO boots the Aquila world on pmem (DAX engine) with one shared
// mapping of 4x the cache. 30% of the operations are stores of a tag naming
// the page and the store; every load is checked against the stores to its
// page.
func setupMMIO(c setupCfg) *world {
	const threads, msyncEvery = 4, 2000
	cache, data, warm := uint64(64*mib), uint64(256*mib), uint64(8192)
	if c.tiny {
		cache, data, warm = 4*mib, 16*mib, 1024
	}
	t0 := time.Now()
	sys := aquila.New(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DevicePMem,
		CacheBytes: cache, DeviceBytes: data + 64*mib, Seed: c.seed,
	})
	w := newWorld(sys, threads)
	w.boot = time.Since(t0)

	t0 = time.Now()
	var m iface.Mapping
	ns := wrapNS(sys.NS, c.tr, coreSpans)
	sys.Do(func(p *aquila.Proc) {
		f := ns.Create(p, "mmio", data)
		m = ns.Mmap(p, f, data)
		m.Advise(p, aquila.AdviceRandom)
	})
	w.load = time.Since(t0)

	pages := data / pageSize
	tags := newPageTags(pages)
	rngs := make([]*rand.Rand, threads)
	for t := range rngs {
		rngs[t] = rand.New(rand.NewSource(c.seed*1_000_003 + int64(t)))
	}
	bufs := make([][]byte, threads)
	for t := range bufs {
		bufs[t] = make([]byte, 8)
	}
	w.op = func(p *aquila.Proc, t int, i uint64) bool {
		rng, buf := rngs[t], bufs[t]
		pg := uint64(rng.Int63n(int64(pages)))
		ok := true
		if rng.Intn(10) < 3 {
			tag := tags.storeBegin(pg)
			putTag(buf, tag)
			m.Store(p, pg*pageSize, buf)
			tags.storeEnd(pg, tag)
			w.userBytes += 8
		} else {
			start := tags.loadBegin(pg)
			m.Load(p, pg*pageSize, buf)
			ok = tags.loadEnd(pg, start, getTag(buf))
		}
		if (i+1)%msyncEvery == 0 && m.Msync(p) != nil {
			ok = false
		}
		return ok
	}
	t0 = time.Now()
	w.runOps(warm)
	w.warm = time.Since(t0)
	return w
}

// kreonSizes derives the store's regions from how many records it will ever
// append, so the value log and the index cannot fill during a run.
func kreonSizes(puts, records uint64) (logBytes, idxBytes uint64) {
	const recBytes = 8 + 30 + 1000 // header + key + value
	const l0Entries = 16384        // kreon's default spill threshold
	const perNode = (pageSize - 8) / (30 + 8)
	logBytes = roundUp(puts*recBytes+8*mib, pageSize)
	spills := puts/l0Entries + 2
	nodes := records/perNode + records/perNode/perNode + 3
	idxBytes = spills*nodes*pageSize + 8*mib
	return logBytes, idxBytes
}

// setupKreon loads Kreon over Aquila on NVMe (SPDK engine). The records and
// the index fit the 128 MB cache; the value log of updates streams through it.
func setupKreon(c setupCfg) *world {
	const msyncEvery, valueSize = 4096, 1000
	cache, records, warm := uint64(128*mib), uint64(64<<10), uint64(32768)
	if c.tiny {
		cache, records, warm = 8*mib, 4096, 2048
	}
	logBytes, idxBytes := kreonSizes(records+warm+c.ops, records)
	size := pageSize + logBytes + idxBytes
	t0 := time.Now()
	sys := aquila.New(aquila.Options{
		Mode: aquila.ModeAquila, Device: aquila.DeviceNVMe, Engine: aquila.EngineSPDK,
		CacheBytes: cache, DeviceBytes: size + 64*mib, Seed: c.seed,
	})
	w := newWorld(sys, 1)
	w.boot = time.Since(t0)

	t0 = time.Now()
	ns := wrapNS(sys.NS, c.tr, coreSpans)
	sys.Do(func(p *aquila.Proc) {
		f := ns.Create(p, "kreon.data", size)
		m := ns.Mmap(p, f, size)
		m.Advise(p, aquila.AdviceRandom)
		w.kreon = kreon.OpenWithMapping(p, kreon.Options{LogBytes: logBytes, IndexBytes: idxBytes}, m)
		for id := uint64(0); id < records; id++ {
			w.kreon.Put(p, ycsb.KeyBytes(id), ycsb.Value(id, valueSize))
		}
		w.kreon.Msync(p)
	})
	w.load = time.Since(t0)

	db, tr := w.kreon, c.tr
	g := ycsb.NewGenerator(ycsb.Config{
		Workload: ycsb.WorkloadA, Records: records, ValueSize: valueSize,
		Distribution: ycsb.Zipfian, Seed: c.seed,
	})
	w.op = func(p *aquila.Proc, _ int, i uint64) bool {
		ok := true
		h := tr.begin(p, spanYCSBNext)
		op := g.Next()
		tr.end(h)
		h = tr.begin(p, spanYCSBKey)
		key := ycsb.KeyBytes(op.Key)
		tr.end(h)
		switch op.Kind {
		case ycsb.OpRead:
			h = tr.begin(p, spanKreonGet)
			v, found := db.Get(p, key)
			tr.end(h)
			ok = found && ycsb.CheckValue(op.Key, v)
		case ycsb.OpUpdate:
			h = tr.begin(p, spanYCSBValue)
			v := ycsb.Value(op.Key, valueSize)
			tr.end(h)
			h = tr.begin(p, spanKreonPut)
			db.Put(p, key, v)
			tr.end(h)
			w.userBytes += uint64(len(key) + len(v))
		default:
			ok = false
		}
		if (i+1)%msyncEvery == 0 {
			h = tr.begin(p, spanKreonMsync)
			db.Msync(p)
			tr.end(h)
		}
		return ok
	}
	t0 = time.Now()
	w.runOps(warm)
	w.warm = time.Since(t0)
	return w
}

// lsmWarmSeed seeds the LSM warm-up's gets, the same in every run (see
// setupLSM).
const lsmWarmSeed = 0x5eed

// setupLSM bulk-loads the LSM store over Linux mmap on NVMe with 4x the page
// cache of data (fig5b's mmap row) and warms it with random reads.
//
// Each table file keeps fault read-around until its mmap_miss count passes
// MMAP_LOTSAMISS, and a file that loses read-around never gets it back. How
// many files keep it is settled in the first ~40 K random gets, by chance,
// and it sets the throughput: with fig5b's 8 MB tables (16 files) two seeds
// settled at 1.9 and 4.0 pages read per get. So the warm-up runs past that
// point with the same gets for every seed, and the seed picks the measured
// gets only; 1 MB tables (128 files) keep any change that moves the
// settling from moving the throughput in large steps.
func setupLSM(c setupCfg) *world {
	const sstBytes = 1 * mib
	const threads, valueSize = 4, 1000
	cache, warm := uint64(32*mib), uint64(12288)
	if c.tiny {
		cache, warm = 4*mib, 2048
	}
	// Records never straddle 4 KB blocks: three 1 KB records per block.
	perRecord := uint64(pageSize / (pageSize / (4 + 30 + valueSize)))
	records := 4 * cache / perRecord
	t0 := time.Now()
	sys := aquila.New(aquila.Options{
		Mode: aquila.ModeLinuxMmap, Device: aquila.DeviceNVMe,
		CacheBytes: cache, DeviceBytes: 2*records*perRecord + 256*mib, Seed: c.seed,
	})
	w := newWorld(sys, threads)
	w.boot = time.Since(t0)

	t0 = time.Now()
	ns := wrapNS(sys.NS, c.tr, hostSpans)
	sys.Do(func(p *aquila.Proc) {
		w.lsm = lsm.Open(p, sys.Sim, lsm.Options{
			NS: ns, Mode: lsm.IOMmap, BlockCacheBytes: cache,
			SSTTargetBytes: sstBytes, DisableWAL: true, Seed: c.seed,
		})
		w.lsm.BulkLoad(p, records, valueSize)
	})
	w.load = time.Since(t0)

	db, tr := w.lsm, c.tr
	newGens := func(seed int64) []*ycsb.Generator {
		gens := make([]*ycsb.Generator, threads)
		for t := range gens {
			gens[t] = ycsb.NewGenerator(ycsb.Config{
				Workload: ycsb.WorkloadC, Records: records, ValueSize: valueSize,
				Seed: seed + int64(t)*31,
			})
		}
		return gens
	}
	gens := newGens(lsmWarmSeed)
	w.op = func(p *aquila.Proc, t int, _ uint64) bool {
		h := tr.begin(p, spanYCSBNext)
		op := gens[t].Next()
		tr.end(h)
		h = tr.begin(p, spanYCSBKey)
		key := ycsb.KeyBytes(op.Key)
		tr.end(h)
		h = tr.begin(p, spanLSMGet)
		v, found := db.Get(p, key)
		tr.end(h)
		return op.Kind == ycsb.OpRead && found && ycsb.CheckValue(op.Key, v)
	}
	t0 = time.Now()
	w.runOps(warm)
	w.warm = time.Since(t0)
	gens = newGens(c.seed)
	return w
}

func roundUp(n, to uint64) uint64 { return (n + to - 1) / to * to }
