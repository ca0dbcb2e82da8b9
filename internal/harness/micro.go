package harness

import (
	"fmt"
	"math/rand"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/obs"
)

// microConfig parameterizes the paper's multithreaded microbenchmark (§5):
// threads issuing 8-byte loads at page-granular offsets within a mapped
// region, every access arranged to take a page fault.
type microConfig struct {
	mode    aquila.Mode
	device  aquila.DeviceKind
	engine  aquila.EngineKind
	cache   uint64
	dataset uint64
	threads int
	// inMemory: touch distinct pages once (cold faults over a dataset
	// that fits); otherwise uniform random over a dataset that does not.
	inMemory     bool
	opsPerThread int
	sharedFile   bool
	cpus         int
	seed         int64
	// huge enables the 2 MB mmio path (Aquila mode only): the runtime gets a
	// nonzero Params.HugeFaultDensity and every mapping is AdviseHuge'd, so
	// extents promote on first fault.
	huge bool
}

// microResult aggregates a run.
type microResult struct {
	ops     uint64
	elapsed uint64
	lat     *obs.Histogram
	// stats snapshots the Aquila runtime counters at the end of the run
	// (zero in the Linux worlds).
	stats core.Stats
	// brk is the world's cumulative fault-cycle breakdown (setup included).
	brk *obs.Breakdown
	// breakDelta is the world's fault-cycle breakdown accumulated during
	// the measured phase only (setup excluded).
	breakDelta map[string]uint64
}

func (r microResult) throughputKops() float64 {
	return aquila.ThroughputOpsPerSec(r.ops, r.elapsed) / 1e3
}

// rtStats returns the Aquila runtime's counters (zero in the Linux worlds).
func rtStats(sys *aquila.System) core.Stats {
	if sys.RT == nil {
		return core.Stats{}
	}
	return sys.RT.Stats
}

// aquilaParams scales Aquila's batch sizes to small simulated caches so the
// batching:cache ratios stay in the paper's regime.
func aquilaParams(cacheBytes uint64) *core.Params {
	p := core.DefaultParams()
	pages := int(cacheBytes / 4096)
	if p.EvictBatch > pages/16 {
		p.EvictBatch = maxI(32, pages/16)
	}
	// Refill batches must stay small relative to the per-core share of the
	// cache: a batch that hoards a large cache fraction on one core
	// starves the others into spurious evictions (at the paper's scale,
	// 4096 pages against a 2M-page cache is 0.2%; keep the same regime).
	if p.FreelistBatch > pages/128 {
		p.FreelistBatch = maxI(64, pages/128)
	}
	if p.CoreQueueLimit > pages/32 {
		p.CoreQueueLimit = maxI(2*p.FreelistBatch, pages/32)
	}
	return &p
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// newWorld boots a System for an experiment configuration.
func newWorld(env *Env, cfg microConfig) *aquila.System {
	cpus := cfg.cpus
	if cpus == 0 {
		cpus = 32
	}
	opts := aquila.Options{
		Mode:        cfg.mode,
		Device:      cfg.device,
		Engine:      cfg.engine,
		CacheBytes:  cfg.cache,
		DeviceBytes: cfg.dataset + 96<<20,
		CPUs:        cpus,
		Seed:        cfg.seed + 1,
	}
	if cfg.mode == aquila.ModeAquila {
		opts.Params = aquilaParams(cfg.cache)
		if cfg.huge {
			opts.Params.HugeFaultDensity = hugeDensityDefault
		}
	}
	return env.boot(opts)
}

// runMicro boots the configured world, executes the microbenchmark in it and
// hands the world back.
func runMicro(env *Env, cfg microConfig) microResult {
	sys := newWorld(env, cfg)
	defer env.done(sys)
	pageSize := uint64(4096)
	totalPages := cfg.dataset / pageSize

	// Create file(s) and mappings. With MADV_RANDOM on both worlds, the
	// benchmark isolates the fault path itself (no readahead noise).
	maps := make([]aquila.Mapping, cfg.threads)
	sys.Do(func(p *aquila.Proc) {
		advise := func(m aquila.Mapping) {
			m.Advise(p, aquila.AdviceRandom)
			if cfg.huge && cfg.mode == aquila.ModeAquila {
				m.Advise(p, aquila.AdviceHuge)
			}
		}
		if cfg.sharedFile {
			f := sys.NS.Create(p, "micro-shared", cfg.dataset)
			m := sys.NS.Mmap(p, f, cfg.dataset)
			advise(m)
			for t := range maps {
				maps[t] = m
			}
		} else {
			per := cfg.dataset / uint64(cfg.threads) / pageSize * pageSize
			for t := range maps {
				f := sys.NS.Create(p, fmt.Sprintf("micro-%d", t), per)
				maps[t] = sys.NS.Mmap(p, f, per)
				advise(maps[t])
			}
		}
	})

	worldBreak := sys.Host.Break
	if sys.RT != nil {
		worldBreak = sys.RT.Break
	}
	break0 := worldBreak.Map()

	lats := make([]*obs.Histogram, cfg.threads)
	var totalOps uint64
	elapsed := sys.Run(cfg.threads, func(t int, p *aquila.Proc) {
		lat := obs.NewHistogram()
		lats[t] = lat
		rng := rand.New(rand.NewSource(cfg.seed + int64(t)*7919))
		buf := make([]byte, 8)
		m := maps[t]
		mPages := m.Size() / pageSize

		var pagesToTouch []uint64
		if cfg.inMemory {
			// Distinct pages, random order: every access is a cold
			// fault, the dataset fits in the cache.
			if cfg.sharedFile {
				// Partition the shared file across threads.
				for pg := uint64(t); pg < totalPages; pg += uint64(cfg.threads) {
					pagesToTouch = append(pagesToTouch, pg)
				}
			} else {
				for pg := uint64(0); pg < mPages; pg++ {
					pagesToTouch = append(pagesToTouch, pg)
				}
			}
			rng.Shuffle(len(pagesToTouch), func(i, j int) {
				pagesToTouch[i], pagesToTouch[j] = pagesToTouch[j], pagesToTouch[i]
			})
			if cfg.opsPerThread > 0 && len(pagesToTouch) > cfg.opsPerThread {
				pagesToTouch = pagesToTouch[:cfg.opsPerThread]
			}
		}

		ops := cfg.opsPerThread
		if cfg.inMemory {
			ops = len(pagesToTouch)
		}
		for i := 0; i < ops; i++ {
			var pg uint64
			if cfg.inMemory {
				pg = pagesToTouch[i]
			} else {
				pg = uint64(rng.Int63n(int64(mPages)))
			}
			t0 := p.Now()
			m.Load(p, pg*pageSize, buf)
			lat.Record(p.Now() - t0)
		}
		totalOps += uint64(ops)
	})
	return microResult{
		ops: totalOps, elapsed: elapsed, lat: mergeHists(lats),
		stats: rtStats(sys), brk: worldBreak,
		breakDelta: subMap(worldBreak.Map(), break0),
	}
}
