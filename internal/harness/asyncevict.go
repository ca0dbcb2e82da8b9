package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/core"
	"aquila/internal/obs"
)

// Ablation for the background-eviction pipeline: the same out-of-memory
// mixed workload under synchronous direct reclaim (every faulting thread pays
// victim selection, shootdown and writeback inline) vs the watermark-driven
// per-NUMA evictor daemons, sweeping the low watermark.

func init() {
	register(Experiment{
		ID:    "ablate-async-evict",
		Title: "Ablation: background eviction & overlapped writeback vs sync reclaim (§3.2)",
		Paper: "kswapd-style watermark reclaim moves select+shootdown+writeback off the fault path",
		Run:   runAblateAsyncEvict,
	})
}

// mixedOverSystem is microOverSystem with stores mixed in (one op in three),
// so eviction always has dirty pages and the writeback path is exercised.
func mixedOverSystem(sys *aquila.System, dataset uint64, threads, opsPerThread int, seed int64) microResult {
	var m aquila.Mapping
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "async-evict", dataset)
		m = sys.NS.Mmap(p, f, dataset)
		m.Advise(p, aquila.AdviceRandom)
	})
	lats := make([]*obs.Histogram, threads)
	var ops uint64
	elapsed := sys.Run(threads, func(t int, p *aquila.Proc) {
		lat := obs.NewHistogram()
		lats[t] = lat
		pages := m.Size() / 4096
		buf := make([]byte, 8)
		x := uint64(seed + int64(t)*2654435761)
		for i := 0; i < opsPerThread; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			pg := (x >> 17) % pages
			t0 := p.Now()
			if i%3 == 0 {
				m.Store(p, pg*4096, buf)
			} else {
				m.Load(p, pg*4096, buf)
			}
			lat.Record(p.Now() - t0)
		}
		ops += uint64(opsPerThread)
	})
	return microResult{ops: ops, elapsed: elapsed, lat: mergeHists(lats), stats: rtStats(sys)}
}

func runAblateAsyncEvict(env *Env) []*Result {
	r := &Result{
		ID:    "ablate-async-evict",
		Title: "Out-of-memory mixed 2:1 read/write microbench (16 threads): reclaim policy",
		Header: []string{"device", "reclaim", "low/high wm", "Kops/s", "avg(us)",
			"p99.9(us)", "direct pages", "bg pages", "stalls"},
	}
	cache := scaled(16*mib, env.Scale, 4*mib)
	ops := scaledN(2500, env.Scale, 500)
	batch := aquilaParams(cache).EvictBatch

	type cfg struct {
		name string
		mut  func(ps *core.Params)
	}
	cfgs := []cfg{
		{"sync (direct)", nil},
		{"async default wm", func(ps *core.Params) { ps.AsyncEvict = true }},
	}
	for _, mult := range []int{1, 2, 4} {
		low := mult * batch
		cfgs = append(cfgs, cfg{
			name: fmt.Sprintf("async low=%dx batch", mult),
			mut: func(ps *core.Params) {
				ps.AsyncEvict = true
				ps.LowWatermark = low
				ps.HighWatermark = 3 * low
			},
		})
	}

	for _, dev := range []aquila.DeviceKind{aquila.DevicePMem, aquila.DeviceNVMe} {
		devName := "pmem"
		if dev == aquila.DeviceNVMe {
			devName = "NVMe"
		}
		for _, c := range cfgs {
			params := aquilaParams(cache)
			if c.mut != nil {
				c.mut(params)
			}
			sys := env.boot(aquila.Options{
				Mode: aquila.ModeAquila, Device: dev,
				CacheBytes: cache, DeviceBytes: cache*12 + 96*mib,
				CPUs: 32, Seed: 99, Params: params,
			})
			res := mixedOverSystem(sys, cache*12, 16, ops, 99)
			st := res.stats
			wm := "—"
			if params.AsyncEvict {
				wm = fmt.Sprintf("%d/%d", sys.RT.LowWater(), sys.RT.HighWater())
			}
			env.done(sys)
			r.AddRow(devName, c.name, wm, kops(res.ops, res.elapsed),
				usF(res.lat.Mean()), us(res.lat.P999()),
				fmt.Sprint(st.DirectReclaimPages), fmt.Sprint(st.BgReclaimPages),
				fmt.Sprint(st.EvictStalls))
		}
	}
	r.AddNote("sync: every eviction runs inline in a faulting thread (counted as direct pages)")
	r.AddNote("async: per-NUMA bg-evict daemons refill the freelist between the watermarks; direct reclaim remains only as the fallback when they fall behind")
	return []*Result{r}
}
