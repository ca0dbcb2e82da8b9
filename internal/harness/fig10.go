package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/obs"
)

func init() {
	register(Experiment{
		ID:    "fig10a",
		Title: "Scalability vs Linux mmap, dataset fits in memory",
		Paper: "shared file: Aquila 1.81x @1T -> 8.37x @32T; private file per thread: 1.82x -> 1.99x",
		Run: func(env *Env) []*Result {
			return []*Result{runFig10(env, true)}
		},
	})
	register(Experiment{
		ID:    "fig10b",
		Title: "Scalability vs Linux mmap, dataset does not fit in memory",
		Paper: "shared file: Aquila 2.17x @1T -> 12.92x @32T; private file per thread: 2.21x -> 2.84x",
		Run: func(env *Env) []*Result {
			return []*Result{runFig10(env, false)}
		},
	})
}

// runFig10 regenerates one panel of Figure 10: random-read fault throughput
// over thread counts, shared vs per-thread files, Linux mmap vs Aquila.
func runFig10(env *Env, inMemory bool) *Result {
	id, title := "fig10a", "in-memory dataset"
	if !inMemory {
		id, title = "fig10b", "out-of-memory dataset (12x cache)"
	}
	r := &Result{
		ID:    id,
		Title: "Random-read fault throughput (Kops/s), " + title,
		Header: []string{"threads", "file", "Linux", "Aquila", "speedup",
			"Lin avg(us)", "Aq avg(us)", "Lin p99.9(us)", "Aq p99.9(us)"},
	}
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	if env.Scale < 0.5 {
		threadCounts = []int{1, 4, 16}
	}
	var cache, dataset uint64
	var ops int
	if inMemory {
		cache = scaled(96*mib, env.Scale, 16*mib)
		dataset = cache
		ops = 0 // touch every page once
	} else {
		cache = scaled(16*mib, env.Scale, 4*mib)
		dataset = cache * 12
		ops = scaledN(4000, env.Scale, 800)
	}
	maxT := threadCounts[len(threadCounts)-1]
	linShared := make(map[int]microResult, len(threadCounts))
	var aqTop microResult
	for _, shared := range []bool{true, false} {
		fileLabel := "shared"
		if !shared {
			fileLabel = "private"
		}
		for _, threads := range threadCounts {
			base := microConfig{
				device: aquila.DevicePMem, cache: cache, dataset: dataset,
				threads: threads, inMemory: inMemory, opsPerThread: ops,
				sharedFile: shared, cpus: 32, seed: 46,
			}
			linCfg := base
			linCfg.mode = aquila.ModeLinuxMmap
			lin := runMicro(env, linCfg)
			aqCfg := base
			aqCfg.mode = aquila.ModeAquila
			aq := runMicro(env, aqCfg)
			if shared {
				linShared[threads] = lin
				if threads == maxT {
					aqTop = aq
				}
			}
			r.AddRow(
				fmt.Sprintf("%d", threads), fileLabel,
				kops(lin.ops, lin.elapsed), kops(aq.ops, aq.elapsed),
				ratio(aq.throughputKops(), lin.throughputKops()),
				usF(lin.lat.Mean()), usF(aq.lat.Mean()),
				us(lin.lat.P999()), us(aq.lat.P999()),
			)
		}
	}
	var hugeTop microResult
	if inMemory {
		// The same shared-file workload on the 2 MB mmio path
		// (MADV_HUGEPAGE): the first toucher of each extent promotes it with
		// one merged fill, and every later access hits the Size2M PTE without
		// faulting at all. The Linux column repeats the 4 KB mmap baseline
		// (the Linux worlds ignore the hint), so the speedup column stays
		// huge-Aquila over Linux.
		for _, threads := range threadCounts {
			aq := runMicro(env, microConfig{
				mode: aquila.ModeAquila, device: aquila.DevicePMem,
				cache: cache, dataset: dataset, threads: threads,
				inMemory: true, opsPerThread: ops,
				sharedFile: true, cpus: 32, seed: 46, huge: true,
			})
			if threads == maxT {
				hugeTop = aq
			}
			lin := linShared[threads]
			r.AddRow(
				fmt.Sprintf("%d", threads), "shared+2M",
				kops(lin.ops, lin.elapsed), kops(aq.ops, aq.elapsed),
				ratio(aq.throughputKops(), lin.throughputKops()),
				usF(lin.lat.Mean()), usF(aq.lat.Mean()),
				us(lin.lat.P999()), us(aq.lat.P999()),
			)
		}
	}
	if inMemory {
		r.AddNote("paper: shared 1.81x@1T, 8.37x@32T; private 1.82x@1T, 1.99x@32T")
		r.AddNote("shared+2M @%dT: %s over 4K Aquila (%d huge promotions, %d fault events vs %d)",
			maxT, ratio(hugeTop.throughputKops(), aqTop.throughputKops()),
			hugeTop.stats.HugePromotions,
			faultEvents(hugeTop.stats), faultEvents(aqTop.stats))

		lat := aqTop.lat.Summarize()
		r.Report = &obs.Report{
			Schema:     obs.ReportSchemaVersion,
			Experiment: "fig10a",
			Title:      r.Title,
			Scale:      env.Scale,
			Config: map[string]string{
				"mode":    "aquila",
				"device":  "pmem",
				"cache":   fmt.Sprintf("%d", cache),
				"dataset": fmt.Sprintf("%d", dataset),
				"threads": fmt.Sprintf("%d", maxT),
				"cpus":    "32",
				"seed":    "46",
				"config":  "shared file, in-memory, max threads",
			},
			Ops:                 aqTop.ops,
			ElapsedCycles:       aqTop.elapsed,
			ThroughputOpsPerSec: aquila.ThroughputOpsPerSec(aqTop.ops, aqTop.elapsed),
			Latency:             &lat,
			Extra: map[string]float64{
				"speedup_vs_linux": safeDiv(aqTop.throughputKops(),
					linShared[maxT].throughputKops()),
				"huge_speedup_vs_4k": safeDiv(hugeTop.throughputKops(),
					aqTop.throughputKops()),
				"fault_events_4k":   float64(faultEvents(aqTop.stats)),
				"fault_events_huge": float64(faultEvents(hugeTop.stats)),
				"huge_fault_ratio":  hugeFaultRatio(hugeTop.stats),
				"huge_promotions":   float64(hugeTop.stats.HugePromotions),
			},
		}
	} else {
		r.AddNote("paper: shared 2.17x@1T, 12.92x@32T; private 2.21x@1T, 2.84x@32T")
		r.AddNote("paper latency @32T shared: 8.52x avg, 213x p99.9 lower for Aquila")
	}
	return r
}
