package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/kvs/kreon"
	"aquila/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "Kreon over kmmap vs Aquila, all YCSB workloads, 1 thread, dataset 2x cache",
		Paper: "NVMe: 1.02x throughput, 1.29x lower avg latency, 3.78x lower p99.9; pmem: 1.22x throughput, 1.43x avg, 13.72x p99.9",
		Run:   runFig9,
	})
}

// kreonRun loads a Kreon store over one mmio path and runs a YCSB workload.
func kreonRun(env *Env, useAquila bool, dev aquila.DeviceKind, cache uint64,
	records uint64, w ycsb.Workload, ops int, seed int64) ycsb.Result {
	logBytes := records*1100 + 8*mib
	idxBytes := records*80*4 + 8*mib
	mode := aquila.ModeLinuxMmap
	if useAquila {
		mode = aquila.ModeAquila
	}
	opts := aquila.Options{
		Mode: mode, Device: dev,
		CacheBytes:  cache,
		DeviceBytes: logBytes + idxBytes + 64*mib,
		CPUs:        8, Seed: seed,
	}
	if useAquila {
		opts.Params = aquilaParams(cache)
	}
	sys := env.boot(opts)
	defer env.done(sys)
	kopts := kreon.Options{
		LogBytes: logBytes, IndexBytes: idxBytes,
		L0Entries: int(records)/3 + 1,
	}
	var db *kreon.DB
	sys.Do(func(p *aquila.Proc) {
		size := uint64(4096) + logBytes + idxBytes
		if useAquila {
			f := sys.NS.Create(p, "kreon.data", size)
			m := sys.NS.Mmap(p, f, size)
			m.Advise(p, aquila.AdviceRandom)
			db = kreon.OpenWithMapping(p, kopts, m)
		} else {
			// kmmap: Kreon's custom in-kernel mmio path.
			f := sys.Host.FS.Create(p, "kreon.data", size)
			m := sys.Host.MmapKmmap(p, f, size)
			db = kreon.OpenWithMapping(p, kopts, m)
		}
		for i := uint64(0); i < records; i++ {
			db.Put(p, ycsb.KeyBytes(i), ycsb.Value(i, 1000))
		}
		db.Msync(p)
	})
	var res ycsb.Result
	sys.Do(func(p *aquila.Proc) {
		g := ycsb.NewGenerator(ycsb.Config{
			Workload: w, Records: records, ValueSize: 1000, Seed: seed + 5,
		})
		res = ycsb.RunThread(p, db, g, uint64(ops))
	})
	return res
}

func runFig9(env *Env) []*Result {
	r := &Result{
		ID:    "fig9",
		Title: "Kreon: kmmap vs Aquila, 1 thread, dataset 2x cache",
		Header: []string{"device", "workload", "kmmap Kops/s", "Aquila Kops/s", "thr ratio",
			"avg ratio", "p99.9 ratio"},
	}
	cache := scaled(12*mib, env.Scale, 4*mib)
	records := 2 * cache / 1100
	ops := scaledN(2000, env.Scale, 400)
	workloads := ycsb.All
	if env.Scale < 0.3 {
		workloads = []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadC}
	}
	type agg struct{ thr, avg, tail float64 }
	for _, dev := range []aquila.DeviceKind{aquila.DeviceNVMe, aquila.DevicePMem} {
		devName := "NVMe"
		if dev == aquila.DevicePMem {
			devName = "pmem"
		}
		var sumThr, sumAvg, sumTail float64
		n := 0
		for _, w := range workloads {
			km := kreonRun(env, false, dev, cache, records, w, ops, 61)
			aq := kreonRun(env, true, dev, cache, records, w, ops, 61)
			kThr := aquila.ThroughputOpsPerSec(km.Ops, km.Cycles) / 1e3
			aThr := aquila.ThroughputOpsPerSec(aq.Ops, aq.Cycles) / 1e3
			r.AddRow(devName, string(w),
				fmt.Sprintf("%.1f", kThr), fmt.Sprintf("%.1f", aThr),
				ratio(aThr, kThr),
				ratio(km.Lat.Mean(), aq.Lat.Mean()),
				ratio(float64(km.Lat.P999()), float64(aq.Lat.P999())))
			sumThr += aThr / kThr
			sumAvg += km.Lat.Mean() / aq.Lat.Mean()
			sumTail += float64(km.Lat.P999()) / float64(aq.Lat.P999())
			n++
		}
		r.AddNote("%s averages: throughput %.2fx, avg latency %.2fx, p99.9 %.2fx (paper: %s)",
			devName, sumThr/float64(n), sumAvg/float64(n), sumTail/float64(n),
			map[string]string{
				"NVMe": "1.02x thr, 1.29x avg, 3.78x tail",
				"pmem": "1.22x thr, 1.43x avg, 13.72x tail",
			}[devName])
	}
	return []*Result{r}
}
