package aquila_test

import (
	"testing"

	"aquila"
	"aquila/internal/harness"
)

// benchScale keeps one harness iteration around a second so `go test
// -bench=.` stays tractable; `cmd/aquila-bench -scale 1` runs the full
// scaled configuration documented in EXPERIMENTS.md.
const benchScale = 0.15

// benchExperiment reruns one paper artefact per benchmark iteration and
// reports the simulated cycles it regenerated.
func benchExperiment(b *testing.B, id string) {
	e, ok := harness.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs := e.Run(&harness.Env{Scale: benchScale})
		if len(rs) == 0 || len(rs[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation (§6).

func BenchmarkTable1YCSB(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig5a(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6a(b *testing.B)      { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)      { benchExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)      { benchExperiment(b, "fig6c") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)      { benchExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)      { benchExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)      { benchExperiment(b, "fig8c") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10a(b *testing.B)     { benchExperiment(b, "fig10a") }
func BenchmarkFig10b(b *testing.B)     { benchExperiment(b, "fig10b") }

// Micro-measurement benches (§3.3 memcpy model, §4.1 IPI batching).

func BenchmarkMemcpyModel(b *testing.B) { benchExperiment(b, "memcpy") }
func BenchmarkIPIBatching(b *testing.B) { benchExperiment(b, "ipi") }

// Ablations of the design choices DESIGN.md calls out, plus the io_uring
// extension (§3.3 future work / §7.1 discussion).

func BenchmarkCacheResize(b *testing.B)     { benchExperiment(b, "resize") }
func BenchmarkPageRankWorlds(b *testing.B)  { benchExperiment(b, "pagerank") }
func BenchmarkNVMHeap(b *testing.B)         { benchExperiment(b, "nvm-heap") }
func BenchmarkAblateBatchSize(b *testing.B) { benchExperiment(b, "ablate-batch") }
func BenchmarkAblateFreelist(b *testing.B)  { benchExperiment(b, "ablate-freelist") }
func BenchmarkAblateReadahead(b *testing.B) { benchExperiment(b, "ablate-readahead") }
func BenchmarkAblateAsyncEvict(b *testing.B) {
	benchExperiment(b, "ablate-async-evict")
}
func BenchmarkIOUring(b *testing.B) { benchExperiment(b, "iouring") }

// Hot-path microbenchmarks: how fast the simulator itself executes the two
// fault paths (real time, not simulated time).

func benchFaultPath(b *testing.B, mode aquila.Mode) {
	sys := aquila.New(aquila.Options{
		Mode: mode, Device: aquila.DevicePMem, CPUs: 4,
		CacheBytes: 64 << 20, DeviceBytes: 256 << 20,
	})
	var m aquila.Mapping
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "bench", 128<<20)
		m = sys.NS.Mmap(p, f, 128<<20)
		m.Advise(p, aquila.AdviceRandom)
	})
	b.ResetTimer()
	pages := uint64(128<<20) / 4096
	done := make(chan struct{})
	sys.Sim.Spawn(0, "bench", func(p *aquila.Proc) {
		defer close(done)
		buf := make([]byte, 8)
		for i := 0; i < b.N; i++ {
			m.Load(p, (uint64(i)*7919%pages)*4096, buf)
		}
	})
	sys.Sim.Run()
	<-done
}

func BenchmarkAquilaFaultPath(b *testing.B) { benchFaultPath(b, aquila.ModeAquila) }
func BenchmarkLinuxFaultPath(b *testing.B)  { benchFaultPath(b, aquila.ModeLinuxMmap) }
