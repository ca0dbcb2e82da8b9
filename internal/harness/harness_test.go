package harness

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"aquila"
)

// testScale keeps the per-experiment runtime around a second.
const testScale = 0.15

// settledGoroutines polls runtime.NumGoroutine until it drops to at most
// want: a simulated proc that has handed its baton back still needs a moment
// to return from its body.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// testEnv returns an Env at testScale and arms the lifecycle oracle for the
// end of the test: every System the test booted was handed back, and no
// simulated-proc goroutine (a parked bg-evict daemon, say) outlived it.
func testEnv(t *testing.T) *Env {
	t.Helper()
	base := runtime.NumGoroutine()
	env := &Env{Scale: testScale}
	t.Cleanup(func() {
		if env.live != 0 {
			t.Errorf("%d System(s) booted but never handed back", env.live)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("%d goroutine(s) outlived the experiment (baseline %d)", n-base, base)
		}
	})
	return env
}

// TestEnvHandsBackSystems pins the Env bookkeeping on one AsyncEvict System:
// done adds its final clock to SimCycles and reaps the bg-evict daemons Run
// leaves parked.
func TestEnvHandsBackSystems(t *testing.T) {
	env := testEnv(t)
	base := runtime.NumGoroutine()
	params := aquilaParams(2 * mib)
	params.AsyncEvict = true
	sys := env.boot(aquila.Options{
		Device: aquila.DevicePMem, CPUs: 4, CacheBytes: 2 * mib, DeviceBytes: 64 * mib,
		Params: params,
	})
	res := mixedOverSystem(sys, 8*mib, 2, 500, 7)
	if res.stats.BgReclaimPages == 0 {
		t.Fatal("the bg-evict daemons never ran; the test exercises nothing")
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("no daemon goroutine parked after Run; the test exercises nothing")
	}
	now := sys.Sim.Now()
	env.done(sys)
	if env.SimCycles() != now {
		t.Errorf("SimCycles = %d, want the handed-back clock %d", env.SimCycles(), now)
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("%d daemon goroutine(s) survived done", n-base)
	}
}

func TestRegistryComplete(t *testing.T) {
	// Lexicographic id order (fig10* sorts before fig5*).
	want := []string{
		"ablate-async-evict", "ablate-batch", "ablate-crash", "ablate-faults", "ablate-freelist",
		"ablate-hugepages", "ablate-readahead",
		"fig10a", "fig10b", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c",
		"fig7", "fig8a", "fig8b", "fig8c", "fig9",
		"iouring", "ipi", "memcpy", "nvm-heap", "pagerank", "resize", "table1",
	}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Title == "" || got[i].Paper == "" {
			t.Errorf("%s missing title/paper target", id)
		}
	}
	if _, ok := Find("fig7"); !ok {
		t.Error("Find(fig7) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// cell parses a float out of a result cell ("12.34" or "1.50x").
func cell(t *testing.T, r *Result, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(r.Rows[row][col], "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %d/%d of %s = %q: %v", row, col, r.ID, r.Rows[row][col], err)
	}
	return v
}

// findRow locates the first row whose leading columns match the given prefix.
func findRow(t *testing.T, r *Result, prefix ...string) int {
	t.Helper()
	for i, row := range r.Rows {
		ok := true
		for j, p := range prefix {
			if j >= len(row) || row[j] != p {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	t.Fatalf("%s: no row with prefix %v", r.ID, prefix)
	return -1
}

func TestTable1(t *testing.T) {
	e, _ := Find("table1")
	rs := e.Run(testEnv(t))
	if len(rs) != 1 || len(rs[0].Rows) != 6 {
		t.Fatalf("table1 rows = %d, want 6", len(rs[0].Rows))
	}
	if rs[0].Rows[2][1] != "100% reads" {
		t.Errorf("workload C mix = %q", rs[0].Rows[2][1])
	}
}

func TestFig5aShape(t *testing.T) {
	r := runFig5(testEnv(t), true)[0]
	// In-memory: mmap and Aquila must beat read/write on pmem.
	i := findRow(t, r, "pmem", "1", "mmap")
	if v := cell(t, r, i, 6); v < 1.0 {
		t.Errorf("fig5a: mmap/readwrite = %.2f, want >= 1 (paper: mmap wins in-memory)", v)
	}
	i = findRow(t, r, "pmem", "1", "aquila")
	if v := cell(t, r, i, 6); v < 1.0 {
		t.Errorf("fig5a: aquila/readwrite = %.2f, want >= 1", v)
	}
}

func TestFig5bShape(t *testing.T) {
	r := runFig5(testEnv(t), false)[0]
	// Out-of-memory: mmap collapses; Aquila beats direct I/O on pmem.
	i := findRow(t, r, "pmem", "1", "mmap")
	if v := cell(t, r, i, 6); v > 0.8 {
		t.Errorf("fig5b: mmap/readwrite = %.2f, want well below 1 (paper: mmap collapses)", v)
	}
	i = findRow(t, r, "pmem", "1", "aquila")
	if v := cell(t, r, i, 6); v < 1.1 {
		t.Errorf("fig5b: aquila/readwrite = %.2f, want > 1.1 on pmem", v)
	}
}

func TestFig6aShape(t *testing.T) {
	r := runFig6(testEnv(t), 8, "fig6a")
	// Aquila-pmem faster than mmap-pmem at every thread count.
	for _, threads := range []string{"1", "8"} {
		i := findRow(t, r, threads, "aquila-pmem")
		if v := cell(t, r, i, 3); v < 1.2 {
			t.Errorf("fig6a @%sT: aquila/mmap = %.2f, want >= 1.2", threads, v)
		}
	}
	// Everything is slower than DRAM-only.
	i := findRow(t, r, "1", "mmap-pmem")
	if v := cell(t, r, i, 4); v < 2 {
		t.Errorf("fig6a: mmap vs DRAM = %.2f, want >= 2 (paper: up to 11.8x)", v)
	}
}

func TestFig6cShape(t *testing.T) {
	r := runFig6c(testEnv(t))[0]
	mmUser := cell(t, r, 0, 1)
	aqUser := cell(t, r, 1, 1)
	if aqUser <= mmUser {
		t.Errorf("fig6c: aquila user%% (%.1f) should exceed mmap user%% (%.1f)", aqUser, mmUser)
	}
}

func TestFig7Shape(t *testing.T) {
	r := runFig7(testEnv(t))[0]
	i := findRow(t, r, "cache-mgmt")
	if v := cell(t, r, i, 3); v < 2.0 {
		t.Errorf("fig7: cache-mgmt ratio = %.2f, want >= 2 (paper 2.58x)", v)
	}
	i = findRow(t, r, "total")
	rw, aq := cell(t, r, i, 1), cell(t, r, i, 2)
	if aq >= rw {
		t.Errorf("fig7: Aquila total (%.0f) not below user-space cache (%.0f)", aq, rw)
	}
}

func TestFig8aShape(t *testing.T) {
	r := runFig8a(testEnv(t))[0]
	i := findRow(t, r, "protection switch (trap/exception)")
	trap, exc := cell(t, r, i, 1), cell(t, r, i, 2)
	if trap != 1287 || exc != 552 {
		t.Errorf("fig8a: trap/exception = %.0f/%.0f, want 1287/552", trap, exc)
	}
	i = findRow(t, r, "total")
	lin, aq := cell(t, r, i, 1), cell(t, r, i, 2)
	if lin < 4500 || lin > 7000 {
		t.Errorf("fig8a: Linux fault = %.0f, want ~5380", lin)
	}
	if aq >= lin {
		t.Errorf("fig8a: Aquila (%.0f) not cheaper than Linux (%.0f)", aq, lin)
	}
}

func TestFig8bShape(t *testing.T) {
	r := runFig8b(testEnv(t))[0]
	i := findRow(t, r, "total (measured per fault)")
	lin, aq := cell(t, r, i, 1), cell(t, r, i, 2)
	if lin/aq < 1.5 {
		t.Errorf("fig8b: Linux/Aquila = %.2f, want >= 1.5 (paper 2.06x)", lin/aq)
	}
}

func TestFig8cShape(t *testing.T) {
	r := runFig8c(testEnv(t))[0]
	i := findRow(t, r, "Cache-Hit")
	if v := cell(t, r, i, 1); v < 2000 || v > 2400 {
		t.Errorf("fig8c: cache-hit = %.0f, want ~2179", v)
	}
	dax := cell(t, r, findRow(t, r, "DAX-pmem"), 1)
	hostP := cell(t, r, findRow(t, r, "HOST-pmem"), 1)
	spdk := cell(t, r, findRow(t, r, "SPDK-NVMe"), 1)
	hostN := cell(t, r, findRow(t, r, "HOST-NVMe"), 1)
	if hostP <= dax {
		t.Error("fig8c: HOST-pmem should cost more than DAX-pmem")
	}
	if hostN <= spdk {
		t.Error("fig8c: HOST-NVMe should cost more than SPDK-NVMe")
	}
}

func TestFig9Shape(t *testing.T) {
	r := runFig9(testEnv(t))[0]
	// Aquila throughput >= kmmap on every row.
	for i := range r.Rows {
		if v := cell(t, r, i, 4); v < 0.95 {
			t.Errorf("fig9 row %d: aquila/kmmap = %.2f, want >= 0.95", i, v)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	for _, inMem := range []bool{true, false} {
		r := runFig10(testEnv(t), inMem)
		// Speedup >= 1.2 at 1 thread and grows with threads (shared file).
		s1 := cell(t, r, findRow(t, r, "1", "shared"), 4)
		s16 := cell(t, r, findRow(t, r, "16", "shared"), 4)
		if s1 < 1.2 {
			t.Errorf("fig10(inMem=%v): 1T speedup = %.2f, want >= 1.2", inMem, s1)
		}
		if s16 <= s1 {
			t.Errorf("fig10(inMem=%v): speedup did not grow with threads (%.2f -> %.2f)",
				inMem, s1, s16)
		}
	}
}

func TestMicroExperimentsRun(t *testing.T) {
	for _, id := range []string{"memcpy", "ipi"} {
		e, _ := Find(id)
		rs := e.Run(testEnv(t))
		if len(rs) == 0 || len(rs[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("note %d", 7)
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered result missing %q:\n%s", want, s)
		}
	}
}

func TestAblateFreelistShape(t *testing.T) {
	r := runAblateFreelist(testEnv(t))[0]
	two := cell(t, r, 0, 1)
	single := cell(t, r, 1, 1)
	if two <= single {
		t.Errorf("two-level freelist (%.1f) should beat single queue (%.1f)", two, single)
	}
}

func TestAblateReadaheadShape(t *testing.T) {
	r := runAblateReadahead(testEnv(t))[0]
	none := cell(t, r, 0, 1)
	seq := cell(t, r, 1, 1)
	if seq >= none {
		t.Errorf("MADV_SEQUENTIAL scan (%.2fms) should beat no-advice (%.2fms)", seq, none)
	}
	if cell(t, r, 1, 3) == 0 {
		t.Error("no readahead pages recorded with MADV_SEQUENTIAL")
	}
}

func TestAblateBatchShape(t *testing.T) {
	r := runAblateBatch(testEnv(t))[0]
	small := cell(t, r, 0, 1) // batch 8
	big := cell(t, r, 2, 1)   // batch 128
	if big <= small {
		t.Errorf("batch 128 (%.1f) should beat batch 8 (%.1f)", big, small)
	}
}

func TestAblateAsyncEvictShape(t *testing.T) {
	r := runAblateAsyncEvict(testEnv(t))[0]
	// Sync mode reclaims everything inline; the daemons must be absent.
	i := findRow(t, r, "pmem", "sync (direct)")
	if cell(t, r, i, 6) == 0 {
		t.Error("sync run recorded no direct-reclaim pages")
	}
	if cell(t, r, i, 7) != 0 {
		t.Error("sync run recorded background-reclaim pages")
	}
	// With the most aggressive watermarks the daemons carry the reclaim load.
	i = findRow(t, r, "pmem", "async low=4x batch")
	if cell(t, r, i, 7) == 0 {
		t.Error("async run recorded no background-reclaim pages")
	}
	// The same shift must hold on NVMe: most reclaim moves off the fault
	// path. (The tail-latency win is asserted at scale 1.0 in
	// EXPERIMENTS.md, not here — p99.9 is too noisy at test scale.)
	sync := findRow(t, r, "NVMe", "sync (direct)")
	async := findRow(t, r, "NVMe", "async low=4x batch")
	if sd, ad := cell(t, r, sync, 6), cell(t, r, async, 6); ad >= sd/2 {
		t.Errorf("NVMe direct-reclaim pages barely dropped with the evictor on (%.0f -> %.0f)", sd, ad)
	}
}

func TestAblateFaultsShape(t *testing.T) {
	r := runAblateFaults(testEnv(t))[0]
	// Zero-probability rows must inject nothing and retry nothing (the
	// fault-check path is inert without a plan).
	i := findRow(t, r, "pmem", "0")
	if cell(t, r, i, 4) != 0 || cell(t, r, i, 5) != 0 {
		t.Error("zero-fault run recorded injections or retries")
	}
	// At 5% write-fault probability the device injects errors, the runtime
	// retries them, and the workload still completes (throughput non-zero,
	// nothing quarantined — these faults are transient).
	i = findRow(t, r, "pmem", "0.05")
	if cell(t, r, i, 4) == 0 {
		t.Error("5% fault run injected nothing")
	}
	if cell(t, r, i, 5) == 0 {
		t.Error("5% fault run recorded no io retries")
	}
	if cell(t, r, i, 7) != 0 {
		t.Error("transient faults must never quarantine pages")
	}
	if cell(t, r, i, 2) == 0 {
		t.Error("faulty run recorded zero throughput")
	}
}

func TestAblateCrashShape(t *testing.T) {
	r := runAblateCrash(testEnv(t))[0]
	// Every correct world passes the oracle at every enumerated crash point.
	for _, w := range [][2]string{
		{"aquila", "pmem"}, {"aquila", "NVMe"},
		{"linux", "pmem"}, {"linux", "NVMe"},
		{"kreon", "pmem"}, {"kreon", "NVMe"},
	} {
		i := findRow(t, r, w[0], w[1])
		if got := r.Rows[i][6]; got != "PASS" {
			t.Errorf("%s/%s verdict = %q, want PASS (lost %s, inv fails %s)",
				w[0], w[1], got, r.Rows[i][4], r.Rows[i][5])
		}
		if cell(t, r, i, 2) == 0 {
			t.Errorf("%s/%s enumerated no crash points", w[0], w[1])
		}
	}
	// The broken-ordering row must fail — otherwise the oracle is vacuous.
	i := findRow(t, r, "aquila UNSAFE", "NVMe")
	if got := r.Rows[i][6]; got != "FAIL (expected)" {
		t.Errorf("UNSAFE verdict = %q, want FAIL (expected)", got)
	}
	if cell(t, r, i, 4) == 0 {
		t.Error("UNSAFE row lost no acked records — the oracle has no teeth")
	}
}

func TestIOUringShape(t *testing.T) {
	r := runIOUring(testEnv(t))[0]
	syncThr := cell(t, r, 0, 1)
	deepThr := cell(t, r, 3, 1)
	if deepThr <= syncThr {
		t.Errorf("io_uring depth 128 (%.1f) should out-throughput sync (%.1f)", deepThr, syncThr)
	}
	syncTail := cell(t, r, 0, 3)
	deepTail := cell(t, r, 3, 3)
	if deepTail <= syncTail {
		t.Errorf("io_uring tail (%.2fus) should exceed sync tail (%.2fus) — the §7.1 tradeoff", deepTail, syncTail)
	}
}

func TestResizeShape(t *testing.T) {
	r := runResize(testEnv(t))[0]
	small := cell(t, r, 0, 2)
	grown := cell(t, r, 1, 2)
	shrunk := cell(t, r, 2, 2)
	if grown <= small {
		t.Errorf("grow did not raise throughput: %.1f -> %.1f", small, grown)
	}
	if shrunk >= grown {
		t.Errorf("shrink did not lower throughput: %.1f -> %.1f", grown, shrunk)
	}
}

func TestPageRankWorldsShape(t *testing.T) {
	// PageRank's scans are sequential-heavy: readahead amortizes the
	// per-fault gap on both sides, so Aquila's win is small but real
	// (contrast with BFS's random access in fig6).
	r := runPageRankWorlds(testEnv(t))[0]
	speedup := cell(t, r, 1, 2)
	if speedup < 1.0 {
		t.Errorf("aquila/mmap PageRank = %.2fx, want >= 1.0", speedup)
	}
}

func TestNVMHeapShape(t *testing.T) {
	r := runNVMHeap(testEnv(t))[0]
	slowdown := cell(t, r, 1, 2)
	if slowdown <= 1.0 {
		t.Errorf("Optane-class NVM (%.2fx) should be slower than DRAM-backed pmem", slowdown)
	}
	if slowdown >= 3.0 {
		t.Errorf("DRAM cache should hide most of the 3x media gap, got %.2fx", slowdown)
	}
}

func TestResultCSV(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.AddRow("1", "has,comma")
	r.AddNote("n")
	csv := r.CSV()
	for _, want := range []string{"a,b\n", `"has,comma"`, "# n\n"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing %q:\n%s", want, csv)
		}
	}
}
