package core

import (
	"fmt"
	"testing"

	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
)

// Golden fingerprints of the default (synchronous reclaim) configuration.
// See TestAquilaSyncModeDeterminism. They were recaptured when the 4 KB fault
// path stopped publishing two Pages for one file page under concurrent
// faults: the earlier goldens had free+resident = 1020 of the 1024-frame
// cache, four frames leaked to orphaned Pages.
var syncModeGoldens = map[string]string{
	"dax":  "now=14758165 major=9622 minor=743 wp=932 evict=8706 wb=3825 shoot=45 free=527 resident=497",
	"spdk": "now=139773909 major=7933 minor=2714 wp=1849 evict=7552 wb=3854 shoot=37 free=682 resident=342",
}

// determinismWorkload drives an eviction-heavy mixed read/write pattern over
// a mapping four times the cache and returns a fingerprint of everything the
// simulation decided: final clocks, fault/eviction counters, and freelist
// population (plus the runtime, for callers that fold in more state).
func determinismWorkload(boot func(p *engine.Proc) *Runtime, e *engine.Engine, cpus int) (string, *Runtime) {
	var rt *Runtime
	e.Spawn(0, "init", func(p *engine.Proc) {
		rt = boot(p)
		f := rt.CreateFile(p, "det", 16*mib)
		m := rt.Mmap(p, f, 16*mib)
		m.Store(p, 0, []byte{1}) // touch so workers share a warm mapping
		for w := 0; w < cpus; w++ {
			w := w
			e.SpawnAt(w%cpus, fmt.Sprintf("w%d", w), p.Now(), func(p *engine.Proc) {
				buf := make([]byte, 64)
				n := uint64(16 * mib)
				for i := 0; i < 3000; i++ {
					off := (uint64(i)*40009 + uint64(w)*7919) * 64 % (n - 64)
					if i%3 == 0 {
						m.Store(p, off, buf)
					} else {
						m.Load(p, off, buf)
					}
				}
			})
		}
	})
	e.Run()
	st := rt.Stats
	return fmt.Sprintf("now=%d major=%d minor=%d wp=%d evict=%d wb=%d shoot=%d free=%d resident=%d",
		e.Now(), st.MajorFaults, st.MinorFaults, st.WPFaults, st.Evictions,
		st.WrittenBack, st.ShootdownBatches, rt.FreePages(), rt.ResidentPages()), rt
}

// TestAquilaSyncModeDeterminism pins the default (synchronous reclaim)
// configuration against the behavior of the seed commit: AsyncEvict=false
// must stay bit-identical as the background-evictor code evolves. The golden
// strings were captured before the background evictor existed; any change
// here means the synchronous path's timing or ordering changed.
func TestAquilaSyncModeDeterminism(t *testing.T) {
	{
		e, _, boot := daxWorld(4*mib, 4)
		got, rt := determinismWorkload(boot, e, 4)
		t.Logf("dax: %s", got)
		if got != syncModeGoldens["dax"] {
			t.Errorf("dax fingerprint drifted:\n got  %s\n want %s", got, syncModeGoldens["dax"])
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Errorf("dax: %v", err)
		}
	}
	{
		e, boot := spdkWorld(4*mib, 4)
		got, rt := determinismWorkload(boot, e, 4)
		t.Logf("spdk: %s", got)
		if got != syncModeGoldens["spdk"] {
			t.Errorf("spdk fingerprint drifted:\n got  %s\n want %s", got, syncModeGoldens["spdk"])
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Errorf("spdk: %v", err)
		}
	}
}

// TestFaultPlanDeterminism: a fixed-seed fault plan (probabilistic transient
// write errors plus periodic latency spikes) under background eviction is
// bit-identical across runs — injection points, retries, requeues and final
// clocks all replay exactly.
func TestFaultPlanDeterminism(t *testing.T) {
	run := func() string {
		e, pm, boot := faultDaxWorld(4*mib, 4, asyncParams(nil))
		pm.InjectFaults("pmem0", &device.FaultPlan{Seed: 11, Rules: []device.FaultRule{
			{Kind: device.FaultTransientWrite, Prob: 0.2},
			{Kind: device.FaultLatencySpike, After: 5, Every: 40, Delay: 60000},
		}})
		fp, rt := determinismWorkload(boot, e, 4)
		return fmt.Sprintf("%s retries=%d requeued=%d quarantined=%d injected=%d",
			fp, rt.Stats.IORetries, rt.Stats.RequeuedPages,
			rt.Stats.QuarantinedPages, pm.Store.InjectedFaults())
	}
	a, b := run(), run()
	t.Logf("faulted: %s", a)
	if a != b {
		t.Errorf("fault plan replay diverged:\n run1 %s\n run2 %s", a, b)
	}
}

// TestZeroFaultPlanMatchesNoPlan: attaching an empty fault plan must be
// perfectly inert — the fingerprint stays bit-identical to the no-plan golden
// (no stray delays, no extra RNG draws, no schedule bookkeeping side effects).
func TestZeroFaultPlanMatchesNoPlan(t *testing.T) {
	e, pm, boot := faultDaxWorld(4*mib, 4, nil)
	pm.InjectFaults("pmem0", &device.FaultPlan{Seed: 5})
	got, rt := determinismWorkload(boot, e, 4)
	if got != syncModeGoldens["dax"] {
		t.Errorf("empty fault plan perturbed the simulation:\n got  %s\n want %s",
			got, syncModeGoldens["dax"])
	}
	if pm.Store.InjectedFaults() != 0 || rt.Stats.IORetries != 0 {
		t.Errorf("empty plan injected faults: injected=%d retries=%d",
			pm.Store.InjectedFaults(), rt.Stats.IORetries)
	}
}
