package aquila_test

import (
	"runtime"
	"testing"
	"time"

	"aquila"
	"aquila/internal/core"
)

// runAsyncEvictSystem boots an AsyncEvict System, drives enough faults
// through a cache a quarter of the dataset for the bg-evict daemons to run,
// then closes it. It returns the background-reclaimed page count and a
// channel that receives once the System has been garbage collected.
//
// The finalizer sits on the Params block the System's Options point to: a
// leaf only the System reaches, so it runs once the System is unreachable.
// (A finalizer on the System itself would sit inside the System's own
// reference cycles, which the collector need not finalize.)
func runAsyncEvictSystem() (bgPages uint64, collected <-chan struct{}) {
	par := new(core.Params)
	*par = core.DefaultParams()
	par.AsyncEvict = true
	done := make(chan struct{}, 1)
	runtime.SetFinalizer(par, func(*core.Params) { done <- struct{}{} })
	sys := aquila.New(aquila.Options{
		Device: aquila.DevicePMem, CPUs: 4, CacheBytes: 2 << 20, DeviceBytes: 64 << 20,
		Params: par,
	})
	sys.Do(func(p *aquila.Proc) {
		f := sys.NS.Create(p, "big", 8<<20)
		m := sys.NS.Mmap(p, f, 8<<20)
		buf := make([]byte, 8)
		for i := uint64(0); i < 8<<20/4096; i++ {
			m.Store(p, i*4096, buf)
		}
	})
	bgPages = sys.RT.Stats.BgReclaimPages
	sys.Close()
	return bgPages, done
}

// TestClosedSystemIsCollected is the System lifecycle oracle: nothing a
// System owns may outlive it. Without Close, the bg-evict daemons parked in
// their wakeup signal keep the whole System (media, frames, TLBs) reachable
// forever.
func TestClosedSystemIsCollected(t *testing.T) {
	bgPages, collected := runAsyncEvictSystem()
	if bgPages == 0 {
		t.Fatal("the bg-evict daemons never ran; the test exercises nothing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("closed AsyncEvict System is still reachable after GC")
}
