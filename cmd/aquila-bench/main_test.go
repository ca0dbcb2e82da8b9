package main

import (
	"testing"

	"aquila/internal/harness"
	"aquila/internal/obs"
)

// TestSpansDroppedCounter pins the loss accounting: the driver surfaces the
// tracer's ring evictions as the aq.obs.spans_dropped counter, so metrics
// snapshots state whether the trace is a window or the whole run.
func TestSpansDroppedCounter(t *testing.T) {
	tr := obs.NewTracer()
	tr.SetRingCapacity(8) // tiny rings: the fig8a fault storm must overflow
	reg := obs.NewRegistry()
	e, ok := harness.Find("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	e.Run(&harness.Env{Scale: 0.15, Tracer: tr, Registry: reg})
	publishSpansDropped(tr, reg)

	if tr.Dropped() == 0 {
		t.Fatal("8-slot rings did not overflow under fig8a; test premise broken")
	}
	if got := reg.Snapshot().Counters["aq.obs.spans_dropped"]; got != tr.Dropped() {
		t.Errorf("aq.obs.spans_dropped = %d, want %d", got, tr.Dropped())
	}
}
