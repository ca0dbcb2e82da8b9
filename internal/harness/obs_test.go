package harness

import (
	"bytes"
	"testing"

	"aquila/internal/obs"
)

// TestFig8aReportCoverage runs the fig8a experiment instrumented and checks
// the acceptance property of the machine-readable report: the breakdown
// categories must account for at least 95% of the total measured fault
// cycles, and the shared tracer/registry must have collected the run.
func TestFig8aReportCoverage(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	env := testEnv(t)
	env.Tracer, env.Registry = tr, reg

	e, ok := Find("fig8a")
	if !ok {
		t.Fatal("fig8a not registered")
	}
	rs := e.Run(env)
	if len(rs) == 0 || rs[0].Report == nil {
		t.Fatal("fig8a produced no report")
	}
	rep := rs[0].Report
	if rep.Schema != obs.ReportSchemaVersion {
		t.Errorf("schema = %d, want %d", rep.Schema, obs.ReportSchemaVersion)
	}
	if rep.Ops == 0 || rep.TotalCycles == 0 {
		t.Fatalf("report missing measurements: %+v", rep)
	}
	if c := rep.Coverage(); c < 0.95 || c > 1.0 {
		t.Errorf("breakdown coverage = %.3f, want [0.95, 1.0]; breakdown=%v total=%d",
			c, rep.Breakdown, rep.TotalCycles)
	}

	if len(tr.Spans()) == 0 {
		t.Error("instrumented run recorded no spans")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("trace does not validate: %v", err)
	}
	if len(reg.Keys()) == 0 {
		t.Error("instrumented run registered no metrics")
	}
}

func TestSubSumMap(t *testing.T) {
	after := map[string]uint64{"a": 10, "b": 5, "c": 3}
	before := map[string]uint64{"a": 4, "b": 5, "d": 9}
	d := subMap(after, before)
	if len(d) != 2 || d["a"] != 6 || d["c"] != 3 {
		t.Errorf("subMap = %v, want map[a:6 c:3]", d)
	}
	if got := sumMap(d); got != 9 {
		t.Errorf("sumMap = %d, want 9", got)
	}
}
