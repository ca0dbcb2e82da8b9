package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aquila/internal/obs/profile"
)

var updateProfileGolden = flag.Bool("update", false, "rewrite the golden profile")

// profileFig8a runs the fig8a experiment (page-fault breakdown, in-memory
// pmem dataset) with the profiler attached, exactly as cmd/aquila-bench
// -profile-dir does, and returns the profiler plus its exports.
func profileFig8a(t *testing.T, scale float64) (*profile.Profiler, []byte, []byte) {
	t.Helper()
	prof := profile.New()
	// A fresh Env names its systems identically on every invocation
	// ("linux.1", "aquila.2", ...): track names are part of the profile's
	// byte identity.
	env := testEnv(t)
	env.Scale, env.Profiler = scale, prof

	e, ok := Find("fig8a")
	if !ok {
		t.Fatal("fig8a experiment not registered")
	}
	e.Run(env)
	prof.SetTotalCycles(env.SimCycles())

	var js, folded bytes.Buffer
	if err := prof.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	return prof, js.Bytes(), folded.Bytes()
}

// TestProfileDeterminism is the profiler's core guarantee: the same seed run
// twice produces byte-identical profile JSON and folded output — profiles
// diff cleanly across commits and can be gated exactly.
func TestProfileDeterminism(t *testing.T) {
	_, js1, folded1 := profileFig8a(t, 0.25)
	_, js2, folded2 := profileFig8a(t, 0.25)
	if !bytes.Equal(js1, js2) {
		t.Errorf("profile JSON differs across identical runs (%d vs %d bytes)", len(js1), len(js2))
	}
	if !bytes.Equal(folded1, folded2) {
		t.Errorf("folded output differs across identical runs:\n%s\nvs\n%s", folded1, folded2)
	}
	if len(folded1) == 0 {
		t.Fatal("profile is empty: the fig8a hot paths emitted no spans")
	}
}

// TestProfileReconciles pins the accounting invariant: every track's root
// inclusive cycles fit within the simulated-cycle total the Env measured, and
// children nest within parents throughout the tree.
func TestProfileReconciles(t *testing.T) {
	prof, _, _ := profileFig8a(t, 0.25)
	if prof.TotalCycles() == 0 {
		t.Fatal("Env.SimCycles returned 0 for a real run")
	}
	if err := prof.Reconcile(); err != nil {
		t.Fatalf("profile does not reconcile with Env.SimCycles: %v", err)
	}
	doc := prof.Export()
	if doc.Coverage <= 0 || doc.Coverage > 1 {
		t.Fatalf("coverage = %v, want within (0, 1]", doc.Coverage)
	}
}

// TestProfileGolden pins the byte-exact fig8a profile. Regenerate with
// `go test ./internal/harness -run ProfileGolden -update` after intentional
// changes to instrumentation or the export format.
func TestProfileGolden(t *testing.T) {
	_, js, _ := profileFig8a(t, 0.25)
	golden := filepath.Join("testdata", "PROF_fig8a.json")
	if *updateProfileGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, js, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(js, want) {
		t.Errorf("profile differs from %s (got %d bytes, want %d); run with -update after intentional instrumentation changes",
			golden, len(js), len(want))
	}
}
