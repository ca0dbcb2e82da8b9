package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyReport copies a checked-in BENCH report into dir.
func copyReport(t *testing.T, name, dir string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMissingCandidateDoesNotHideVerdicts gates three goldens against a
// candidate directory that lacks the middle one (fig5b sorts between fig10a
// and fig7): the missing pair gets its own MISSING line, both other pairs
// still get their verdicts, and the run fails only at the end.
func TestMissingCandidateDoesNotHideVerdicts(t *testing.T) {
	goldens, cands := t.TempDir(), t.TempDir()
	for _, name := range []string{"BENCH_fig10a.json", "BENCH_fig5b.json", "BENCH_fig7.json"} {
		copyReport(t, name, goldens)
		if name != "BENCH_fig5b.json" {
			copyReport(t, name, cands)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-goldens", goldens, "-dir", cands}, &stdout, &stderr)
	out := stdout.String()
	if code != 2 {
		t.Errorf("exit status = %d, want 2 (a report is missing)\n%s%s", code, out, stderr.String())
	}
	for _, want := range []string{
		"== fig10a: ok (",
		"== fig5b: MISSING candidate:",
		"== fig7: ok (",
		"1 of 3 report pair(s) missing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "perf gate: clean") {
		t.Errorf("a run with a missing report printed a clean verdict:\n%s", out)
	}
}

// TestCleanGate pins the all-present, all-identical case: exit 0.
func TestCleanGate(t *testing.T) {
	goldens := t.TempDir()
	copyReport(t, "BENCH_fig8a.json", goldens)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-goldens", goldens, "-dir", goldens}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "perf gate: clean") {
		t.Errorf("no clean verdict:\n%s", stdout.String())
	}
}
