package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyRun(t *testing.T, wl *workload, seed int64, trace bool, outDir string) *report {
	t.Helper()
	rep, err := run(runCfg{wl: wl, seed: seed, seconds: 1, trace: trace, tiny: true, outDir: outDir})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", wl.name, seed, trace, err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d trace %v: correct=%v failed=%d attempted=%d",
			wl.name, seed, trace, rep.correct, rep.failed, rep.attempted)
	}
	return rep
}

func sameSim(t *testing.T, what string, a, b map[string]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d simulated numbers", what, len(a), len(b))
	}
	for k, v := range a {
		if w := b[k]; math.Float64bits(v) != math.Float64bits(w) {
			t.Errorf("%s: %s = %v vs %v", what, k, v, w)
		}
	}
}

// TestDeterminism checks, at a tiny size, that one seed gives bit-identical
// simulated numbers across runs and between traced and untraced runs, and
// that a seed not used while tuning the benchmark runs clean too.
func TestDeterminism(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			a := tinyRun(t, wl, 1, false, "")
			b := tinyRun(t, wl, 1, false, "")
			sameSim(t, "two untraced runs", a.sim, b.sim)
			tr := tinyRun(t, wl, 1, true, dir)
			sameSim(t, "untraced vs traced", a.sim, tr.sim)
			tinyRun(t, wl, 424242, false, "")

			if len(a.metrics) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(a.metrics), len(endToEnd))
			}
			sum := 0.0
			for _, m := range tr.metrics {
				if strings.HasSuffix(m.name, ".self_share") || m.name == "engine.unattributed_host_share" {
					sum += m.value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("self-time shares plus unattributed sum to %v, want 1", sum)
			}
			if _, err := os.Stat(filepath.Join(dir, wl.name+"-seed1.jsonl")); err != nil {
				t.Errorf("traced run wrote no span file: %v", err)
			}
		})
	}
}

// TestPageTags checks the mmio load check against lost and reordered stores.
func TestPageTags(t *testing.T) {
	s := newPageTags(2)
	if !s.loadEnd(0, s.loadBegin(0), 0) {
		t.Fatal("a never-stored page must read 0")
	}
	t1 := s.storeBegin(0)
	s.storeEnd(0, t1)
	if s.loadEnd(0, s.loadBegin(0), 0) {
		t.Fatal("a stored page read 0: lost write not caught")
	}
	t2 := s.storeBegin(0)
	s.storeEnd(0, t2)
	if s.loadEnd(0, s.loadBegin(0), t1) {
		t.Fatal("an overwritten tag was accepted")
	}
	if !s.loadEnd(0, s.loadBegin(0), t2) {
		t.Fatal("the last tag was rejected")
	}
	if s.loadEnd(1, s.loadBegin(1), t2) {
		t.Fatal("another page's tag was accepted")
	}

	// A load overlapping a store may see the old or the new tag, and keeps
	// the old one valid until it ends.
	starts := []uint64{s.loadBegin(0), s.loadBegin(0), s.loadBegin(0)}
	t3 := s.storeBegin(0)
	s.storeEnd(0, t3)
	t4 := s.storeBegin(0)
	s.storeEnd(0, t4)
	for i, v := range []uint64{t2, t3, t4} {
		if !s.loadEnd(0, starts[i], v) {
			t.Fatalf("overlapping load rejected %#x", v)
		}
	}
	if s.loadEnd(0, s.loadBegin(0), t3) {
		t.Fatal("a tag overwritten before the load began was accepted")
	}
}

func TestKreonSizesFitRun(t *testing.T) {
	const records = 64 << 10
	puts := uint64(records + 1_000_000)
	logBytes, idxBytes := kreonSizes(puts, records)
	if logBytes < puts*1038 {
		t.Errorf("log of %d bytes cannot hold %d records", logBytes, puts)
	}
	spills := puts / 16384
	if perSpill := uint64(records/107+1) * pageSize; idxBytes < spills*perSpill {
		t.Errorf("index of %d bytes cannot hold %d spills", idxBytes, spills)
	}
}
