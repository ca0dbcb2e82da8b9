// Command aqperf is the performance-regression gate: it diffs experiment
// reports (the BENCH_<exp>.json schema) and exits non-zero when the
// candidate drifted from the golden. The simulation is deterministic, so
// the default comparison is exact to the cycle; -tol relaxes individual
// metrics or metric families.
//
// Usage:
//
//	aqperf golden.json candidate.json
//	aqperf -goldens . -dir .perfgate                  # every BENCH_*.json
//	aqperf -tol latency=0.02,breakdown.msync=0.05 a.json b.json
//	aqperf -goldens . -dir out -history BENCH_history.jsonl -label pr-42
//
// Exit status: 0 all metrics within tolerance (or only improvements with
// -allow-improved), 1 regression/drift detected, 2 usage or I/O error. A
// missing or unreadable report is reported on its own line and the
// remaining pairs are still gated before the command exits 2.
//
// Every gated comparison can be appended to a BENCH_history.jsonl
// trajectory (-history), making the repository's perf story across PRs
// machine-readable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aquila/internal/obs"
	"aquila/internal/obs/perfgate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it gates every report pair, printing a verdict
// for each, and returns the exit status. A missing or unreadable report gets
// its own MISSING line and fails the run at the end; it never hides the
// verdicts of the pairs after it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aqperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		goldens = fs.String("goldens", "", "directory holding the golden BENCH_*.json reports")
		dir     = fs.String("dir", "", "directory holding the candidate reports to gate (with -goldens)")
		tolS    = fs.String("tol", "", "per-metric relative tolerances: metric=frac,... (families: latency=0.02, breakdown=0.05); default exact")
		history = fs.String("history", "", "append each gated report to this BENCH_history.jsonl trajectory")
		label   = fs.String("label", "", "label for history records (CI job, PR id)")
		allowUp = fs.Bool("allow-improved", false, "exit 0 when the only drifts are improvements (regenerate goldens to absorb them)")
		verbose = fs.Bool("v", false, "print every metric, not only drifted ones")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "aqperf: "+format+"\n", args...)
		return 2
	}

	tol, err := perfgate.ParseTolerances(*tolS)
	if err != nil {
		return fatalf("%v", err)
	}

	type pair struct{ name, golden, cand string }
	var pairs []pair
	switch {
	case *goldens != "" && *dir != "":
		if fs.NArg() != 0 {
			return fatalf("positional reports and -goldens/-dir are mutually exclusive")
		}
		matches, err := filepath.Glob(filepath.Join(*goldens, "BENCH_*.json"))
		if err != nil {
			return fatalf("list goldens: %v", err)
		}
		if len(matches) == 0 {
			return fatalf("no BENCH_*.json goldens in %s", *goldens)
		}
		sort.Strings(matches)
		for _, g := range matches {
			base := filepath.Base(g)
			pairs = append(pairs, pair{name: base, golden: g, cand: filepath.Join(*dir, base)})
		}
	case fs.NArg() == 2:
		pairs = append(pairs, pair{name: filepath.Base(fs.Arg(1)), golden: fs.Arg(0), cand: fs.Arg(1)})
	default:
		fmt.Fprintln(stderr, "usage: aqperf [flags] golden.json candidate.json | aqperf [flags] -goldens DIR -dir DIR")
		fs.PrintDefaults()
		return 2
	}

	ts := time.Now().UTC().Format(time.RFC3339)
	var recs []perfgate.HistoryRecord
	worst := perfgate.OK
	missing := 0
	for _, pr := range pairs {
		golden, err := obs.ReadReportFile(pr.golden)
		if err != nil {
			missing++
			fmt.Fprintf(stdout, "== %s: MISSING golden: %v ==\n", pr.name, err)
			continue
		}
		cand, err := obs.ReadReportFile(pr.cand)
		if err != nil {
			missing++
			fmt.Fprintf(stdout, "== %s: MISSING candidate: %v (regenerate with aquila-bench -report-dir) ==\n",
				golden.Experiment, err)
			continue
		}
		deltas := perfgate.Compare(golden, cand, tol)
		status := perfgate.Worst(deltas)
		if status > worst {
			worst = status
		}
		drifted := perfgate.NotOK(deltas)
		fmt.Fprintf(stdout, "== %s: %s (%d metrics, %d drifted) ==\n",
			cand.Experiment, status, len(deltas), len(drifted))
		show := drifted
		if *verbose {
			show = deltas
		}
		for _, d := range show {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
		if *history != "" {
			recs = append(recs, perfgate.NewHistoryRecord(cand, deltas, *label, ts))
		}
	}
	if *history != "" {
		if err := perfgate.AppendHistory(*history, recs); err != nil {
			return fatalf("append history: %v", err)
		}
		fmt.Fprintf(stdout, "# %d record(s) appended to %s\n", len(recs), *history)
	}
	code := 0
	switch {
	case worst == perfgate.OK:
		if missing == 0 {
			fmt.Fprintln(stdout, "# perf gate: clean")
		}
	case worst == perfgate.Improved && *allowUp:
		fmt.Fprintln(stdout, "# perf gate: improvements only (regenerate goldens with `make bench-reports` to absorb them)")
	default:
		fmt.Fprintln(stdout, "# perf gate: FAILED — candidate drifted from goldens (if intentional, regenerate with `make bench-reports`)")
		code = 1
	}
	if missing > 0 {
		fmt.Fprintf(stdout, "# perf gate: FAILED — %d of %d report pair(s) missing or unreadable\n", missing, len(pairs))
		code = 2
	}
	return code
}
