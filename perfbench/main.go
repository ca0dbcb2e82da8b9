// Command perfbench is the repository's benchmark: it runs one workload over
// the simulator's public layer APIs, checks every operation's output, and
// prints its end-to-end metrics (or, with --trace 1, its per-layer metrics)
// as the last line of standard output. See README.md.
//
//	go run . --workload mmio-rw-4x --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Int("seconds", 20, "nominal length of the measured phases, in host seconds")
		trace   = flag.Int("trace", 0, "1: trace the layer calls and print per-layer metrics")
		outDir  = flag.String("out-dir", "", "directory for the traced run's span file")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep, err := run(runCfg{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	stamp, _ := json.Marshal(map[string]any{"stamp": rep.stamp})
	out, err := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed,
		"metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their output check\n",
			rep.failed, rep.attempted)
	}
	fmt.Println(string(stamp))
	fmt.Println(string(out))
}
