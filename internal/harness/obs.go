package harness

import (
	"fmt"

	"aquila"
	"aquila/internal/obs"
)

// Env is the one explicit context an experiment runs in: the scale, the
// optional observability sinks, and the bookkeeping of the Systems the
// experiment boots. The harness keeps numbers, not Systems: every boot site
// hands its System back through done once it has read what it needs, and
// done folds the System's final clock into SimCycles, publishes its counters
// into Registry, and closes it.
//
// One Env may serve several experiments in turn (cmd/aquila-bench shares one
// across a run, so trace labels stay unique within one trace file and one
// metrics snapshot). It is not safe for concurrent experiments.
type Env struct {
	// Scale multiplies dataset sizes and op counts: 1.0 is the full
	// scaled-down run EXPERIMENTS.md documents; tests use smaller.
	Scale float64
	// Tracer, Registry and Profiler, when non-nil, receive every booted
	// System's spans, metrics and lossless span stream. Each instrumented
	// System gets a unique trace label ("<mode>.<n>"), so several
	// experiments can share one trace file and one metrics snapshot without
	// their series colliding.
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Profiler obs.SpanSink

	seq    int    // trace labels handed out
	cycles uint64 // final simulated clocks of every System handed back
	live   int    // Systems booted and not yet handed back
}

// SimCycles returns the simulated cycles of every System handed back so far,
// their final clocks summed: the deterministic cost figure the bench driver
// prints per experiment (as the difference across the experiment's Run).
func (env *Env) SimCycles() uint64 { return env.cycles }

// boot creates a System, injecting the Env's tracer, registry and profiler.
// With no instrumentation configured it is exactly aquila.New. The caller
// owns the System until it hands it back with done.
func (env *Env) boot(opts aquila.Options) *aquila.System {
	if env.Tracer != nil || env.Registry != nil || env.Profiler != nil {
		opts.Tracer = env.Tracer
		opts.Registry = env.Registry
		opts.Profiler = env.Profiler
		if opts.TraceLabel == "" {
			env.seq++
			opts.TraceLabel = fmt.Sprintf("%s.%d", modeLabel(opts.Mode), env.seq)
		}
	}
	env.live++
	return aquila.New(opts)
}

// done takes back a System booted by boot once the experiment has read its
// results: it adds the final clock to SimCycles, pushes the System's counters
// (fault stats, page-cache and device totals, final clock) into the registry
// when one is set, and closes it, reaping any parked daemon procs.
func (env *Env) done(sys *aquila.System) {
	env.cycles += sys.Sim.Now()
	sys.PublishStats()
	sys.Close()
	env.live--
}

func modeLabel(m aquila.Mode) string {
	switch m {
	case aquila.ModeLinuxMmap:
		return "linux"
	case aquila.ModeLinuxDirect:
		return "linux-direct"
	default:
		return "aquila"
	}
}

// subMap returns after-before per category (clamped at zero), dropping empty
// categories: the per-phase delta of a cumulative breakdown.
func subMap(after, before map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		if b, ok := before[k]; ok {
			if v <= b {
				continue
			}
			v -= b
		}
		if v > 0 {
			out[k] = v
		}
	}
	return out
}

// safeDiv is a/b with 0 for an empty denominator (reports must not carry
// NaN/Inf — encoding/json rejects them).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumMap(m map[string]uint64) uint64 {
	var t uint64
	for _, v := range m {
		t += v
	}
	return t
}
