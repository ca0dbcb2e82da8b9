// Package profile is the hierarchical cycle profiler of the observability
// layer: it consumes the lossless span stream (obs.SpanSink, fed by
// engine.Proc.EndSpan — not the tracer's bounded rings) and aggregates it
// into one call tree per simulated process track, keyed by the span-name
// stack. Each node carries inclusive cycles (time inside spans at this
// path), exclusive cycles (inclusive minus instrumented children), call
// counts, and named event attributions (fault classes, shootdown batches,
// written-back pages — the same events the metrics registry counts, here
// broken down by call path).
//
// Because the simulation is deterministic, the profile is bit-exact: two
// runs of the same seed produce byte-identical JSON and folded output, so
// profiles diff cleanly across commits. Exports are a top-N table (human),
// JSON (tooling), and Brendan Gregg's folded-stack format (one
// "track;a;b;c cycles" line per node, exclusive cycles as the value) for
// flamegraph.pl or speedscope.
//
// Like the rest of the obs layer the profiler is single-execution (DES) and
// takes no locks; consuming a span never advances simulated time.
package profile

import (
	"fmt"
	"sort"

	"aquila/internal/obs"
)

// Profiler is the canonical SpanSink implementation.
var _ obs.SpanSink = (*Profiler)(nil)

// node is one call-tree vertex: the aggregation of every closed span whose
// open-span path ends here.
type node struct {
	name     string
	calls    uint64
	incl     uint64 // cycles inside spans closing at this path
	events   map[string]uint64
	children map[string]*node
}

func (n *node) child(name string) *node {
	c := n.children[name]
	if c == nil {
		c = &node{name: name}
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		n.children[name] = c
	}
	return c
}

// excl returns the node's exclusive cycles: inclusive minus the inclusive
// cycles of its instrumented children. Stack discipline (children close
// before their parent, inside its interval) makes this non-negative; the
// clamp guards a child whose parent span is still open at run end and was
// therefore never counted.
func (n *node) excl() uint64 {
	var kids uint64
	for _, c := range n.children {
		kids += c.incl
	}
	if kids > n.incl {
		return 0
	}
	return n.incl - kids
}

func (n *node) sortedChildren() []*node {
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*node, len(names))
	for i, name := range names {
		out[i] = n.children[name]
	}
	return out
}

func (n *node) addEvent(event string, c uint64) {
	if n.events == nil {
		n.events = make(map[string]uint64)
	}
	n.events[event] += c
}

// track is one simulated process's call tree. The root node aggregates the
// track's top-level spans; its inclusive cycles are the track's total
// instrumented time and can never exceed the run's total simulated cycles.
type track struct {
	name string
	cpu  int
	root node
}

// Profiler implements obs.SpanSink: attach it to a simulation
// (aquila.Options.Profiler / engine.Config.Profile) and it grows one call
// tree per process track as spans close. The zero value is not usable; call
// New.
type Profiler struct {
	tracks map[string]*track
	// totalCycles is the run's simulated-cycle total (harness.Env.SimCycles
	// or Engine.Now), set by the driver after the run; the root coverage in
	// exports and the Reconcile check compare against it.
	totalCycles uint64
}

// New creates an empty profiler.
func New() *Profiler {
	return &Profiler{tracks: make(map[string]*track)}
}

// Reset drops all accumulated state (per-experiment profiles from one
// shared profiler).
func (pr *Profiler) Reset() {
	pr.tracks = make(map[string]*track)
	pr.totalCycles = 0
}

// SetTotalCycles records the run's total simulated cycles, as measured by
// the driver (harness.Env.SimCycles for bench runs). Exports report it and
// Reconcile validates the tree against it.
func (pr *Profiler) SetTotalCycles(c uint64) { pr.totalCycles = c }

// TotalCycles returns the recorded run total.
func (pr *Profiler) TotalCycles() uint64 { return pr.totalCycles }

// Empty reports whether no spans have been consumed.
func (pr *Profiler) Empty() bool { return len(pr.tracks) == 0 }

func (pr *Profiler) track(name string, cpu int) *track {
	t := pr.tracks[name]
	if t == nil {
		t = &track{name: name, cpu: cpu, root: node{name: name}}
		pr.tracks[name] = t
	}
	return t
}

// walk descends from the track root along path, creating nodes as needed.
func (t *track) walk(path []string) *node {
	n := &t.root
	for _, name := range path {
		n = n.child(name)
	}
	return n
}

// ConsumeSpan implements obs.SpanSink: the span closing at path accrues one
// call and its duration at that node; a top-level span additionally accrues
// at the root (the track's total instrumented time).
func (pr *Profiler) ConsumeSpan(trk string, cpu int, path []string, begin, end uint64) {
	if len(path) == 0 || end < begin {
		return
	}
	t := pr.track(trk, cpu)
	n := t.walk(path)
	n.calls++
	n.incl += end - begin
	if len(path) == 1 {
		t.root.calls++
		t.root.incl += end - begin
	}
}

// ConsumeEvent implements obs.SpanSink: n occurrences of event land on the
// innermost open span's node (the root for an empty path).
func (pr *Profiler) ConsumeEvent(trk string, cpu int, path []string, event string, n uint64) {
	if n == 0 {
		return
	}
	pr.track(trk, cpu).walk(path).addEvent(event, n)
}

// sortedTracks returns the tracks in name order (all exports iterate this
// way, so output is independent of arrival order).
func (pr *Profiler) sortedTracks() []*track {
	names := make([]string, 0, len(pr.tracks))
	for name := range pr.tracks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*track, len(names))
	for i, name := range names {
		out[i] = pr.tracks[name]
	}
	return out
}

// Reconcile validates the profile's accounting invariants against the
// recorded run total:
//
//   - every track's root inclusive cycles fit within the run total
//     (instrumented time cannot exceed simulated time), and
//   - at every node, the children's inclusive cycles fit within the
//     parent's (span nesting discipline).
//
// It returns nil when the tree reconciles, or an error naming the first
// violation. SetTotalCycles must have been called.
func (pr *Profiler) Reconcile() error {
	if pr.totalCycles == 0 && !pr.Empty() {
		return fmt.Errorf("profile: total cycles unset (call SetTotalCycles before Reconcile)")
	}
	for _, t := range pr.sortedTracks() {
		if t.root.incl > pr.totalCycles {
			return fmt.Errorf("profile: track %s root inclusive %d cycles exceeds run total %d",
				t.name, t.root.incl, pr.totalCycles)
		}
		if err := reconcileNode(t.name, "", &t.root); err != nil {
			return err
		}
	}
	return nil
}

func reconcileNode(trk, prefix string, n *node) error {
	var kids uint64
	for _, c := range n.sortedChildren() {
		kids += c.incl
	}
	if kids > n.incl {
		return fmt.Errorf("profile: track %s node %s%s: children inclusive %d cycles exceed parent %d",
			trk, prefix, n.name, kids, n.incl)
	}
	for _, c := range n.sortedChildren() {
		if err := reconcileNode(trk, prefix+n.name+";", c); err != nil {
			return err
		}
	}
	return nil
}
