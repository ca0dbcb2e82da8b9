package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaVersion identifies the PROF_<exp>.json layout; bump on incompatible
// changes.
const SchemaVersion = 1

// JSONNode is the exported form of one call-tree node. Children are a
// name-sorted array (not a map) so the encoding is deterministic and
// order-preserving for downstream tooling.
type JSONNode struct {
	Name            string            `json:"name"`
	Calls           uint64            `json:"calls"`
	InclusiveCycles uint64            `json:"inclusive_cycles"`
	ExclusiveCycles uint64            `json:"exclusive_cycles"`
	Events          map[string]uint64 `json:"events,omitempty"`
	Children        []*JSONNode       `json:"children,omitempty"`
}

// JSONTrack is one process track's exported tree.
type JSONTrack struct {
	Track string `json:"track"`
	CPU   int    `json:"cpu"`
	// CoveredCycles is the root inclusive total: simulated time inside this
	// track's instrumented spans.
	CoveredCycles uint64    `json:"covered_cycles"`
	Root          *JSONNode `json:"root"`
}

// JSONProfile is the top-level PROF_<exp>.json document.
type JSONProfile struct {
	Schema int `json:"schema"`
	// TotalCycles is the run's simulated-cycle total (harness.Env.SimCycles);
	// Coverage is the instrumented share: max over tracks of covered/total.
	TotalCycles uint64      `json:"total_cycles"`
	Coverage    float64     `json:"coverage"`
	Tracks      []JSONTrack `json:"tracks"`
}

func exportNode(n *node) *JSONNode {
	out := &JSONNode{
		Name:            n.name,
		Calls:           n.calls,
		InclusiveCycles: n.incl,
		ExclusiveCycles: n.excl(),
	}
	if len(n.events) > 0 {
		out.Events = make(map[string]uint64, len(n.events))
		for k, v := range n.events {
			out.Events[k] = v
		}
	}
	for _, c := range n.sortedChildren() {
		out.Children = append(out.Children, exportNode(c))
	}
	return out
}

// Export builds the JSON document form of the profile.
func (pr *Profiler) Export() *JSONProfile {
	out := &JSONProfile{Schema: SchemaVersion, TotalCycles: pr.totalCycles}
	for _, t := range pr.sortedTracks() {
		out.Tracks = append(out.Tracks, JSONTrack{
			Track:         t.name,
			CPU:           t.cpu,
			CoveredCycles: t.root.incl,
			Root:          exportNode(&t.root),
		})
		if pr.totalCycles > 0 {
			if c := float64(t.root.incl) / float64(pr.totalCycles); c > out.Coverage {
				out.Coverage = c
			}
		}
	}
	return out
}

// WriteJSON encodes the profile as indented JSON. Deterministic: tracks and
// children are sorted, and encoding/json sorts the event maps.
func (pr *Profiler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pr.Export())
}

// WriteFolded emits the folded flame-graph form: one line per node holding
// exclusive cycles, "track;outer;...;leaf cycles", in lexicographic stack
// order. Zero-weight interior lines are omitted (flamegraph.pl reconstructs
// them from their children). Feed the output to flamegraph.pl or paste it
// into speedscope.app.
func (pr *Profiler) WriteFolded(w io.Writer) error {
	for _, t := range pr.sortedTracks() {
		if err := foldNode(w, t.name, &t.root, true); err != nil {
			return err
		}
	}
	return nil
}

func foldNode(w io.Writer, stack string, n *node, isRoot bool) error {
	// The root's exclusive cycles are the track's un-nested top-level time;
	// for non-root nodes the stack already includes the node name.
	if e := n.excl(); e > 0 {
		if _, err := fmt.Fprintf(w, "%s %d\n", stack, e); err != nil {
			return err
		}
	}
	for _, c := range n.sortedChildren() {
		if err := foldNode(w, stack+";"+c.name, c, false); err != nil {
			return err
		}
	}
	return nil
}

// flatRow is one row of the top-N table: a node identified by its full path.
type flatRow struct {
	track string
	path  string
	n     *node
}

func (pr *Profiler) flatten() []flatRow {
	var rows []flatRow
	var walk func(trk, prefix string, n *node)
	walk = func(trk, prefix string, n *node) {
		rows = append(rows, flatRow{track: trk, path: prefix + n.name, n: n})
		for _, c := range n.sortedChildren() {
			walk(trk, prefix+n.name+";", c)
		}
	}
	for _, t := range pr.sortedTracks() {
		for _, c := range t.root.sortedChildren() {
			walk(t.name, "", c)
		}
	}
	return rows
}

// WriteTop renders the n hottest call paths by exclusive cycles (ties break
// by path, so the table is deterministic), with per-path events inline.
func (pr *Profiler) WriteTop(w io.Writer, n int) error {
	rows := pr.flatten()
	sort.Slice(rows, func(i, j int) bool {
		ei, ej := rows[i].n.excl(), rows[j].n.excl()
		if ei != ej {
			return ei > ej
		}
		if rows[i].track != rows[j].track {
			return rows[i].track < rows[j].track
		}
		return rows[i].path < rows[j].path
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	if _, err := fmt.Fprintf(w, "%12s %12s %9s  %s\n", "excl cycles", "incl cycles", "calls", "call path (track: stack)"); err != nil {
		return err
	}
	for _, r := range rows {
		events := ""
		if len(r.n.events) > 0 {
			keys := make([]string, 0, len(r.n.events))
			for k := range r.n.events {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%d", k, r.n.events[k])
			}
			events = "  [" + strings.Join(parts, " ") + "]"
		}
		if _, err := fmt.Fprintf(w, "%12d %12d %9d  %s: %s%s\n",
			r.n.excl(), r.n.incl, r.n.calls, r.track, r.path, events); err != nil {
			return err
		}
	}
	return nil
}

// WriteFiles writes the JSON and folded forms side by side
// ("<base>.json" / "<base>.folded"), the layout cmd/aquila-bench's
// -profile-dir produces per experiment.
func (pr *Profiler) WriteFiles(base string) error {
	if err := writeTo(base+".json", pr.WriteJSON); err != nil {
		return err
	}
	return writeTo(base+".folded", pr.WriteFolded)
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
