package obs

import (
	"fmt"
	"strings"
)

// Breakdown attributes cycles to named categories, preserving first-use
// order for stable reporting. It powers the per-component bars of the
// paper's Figures 7 and 8.
type Breakdown struct {
	order  []string
	cycles map[string]uint64
	counts map[string]uint64
}

// NewBreakdown creates an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{cycles: make(map[string]uint64), counts: make(map[string]uint64)}
}

// Add attributes cycles to a category.
func (b *Breakdown) Add(category string, cycles uint64) {
	if b == nil {
		return
	}
	if _, ok := b.cycles[category]; !ok {
		b.order = append(b.order, category)
	}
	b.cycles[category] += cycles
	b.counts[category]++
}

// Get returns the cycles attributed to a category.
func (b *Breakdown) Get(category string) uint64 { return b.cycles[category] }

// Count returns the number of Add calls for a category.
func (b *Breakdown) Count(category string) uint64 { return b.counts[category] }

// PerOp returns category cycles divided by n (average per operation).
func (b *Breakdown) PerOp(category string, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(b.cycles[category]) / float64(n)
}

// Total returns the sum over all categories.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b.cycles {
		t += v
	}
	return t
}

// Categories returns category names in first-use order.
func (b *Breakdown) Categories() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Map returns a copy of the category → cycles mapping (report encoding).
func (b *Breakdown) Map() map[string]uint64 {
	if b == nil {
		return nil
	}
	out := make(map[string]uint64, len(b.cycles))
	for c, v := range b.cycles {
		out[c] = v
	}
	return out
}

// Merge adds all categories of other into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for _, c := range other.order {
		if _, ok := b.cycles[c]; !ok {
			b.order = append(b.order, c)
		}
		b.cycles[c] += other.cycles[c]
		b.counts[c] += other.counts[c]
	}
}

// Reset empties the breakdown.
func (b *Breakdown) Reset() {
	b.order = nil
	b.cycles = make(map[string]uint64)
	b.counts = make(map[string]uint64)
}

// Table renders the breakdown as per-op averages over n operations.
func (b *Breakdown) Table(n uint64) string {
	var sb strings.Builder
	total := b.Total()
	for _, c := range b.order {
		v := b.cycles[c]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-28s %10.0f cycles/op  %5.1f%%\n", c, b.PerOp(c, n), pct)
	}
	fmt.Fprintf(&sb, "  %-28s %10.0f cycles/op\n", "TOTAL", float64(total)/float64(maxU64(n, 1)))
	return sb.String()
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
