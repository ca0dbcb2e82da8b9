package main

import "encoding/binary"

const pageSize = 4096

// tagRec is one store to a page. begin and end are logical times; end is 0
// while the store is in flight.
type tagRec struct{ tag, begin, end uint64 }

// pageTags checks the loads of the mmio workload. A store writes a tag that
// names its page and the store; a load must return 0 if no store to the page
// had completed when it began, or else the tag of a store that could still
// be the page's content: one that began before the load ended and that no
// store completed before the load began had wholly overwritten. Simulated
// threads run one at a time, so the logical clock needs no locking, but an
// access may yield inside, so stores and loads overlap.
type pageTags struct {
	clock, seq uint64
	hist       [][]tagRec // per page: stores that may still be visible
	loading    []uint32   // per page: loads in flight
}

func newPageTags(pages uint64) *pageTags {
	return &pageTags{hist: make([][]tagRec, pages), loading: make([]uint32, pages)}
}

func putTag(buf []byte, tag uint64) { binary.LittleEndian.PutUint64(buf, tag) }
func getTag(buf []byte) uint64      { return binary.LittleEndian.Uint64(buf) }

func (s *pageTags) storeBegin(pg uint64) uint64 {
	s.clock++
	s.seq++
	tag := pg<<40 | s.seq
	s.hist[pg] = append(s.hist[pg], tagRec{tag: tag, begin: s.clock})
	return tag
}

func (s *pageTags) storeEnd(pg, tag uint64) {
	s.clock++
	h := s.hist[pg]
	var done tagRec
	for i := range h {
		if h[i].tag == tag {
			h[i].end = s.clock
			done = h[i]
		}
	}
	if s.loading[pg] > 0 {
		return // a load in flight may still have read an older store
	}
	// Stores that completed before this one began are overwritten.
	keep := h[:0]
	for _, r := range h {
		if r.end == 0 || r.end > done.begin {
			keep = append(keep, r)
		}
	}
	s.hist[pg] = keep
}

func (s *pageTags) loadBegin(pg uint64) uint64 {
	s.clock++
	s.loading[pg]++
	return s.clock
}

// loadEnd reports whether v is a value the load that began at start could
// have read.
func (s *pageTags) loadEnd(pg, start, v uint64) bool {
	s.clock++
	s.loading[pg]--
	h := s.hist[pg]
	overwritten := func(r tagRec) bool {
		for _, o := range h {
			if o.end != 0 && o.end < start && r.end != 0 && o.begin > r.end {
				return true
			}
		}
		return false
	}
	if v == 0 {
		for _, r := range h {
			if r.end != 0 && r.end < start {
				return false
			}
		}
		return true
	}
	for _, r := range h {
		if r.tag == v {
			return !overwritten(r)
		}
	}
	return false
}
