package core

import (
	"bytes"
	"testing"

	"aquila/internal/sim/engine"
)

// TestConcurrentFaultsShareOnePage pins the 4 KB fault path against the
// double-publish race: two procs fault the same file page at the same cycle,
// and the yielding insert charge falls between each one's hash miss and its
// publish. With two Pages published for one file page, the PTE keeps the
// first one's frame while the hash keeps the second's, so a store through
// the mapping is gone once the mapping is rebuilt from the cache.
func TestConcurrentFaultsShareOnePage(t *testing.T) {
	for _, write := range []bool{false, true} {
		e, _, boot := daxWorld(16*mib, 4)
		var rt *Runtime
		var f *fileState
		var m *AqMapping
		e.Spawn(0, "setup", func(p *engine.Proc) {
			rt = boot(p)
			if rt.hugeEnabled() {
				t.Fatal("test needs the 4 KB-only path")
			}
			f = rt.CreateFile(p, "shared", mib)
			m = rt.Mmap(p, f, mib)
		})
		e.Run()
		start := e.Now()
		tags := [][]byte{[]byte("first proc"), []byte("second proc")}
		for i, tag := range tags {
			i, tag := i, tag
			e.SpawnAt(1+i, "faulter", start, func(p *engine.Proc) {
				if !write {
					// The load faults the page in; the store after it is a
					// write-protect fault on whichever page the load mapped.
					m.Load(p, uint64(i)*64, make([]byte, len(tag)))
				}
				m.Store(p, uint64(i)*64, tag)
			})
		}
		e.Run()
		e.Spawn(0, "check", func(p *engine.Proc) {
			// Rebuild the mapping: the page comes back from the cache hash,
			// not from the PTE the faulting procs installed.
			m.Munmap(p)
			m2 := rt.Mmap(p, f, mib)
			for i, tag := range tags {
				got := make([]byte, len(tag))
				m2.Load(p, uint64(i)*64, got)
				if !bytes.Equal(got, tag) {
					t.Errorf("write=%v: store %q by proc %d lost, read back %q", write, tag, i, got)
				}
			}
			if err := rt.CheckInvariants(); err != nil {
				t.Errorf("write=%v: %v", write, err)
			}
		})
		e.Run()
	}
}
