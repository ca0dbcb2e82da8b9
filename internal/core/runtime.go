package core

import (
	"errors"
	"fmt"
	"sort"

	"aquila/internal/detutil"
	"aquila/internal/host"
	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/sim/cpu"
	"aquila/internal/sim/device"
	"aquila/internal/sim/engine"
	"aquila/internal/sim/mem"
	"aquila/internal/sim/pagetable"
)

// Stats are Aquila's operation counters.
type Stats struct {
	MajorFaults      uint64
	MinorFaults      uint64
	WPFaults         uint64
	Evictions        uint64
	WrittenBack      uint64
	ShootdownBatches uint64
	ReadaheadPages   uint64
	// DirectReclaimPages and BgReclaimPages split Evictions by who did the
	// work: the faulting proc inline vs the background evictor daemons.
	DirectReclaimPages uint64
	BgReclaimPages     uint64
	// EvictStalls counts rounds in which an allocation found every reclaim
	// candidate busy and had to yield or throttle-wait.
	EvictStalls uint64
	// IORetries counts transient device errors absorbed by the bounded
	// retry/backoff policy (Params.IORetryLimit / IORetryBackoff).
	IORetries uint64
	// PoisonedPages counts pages whose fill I/O failed permanently; any
	// access to them delivers SIGBUS.
	PoisonedPages uint64
	// QuarantinedPages counts dirty pages whose writeback failed permanently
	// and that are now pinned in DRAM (never dropped, never re-selected).
	QuarantinedPages uint64
	// RequeuedPages counts pages whose writeback failed transiently even
	// after retries and that were put back on the dirty list for a later
	// writeback pass.
	RequeuedPages uint64
	// SyncWritebackFallbacks counts background-evict batches that fell back
	// from overlapped to synchronous writeback after repeated failures.
	SyncWritebackFallbacks uint64
	// HugeFaults counts faults served by a 2 MB unit: promotions, minor
	// faults mapping an existing unit, and write upgrades on units.
	HugeFaults uint64
	// HugePromotions counts extents collapsed into one 2 MB unit.
	HugePromotions uint64
	// HugeDemotions counts units split back into 4 KB pages (first dirtying
	// store on a clean unit, failed merged fill, boundary operations).
	HugeDemotions uint64
	// HugeEvictions counts whole-unit evictions: one shootdown slot and one
	// merged 2 MB writeback per unit.
	HugeEvictions uint64
	// RestoredWBErrors counts files whose writeback error sequence was
	// re-seeded from a crash image at open/create, so a pre-crash unreported
	// error still surfaces exactly once after recovery.
	RestoredWBErrors uint64
	// RecoveredFiles counts files reopened from a recovered (post-crash)
	// backing image.
	RecoveredFiles uint64
}

// Eviction stall handling: an empty selection round means every cached page
// is pinned or under I/O. The first evictStallYields rounds yield for free
// (letting the I/O owners progress — historical behavior); past that the
// allocation burns a bounded throttled-wait budget in quanta of simulated
// time, and only then gives up with ErrEvictionStalled instead of the former
// hard panic.
const (
	// evictStallYields matches the threshold at which the runtime formerly
	// panicked, so runs that completed before behave identically.
	evictStallYields = 10000
	// evictStallQuantum is one throttled wait (~8 µs at 2.4 GHz).
	evictStallQuantum = 20000
	// evictThrottleQuantum paces a faulter waiting on the background
	// evictor: short enough to notice a freelist refill quickly (a daemon
	// batch lands every few thousand cycles), long enough not to spin.
	evictThrottleQuantum = 4000
	// defaultEvictStallBudget (~17 µs) bounds throttled waiting per
	// allocation: a daemon refill batch lands within a few thousand cycles
	// when reclaim is keeping up, so waiting longer than roughly one inline
	// batch reclaim costs means the daemons are behind — fall back to
	// direct reclaim rather than queue behind the backlog (tail latency
	// stays near the synchronous design's).
	defaultEvictStallBudget = 40_000
)

// ErrEvictionStalled reports that an allocation exhausted its throttled-wait
// budget with every reclaim candidate pinned or in flight: the cache is too
// small for the in-flight windows of its users. Mappings surface it as a
// SIGBUS-style panic; code calling the runtime directly can handle it.
var ErrEvictionStalled = errors.New("core: eviction stalled — cache too small for in-flight windows")

// VictimPolicy selects pages to evict; the default is the built-in LRU
// approximation. Applications may install their own (cache customization,
// contribution 1 of the paper).
type VictimPolicy func(p *engine.Proc, n int) []*Page

// ReadaheadPolicy returns how many pages beyond the faulting one to read,
// given the region's madvise state. The default honors AdviceSequential /
// AdviceWillNeed with Params.ReadAheadPages and reads nothing otherwise.
type ReadaheadPolicy func(r *Region, idx uint64) int

// Config parameterizes a Runtime.
type Config struct {
	// CacheBytes is the initial DRAM I/O cache size.
	CacheBytes uint64
	// MaxCacheBytes bounds dynamic growth (default: CacheBytes).
	MaxCacheBytes uint64
	// Params overrides the cost/policy table (nil: defaults).
	Params *Params
	// Registry receives the runtime's metrics (fault-cycle breakdown,
	// counters). Nil creates a private registry, so Break always works.
	Registry *obs.Registry
	// Label distinguishes this runtime's series in a shared Registry
	// (metric key "aquila_fault_cycles{world=<label>}").
	Label string
	// RestoredWBErrors carries per-file writeback errors out of a crash
	// image into a recovered runtime: the first open/create of a named file
	// seeds its errseq with the error, unseen, so the first sync caller in
	// the new incarnation reports it — exactly-once reporting survives
	// restart (see errseq.sample).
	RestoredWBErrors map[string]error
	// Recovered marks this runtime as booted from a crash image (stats and
	// metrics labeling only; the mechanism is RestoredWBErrors plus the
	// adopted device media).
	Recovered bool
}

// Runtime is one Aquila instance: the library OS state of a single process
// running in non-root ring 0.
type Runtime struct {
	e      *engine.Engine
	C      cpu.Costs
	P      Params
	Host   *host.OS
	Engine IOEngine

	PT   *pagetable.Table
	TLBs *cpu.TLBSet
	vs   *vspace

	// pages is the lock-free hash table of all cached pages (§3.2);
	// per-operation costs are charged explicitly, with no lock queueing.
	pages map[pageKey]*Page
	dirty []*rbTree // per-core dirty trees, keyed by device order
	fl    *freelist
	lru   *lruApprox
	// framePool is the granted guest-physical memory.
	framePool  *mem.Allocator
	limitPages uint64
	gpaBase    uint64

	files  map[string]*fileState
	nextID uint64
	nextVA uint64
	// restoredWBErr holds crash-image writeback errors not yet claimed by an
	// open/create (consumed entries are deleted; see Config.RestoredWBErrors).
	restoredWBErr map[string]error
	recovered     bool

	// evictSel serializes victim selection only (never held across I/O).
	evictSel    *engine.Mutex
	evictStalls int
	// bg holds the per-NUMA-node background evictor daemons (nil unless
	// Params.AsyncEvict); lowWater/highWater are the reclaim watermarks in
	// pages, configured or derived from the cache size.
	bg        []*bgEvictor
	lowWater  int
	highWater int
	// stallCtr is the "aquila_evict_stall" metric.
	stallCtr *obs.Counter
	// mmMask tracks CPUs that have faulted in this address space; batched
	// shootdowns target only these.
	mmMask []bool

	// Victims and Readahead are the customization hooks. Prefer, when
	// set, biases the default LRU victim selection toward pages it
	// returns true for (scan resistance, file priorities, ...).
	Victims   VictimPolicy
	Readahead ReadaheadPolicy
	Prefer    func(*Page) bool

	// Break attributes fault-path cycles to components (Figs 7, 8). It is
	// interned in Reg as "aquila_fault_cycles".
	Break *obs.Breakdown
	// Reg is the metrics registry (never nil; private unless configured).
	Reg   *obs.Registry
	Stats Stats
}

// NewRuntime boots Aquila: enters non-root ring 0 (Dune-style), obtains the
// initial DRAM cache grant from the hypervisor and initializes all
// common-path structures. hostOS provides the hypervisor and, for the DAX
// and HOST-* engines, the backing filesystem.
func NewRuntime(p *engine.Proc, hostOS *host.OS, eng IOEngine, cfg Config) *Runtime {
	if cfg.MaxCacheBytes < cfg.CacheBytes {
		cfg.MaxCacheBytes = cfg.CacheBytes
	}
	params := DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	var labels []obs.Label
	if cfg.Label != "" {
		labels = append(labels, obs.L("world", cfg.Label))
	}
	rt := &Runtime{
		e:        hostOS.E,
		C:        cpu.Default(),
		P:        params,
		Host:     hostOS,
		Engine:   eng,
		PT:       pagetable.New(2),
		TLBs:     cpu.NewTLBSet(hostOS.E.NumCPUs(), 1536, 41),
		vs:       &vspace{},
		pages:    make(map[pageKey]*Page),
		files:    make(map[string]*fileState),
		nextVA:   0x6000_0000_0000,
		gpaBase:  16 << 30,
		evictSel: engine.NewMutex(hostOS.E, "aquila_evict_select"),
		Break:    reg.Breakdown("aquila_fault_cycles", labels...),
		Reg:      reg,
	}
	rt.recovered = cfg.Recovered
	if len(cfg.RestoredWBErrors) > 0 {
		rt.restoredWBErr = make(map[string]error, len(cfg.RestoredWBErrors))
		//aqlint:sorted -- host-side map copy, no simulated state
		for name, err := range cfg.RestoredWBErrors {
			rt.restoredWBErr[name] = err
		}
	}
	rt.stallCtr = reg.Counter("aquila_evict_stall", labels...)
	if rt.hugeEnabled() {
		// The huge path needs physically contiguous 2 MB blocks: grant the
		// guest-physical pool as a per-node buddy system, and size the split
		// 2 MB dTLB arrays. Disabled mode keeps the classic allocator so the
		// 4 KB-only runtime stays bit-identical.
		rt.framePool = mem.NewBuddyAllocator(cfg.MaxCacheBytes, hostOS.E.NumNUMANodes())
		rt.TLBs.SetCapacity2M(params.HugeTLBEntries)
	} else {
		rt.framePool = mem.NewAllocator(cfg.MaxCacheBytes, hostOS.E.NumNUMANodes())
	}
	rt.fl = newFreelist(rt)
	rt.lru = newLRU(rt)
	rt.dirty = make([]*rbTree, hostOS.E.NumCPUs())
	for i := range rt.dirty {
		rt.dirty[i] = &rbTree{}
	}
	rt.Victims = rt.lru.selectVictims
	rt.Readahead = rt.defaultReadahead
	rt.mmMask = make([]bool, hostOS.E.NumCPUs())

	// Entering Aquila: one vmcall to set up VMCS/EPT state (Dune enter).
	hostOS.HV.VMCall(p, params.DuneEnter)
	rt.grow(p, cfg.CacheBytes)
	if params.AsyncEvict {
		rt.startEvictors(p)
	}
	return rt
}

// CacheLimitPages returns the current cache size in pages.
func (rt *Runtime) CacheLimitPages() uint64 { return rt.limitPages }

// ResidentPages returns the number of cached base pages (a 2 MB unit counts
// its 512 frames).
func (rt *Runtime) ResidentPages() int {
	n := 0
	//aqlint:sorted -- order-independent sum; pages() reads one bool, no simulated state
	for _, pg := range rt.pages {
		n += pg.pages()
	}
	return n
}

// FreePages returns the free-list population.
func (rt *Runtime) FreePages() int { return rt.fl.Free() }

// charge advances p by cyc system cycles and attributes them to a breakdown
// category.
func (rt *Runtime) charge(p *engine.Proc, cat string, cyc uint64) {
	p.AdvanceSystem(cyc)
	rt.Break.Add(cat, cyc)
}

// grow grants more DRAM from the hypervisor in 1 GB units (§3.5) and feeds
// the freelist.
func (rt *Runtime) grow(p *engine.Proc, bytes uint64) {
	const gig = 1 << 30
	granted := (bytes + gig - 1) / gig * gig
	wantPages := bytes / pageSize
	if rt.limitPages+wantPages > rt.framePool.Capacity() {
		wantPages = rt.framePool.Capacity() - rt.limitPages
	}
	rt.Host.HV.GrantRegion(p, rt.gpaBase, granted)
	rt.gpaBase += granted
	var frames []*mem.Frame
	var blocks [][]*mem.Frame
	perNode := int(wantPages) / rt.e.NumNUMANodes()
	for n := 0; n < rt.e.NumNUMANodes(); n++ {
		want := perNode
		if n == 0 {
			want = int(wantPages) - perNode*(rt.e.NumNUMANodes()-1)
		}
		if rt.hugeEnabled() && !rt.P.SingleQueueFreelist {
			// Carve contiguous 2 MB blocks into the huge tier first; the
			// remainder fills the base queues. pop() splits blocks back into
			// singles on demand (fall-back demotion), so no memory strands.
			for want >= hugePages {
				blk := rt.framePool.AllocBlock(n)
				if blk == nil {
					break
				}
				blocks = append(blocks, blk)
				want -= hugePages
			}
		}
		frames = append(frames, rt.framePool.AllocN(n, want)...)
	}
	rt.fl.fill(frames)
	rt.fl.fillHuge(blocks)
	rt.limitPages += uint64(len(frames)) + uint64(len(blocks))*hugePages
	if rt.bg != nil {
		rt.setWatermarks()
	}
}

// ResizeCache dynamically grows or shrinks the DRAM cache (§3.5). Shrinking
// evicts down to the new size and returns memory to the hypervisor.
func (rt *Runtime) ResizeCache(p *engine.Proc, newBytes uint64) {
	newPages := newBytes / pageSize
	if newPages > rt.limitPages {
		rt.grow(p, (newPages-rt.limitPages)*pageSize)
		return
	}
	toRemove := int(rt.limitPages - newPages)
	for rt.fl.Free() < toRemove {
		if err := rt.evict(p); err != nil {
			// Shrinking below the live working set is a caller bug, not a
			// transient condition a resize can wait out.
			panic(err)
		}
	}
	const gig = 1 << 30
	frames := rt.fl.drain(toRemove)
	for _, f := range frames {
		rt.framePool.Release(f)
	}
	rt.limitPages -= uint64(len(frames))
	reclaim := uint64(len(frames)) * pageSize / gig * gig
	if reclaim > 0 {
		rt.gpaBase -= reclaim
		rt.Host.HV.ReclaimRegion(p, rt.gpaBase, reclaim)
	}
	if rt.bg != nil {
		rt.setWatermarks()
	}
}

// CreateFile creates a file through the configured I/O engine.
func (rt *Runtime) CreateFile(p *engine.Proc, name string, size uint64) *fileState {
	if _, ok := rt.files[name]; ok {
		panic(fmt.Sprintf("core: create of existing file %q", name))
	}
	rt.nextID++
	f := &fileState{id: rt.nextID, name: name, size: size}
	f.backing = rt.Engine.Create(p, name, size)
	rt.files[name] = f
	rt.restoreWBErr(f)
	return f
}

// restoreWBErr seeds a freshly opened file's error sequence from the crash
// image (Config.RestoredWBErrors): the error enters unseen at sequence 1, so
// cursors sampled from here start at 0 and the first Msync/Fsync in the
// recovered incarnation reports it — once.
func (rt *Runtime) restoreWBErr(f *fileState) {
	err, ok := rt.restoredWBErr[f.name]
	if !ok {
		return
	}
	delete(rt.restoredWBErr, f.name)
	f.wbErr = errseq{err: err, seq: 1}
	rt.Stats.RestoredWBErrors++
}

// FileExists reports whether a name resolves, in this runtime or in the
// engine's backing namespace.
func (rt *Runtime) FileExists(name string) bool {
	if _, ok := rt.files[name]; ok {
		return true
	}
	switch e := rt.Engine.(type) {
	case *DAXEngine:
		return e.OS.FS.Exists(name)
	case *HostEngine:
		return e.OS.FS.Exists(name)
	case *SPDKEngine:
		return e.FM.Exists(name)
	}
	return false
}

// OpenFile opens an existing file.
func (rt *Runtime) OpenFile(p *engine.Proc, name string) *fileState {
	if f, ok := rt.files[name]; ok {
		f.size = backingSize(f.backing)
		return f
	}
	backing, size := rt.Engine.Open(p, name)
	rt.nextID++
	f := &fileState{id: rt.nextID, name: name, size: size, backing: backing}
	rt.files[name] = f
	rt.restoreWBErr(f)
	if rt.recovered {
		rt.Stats.RecoveredFiles++
	}
	return f
}

// DeleteFile removes a file: its cached pages are dropped (frames recycled),
// its dirty entries discarded, and the backing object released.
func (rt *Runtime) DeleteFile(p *engine.Proc, name string) {
	f, ok := rt.files[name]
	if !ok {
		rt.Engine.Delete(p, name)
		return
	}
	// Drop cached pages in key order: the waits below advance the clock and
	// the later freelist pushes recycle frames in drop order, so iterating
	// the hash directly would leak map randomization into the simulation.
	// Pages under I/O wait their owners; mapped pages must have been
	// unmapped by Munmap already.
	var drop []*Page
	for _, key := range detutil.SortedKeysFunc(rt.pages, pageKeyLess) {
		pg := rt.pages[key]
		if key.fid != f.id {
			continue
		}
		for pg.io != nil && !pg.io.Fired() {
			pg.io.Wait(p)
		}
		drop = append(drop, pg)
	}
	for _, pg := range drop {
		if len(pg.vas) > 0 {
			panic(fmt.Sprintf("core: delete of %q with live mappings", name))
		}
		if pg.dirty {
			rt.dirty[pg.dirtyCore].Delete(dirtyKey(pg))
			pg.dirty = false
		}
		pg.resident = false
		rt.cacheRemove(pg)
		rt.charge(p, "cache-lookup", rt.P.HashRemove)
		if pg.huge {
			rt.fl.pushHuge(p, pg.frames)
			pg.frames, pg.frame = nil, nil
		} else if pg.frame != nil {
			rt.fl.push(p, pg.frame)
			pg.frame = nil
		}
	}
	delete(rt.files, name)
	rt.Engine.Delete(p, name)
}

// Mmap maps the first size bytes of f. Virtual address range updates are the
// uncommon-path operation ④: they interact with root ring 0 via vmcall.
func (rt *Runtime) Mmap(p *engine.Proc, f *fileState, size uint64) *AqMapping {
	rt.Host.HV.VMCall(p, rt.P.VspaceVMCall)
	pages := (size + pageSize - 1) / pageSize
	start := rt.nextVA
	if rt.hugeEnabled() {
		// 2 MB-align region bases so every 2 MB file extent lands on a huge-
		// page-capable VA boundary.
		start = (start + hugeBytes - 1) &^ uint64(hugeBytes-1)
	}
	rt.nextVA = start + (pages+16)*pageSize
	r := &Region{Start: start, End: start + pages*pageSize, File: f}
	rt.vs.Insert(r)
	rt.charge(p, "vspace", 4*rt.P.RadixLookup)
	// Sample the error sequence at map time: earlier errors belong to
	// earlier callers.
	return &AqMapping{rt: rt, r: r, size: size, errCursor: f.wbErr.sample()}
}

// munmapRegion tears a region down: vmcall, radix removal, batched unmap +
// shootdown, and write-back of the file's dirty pages.
func (rt *Runtime) munmapRegion(p *engine.Proc, r *Region) {
	rt.Host.HV.VMCall(p, rt.P.VspaceVMCall)
	if unmapped := rt.unmapSpan(p, r, r.Start, r.End); unmapped > 0 {
		rt.shootdown(p)
	}
	rt.vs.Remove(r)
	rt.charge(p, "vspace", 4*rt.P.RadixLookup)
	rt.msyncFile(p, r.File)
}

// unmapSpan removes every PTE covering region r's VAs in [lo, hi), stepping
// by the mapped page size (a huge entry costs one PTE update and one
// reverse-map fix for the whole extent) and maintaining the rmap bookkeeping.
// A huge extent straddling a boundary must have been split by the caller.
func (rt *Runtime) unmapSpan(p *engine.Proc, r *Region, lo, hi uint64) int {
	unmapped := 0
	for va := lo; va < hi; {
		step := uint64(pageSize)
		if e, ok := rt.PT.Lookup(va); ok {
			rt.PT.Unmap(va)
			rt.charge(p, "unmap", rt.C.PTEUpdate)
			unmapped++
			idx := (va - r.Start) / pageSize
			if pg := rt.lookupPage(r.File.id, idx); pg != nil {
				removeVAFrom(pg, va)
			}
			if e.PageSize == pagetable.Size2M {
				step = pagetable.Size2M
			}
		}
		va += step
	}
	return unmapped
}

func removeVAFrom(pg *Page, va uint64) {
	for i, x := range pg.vas {
		if x == va {
			pg.vas = append(pg.vas[:i], pg.vas[i+1:]...)
			return
		}
	}
}

// resolve returns the frame currently backing va with the required
// permission, re-validating the translation after each access attempt: a
// concurrent eviction between the fault path returning and the caller's
// copy may have recycled the frame. The only possible error is
// ErrEvictionStalled, propagated up from a starved allocation.
func (rt *Runtime) resolve(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	for {
		frame, err := rt.access(p, va, write)
		if err != nil {
			return nil, err
		}
		if e, ok := rt.PT.Lookup(va); ok && entryFrameID(e, va) == frame.ID &&
			(!write || e.Flags.Has(pagetable.FlagWritable)) {
			return frame, nil
		}
	}
}

// access resolves a virtual address: TLB hit (free), TLB refill (2-D walk
// under virtualization), or the ring-0 fault path.
func (rt *Runtime) access(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	vpn := va >> mem.PageShift
	tlb := rt.TLBs.CPU(p.CPU())
	asid := rt.PT.ASID()
	if tlb.LookupVA(asid, va) {
		if e, ok := rt.PT.Lookup(va); ok {
			if !write || e.Flags.Has(pagetable.FlagWritable) {
				return rt.framePool.Frame(entryFrameID(e, va)), nil
			}
			return rt.wpFault(p, va)
		}
		tlb.InvalidatePage(asid, vpn)
		tlb.Invalidate2M(asid, va>>21)
	}
	if e, ok := rt.PT.Lookup(va); ok {
		// TLB refill: guest-PT x EPT two-dimensional walk. A 2 MB leaf ends
		// the walk one level early and fills the split 2 MB array.
		if e.PageSize == pagetable.Size2M {
			p.AdvanceUser(rt.C.TLBRefill2M + rt.C.EPTWalkExtra)
			tlb.Insert2M(asid, va>>21)
		} else {
			p.AdvanceUser(rt.C.TLBRefill + rt.C.EPTWalkExtra)
			tlb.Insert(asid, vpn)
		}
		if !write || e.Flags.Has(pagetable.FlagWritable) {
			return rt.framePool.Frame(entryFrameID(e, va)), nil
		}
		return rt.wpFault(p, va)
	}
	return rt.fault(p, va, write)
}

// wpFault handles the first store to a read-only-mapped page: a ring-0
// exception that only marks the page dirty (§3.2 dirty tracking).
func (rt *Runtime) wpFault(p *engine.Proc, va uint64) (*mem.Frame, error) {
	p.BeginSpan("aq.wp_fault")
	defer p.EndSpan()
	va &^= uint64(pageSize - 1)
	rt.mmMask[p.CPU()] = true
	rt.Stats.WPFaults++
	p.SpanEvent("fault.wp", 1)
	rt.charge(p, "exception", rt.C.ExceptionRing0+rt.P.ExceptionEntry)
	rt.charge(p, "vspace", rt.P.RadixLookup)
	r := rt.vs.Find(va)
	if r == nil {
		panic(&SigSegv{VA: va, Reason: "wp fault outside mapping"})
	}
	idx := (va - r.Start) / pageSize
	rt.charge(p, "cache-lookup", rt.P.HashLookup)
	pg := rt.lookupPage(r.File.id, idx)
	if pg == nil || (pg.io != nil && !pg.io.Fired()) {
		return rt.fault(p, va, true) // raced with eviction
	}
	if pg.huge {
		return rt.hugeWP(p, r, pg, va)
	}
	pg.pins++
	defer func() { pg.pins-- }()
	rt.markDirty(p, pg)
	rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagWritable|pagetable.FlagAccessed|pagetable.FlagDirty)
	rt.charge(p, "map-pte", rt.C.PTEUpdate+rt.C.TLBInvalidatePage)
	tlb := rt.TLBs.CPU(p.CPU())
	tlb.InvalidatePage(rt.PT.ASID(), va>>mem.PageShift)
	tlb.Insert(rt.PT.ASID(), va>>mem.PageShift)
	return rt.framePool.Frame(pg.frame.ID), nil
}

// markDirty inserts a page into the calling core's dirty red-black tree,
// keyed by device order for write-back merging.
func (rt *Runtime) markDirty(p *engine.Proc, pg *Page) {
	if pg.dirty {
		return
	}
	pg.dirty = true
	pg.dirtyCore = p.CPU()
	rt.dirty[p.CPU()].Insert(dirtyKey(pg), pg)
	rt.charge(p, "dirty-track", rt.P.DirtyTreeOp)
}

func dirtyKey(pg *Page) uint64 { return pg.file.id<<40 | pg.idx }

// defaultReadahead honors madvise hints: sequential and willneed regions
// read ahead, everything else reads exactly the faulting page. This is the
// deliberate contrast to the kernel's always-on read-around (§6.1).
func (rt *Runtime) defaultReadahead(r *Region, idx uint64) int {
	switch r.Advice {
	case iface.AdviceSequential, iface.AdviceWillNeed:
		return rt.P.ReadAheadPages - 1
	default:
		return 0
	}
}

// fault is Aquila's page-fault handler: a ring-0 exception, a lock-free
// lookup, and — on a miss — allocation (with batched eviction, synchronous
// or delegated to the background evictor), device I/O through the configured
// engine, and PTE installation.
func (rt *Runtime) fault(p *engine.Proc, va uint64, write bool) (*mem.Frame, error) {
	p.BeginSpan("aq.fault")
	defer p.EndSpan()
	va &^= uint64(pageSize - 1)
	rt.mmMask[p.CPU()] = true
	rt.charge(p, "exception", rt.C.ExceptionRing0+rt.P.ExceptionEntry)
	rt.charge(p, "vspace", rt.P.RadixLookup+rt.P.EntryLock)
	r := rt.vs.Find(va)
	if r == nil {
		panic(&SigSegv{VA: va, Reason: "page fault outside mapping"})
	}
	f := r.File
	idx := (va - r.Start) / pageSize

	var pg *Page
	promoteTried := false
	for {
		rt.charge(p, "cache-lookup", rt.P.HashLookup)
		if existing := rt.lookupPage(f.id, idx); existing != nil {
			if existing.io != nil && !existing.io.Fired() {
				existing.io.Wait(p)
				continue // re-check: may have been evicted meanwhile
			}
			pg = existing
			rt.Stats.MinorFaults++
			p.SpanEvent("fault.minor", 1)
			// Pin across the LRU-record charge: it yields, and an evictor or
			// a concurrent promotion claiming this page must see it busy
			// rather than recycle its frame under us.
			pg.pins++
			rt.lru.record(p, pg)
			pg.pins--
			break
		}
		if !promoteTried && rt.shouldPromote(r, f, idx) {
			promoteTried = true
			hp, herr := rt.hugeFault(p, r, f, idx)
			if herr != nil {
				return nil, herr
			}
			if hp != nil {
				pg = hp
				break
			}
			// Promotion aborted (no contiguous block, extent busy, writeback
			// failure): fall back to the 4 KB path, at most one attempt per
			// fault. The attempt yielded, so re-probe from the top.
			continue
		}
		var err error
		if pg, err = rt.majorFault(p, r, f, idx); err != nil {
			return nil, err
		}
		break
	}
	if pg.huge {
		return rt.hugeMap(p, r, pg, va, write)
	}
	if pg.poison != nil {
		// The page's backing I/O failed permanently: deliver the recorded
		// fault instead of mapping garbage. Mappings turn it into SIGBUS.
		return nil, pg.poison
	}
	// Pin across PTE installation: the remaining handler work yields, and
	// eviction recycling this frame mid-fault would map a stale frame.
	pg.pins++
	defer func() { pg.pins-- }()

	flags := pagetable.FlagUser | pagetable.FlagAccessed
	if write {
		flags |= pagetable.FlagWritable | pagetable.FlagDirty
		rt.markDirty(p, pg)
	}
	if _, mapped := rt.PT.Lookup(va); !mapped {
		rt.PT.Map(va, pg.frame.ID, flags, pagetable.Size4K)
		pg.vas = append(pg.vas, va)
	} else {
		rt.PT.Protect(va, flags)
	}
	rt.charge(p, "map-pte", rt.C.PTEUpdate)
	rt.TLBs.CPU(p.CPU()).Insert(rt.PT.ASID(), va>>mem.PageShift)
	rt.charge(p, "accounting", rt.P.FaultAccounting)
	return rt.framePool.Frame(pg.frame.ID), nil
}

// majorFault claims (f, idx) plus any readahead window, reads the owned
// pages through the I/O engine and returns the target page.
func (rt *Runtime) majorFault(p *engine.Proc, r *Region, f *fileState, idx uint64) (*Page, error) {
	p.BeginSpan("aq.major_fault")
	defer p.EndSpan()
	rt.Stats.MajorFaults++
	p.SpanEvent("fault.major", 1)
	filePages := (f.size + pageSize - 1) / pageSize
	if filePages == 0 {
		filePages = r.Pages()
	}
	hi := idx + 1 + uint64(rt.Readahead(r, idx))
	if hi > filePages {
		hi = filePages
	}
	if hi <= idx {
		hi = idx + 1
	}
	var mine []*Page
	var target *Page
	var allocErr error
	for i := idx; i < hi; i++ {
		if existing := rt.lookupPage(f.id, i); existing != nil {
			if i == idx {
				target = existing
			}
			continue
		}
		pg := &Page{
			file: f, idx: i, resident: true,
			io: engine.NewEvent(rt.e, fmt.Sprintf("aqio:%s:%d", f.name, i)),
		}
		rt.charge(p, "cache-insert", rt.P.HashInsert)
		// The insert charge yields; a concurrent fault on the same page, or
		// a promotion claiming this extent, may have published it meanwhile.
		// Re-probe before publishing so one file page never has two Pages
		// (a store into the one the hash dropped would be lost) and a 4 KB
		// entry never appears inside a live huge unit.
		if raced := rt.lookupPage(f.id, i); raced != nil {
			if i == idx {
				target = raced
			}
			continue
		}
		rt.cacheInsert(pg)
		fr, err := rt.allocFrame(p)
		if err != nil {
			// Unwind this page's claim: it was published but never read.
			// Waiters re-probe on the fired event, miss, and fault it in
			// themselves (taking the same stall error if it persists).
			rt.cacheRemove(pg)
			pg.resident = false
			pg.io.Fire(p.Now())
			pg.io = nil
			allocErr = err
			break
		}
		pg.frame = fr
		if i == idx {
			target = pg
		} else {
			rt.Stats.ReadaheadPages++
		}
		mine = append(mine, pg)
		rt.lru.record(p, pg)
	}
	// Read owned pages in contiguous runs.
	for i := 0; i < len(mine); {
		j := i + 1
		for j < len(mine) && mine[j].idx == mine[j-1].idx+1 {
			j++
		}
		run := mine[i:j]
		frames := make([]*mem.Frame, len(run))
		for k, pg := range run {
			frames[k] = pg.frame
		}
		if rerr := rt.readRun(p, f, run[0].idx, frames); rerr != nil {
			// The merged read failed after retries: re-issue page by page so
			// one bad LBA poisons only its own page, not the whole window.
			rt.isolateReadRun(p, run)
		}
		i = j
	}
	doneAt := p.Now()
	for _, pg := range mine {
		pg.io.Fire(doneAt)
		pg.io = nil
	}
	if allocErr != nil {
		return nil, allocErr
	}
	if target.io != nil && !target.io.Fired() {
		target.io.Wait(p)
		// The page may have been evicted while we waited; retry path.
		if !target.resident {
			return rt.majorFault(p, r, f, idx)
		}
	}
	return target, nil
}

// entryFrameID returns the frame backing va under PTE e: for a 2 MB leaf the
// base frame plus the 4 KB offset within the extent (the unit's frames are
// physically contiguous, so frame IDs are consecutive).
func entryFrameID(e pagetable.Entry, va uint64) uint64 {
	if e.PageSize == pagetable.Size2M {
		return e.Frame + ((va >> mem.PageShift) & (hugePages - 1))
	}
	return e.Frame
}

// allocFrame pops a frame from the freelist. With the background evictor
// disabled it reclaims synchronously in batches when every queue is empty
// (§3.2). With AsyncEvict the allocation instead kicks the evictor daemons
// and gives them a bounded head start (throttled waits), falling back to
// synchronous direct reclaim only when the freelist is still empty and the
// evictor is behind.
func (rt *Runtime) allocFrame(p *engine.Proc) (*mem.Frame, error) {
	var throttled uint64
	for {
		if fr := rt.fl.pop(p); fr != nil {
			rt.kickEvictors(p)
			return fr, nil
		}
		if rt.bg != nil {
			rt.wakeEvictors(p)
			if rt.evictorActive() && throttled < rt.stallBudget() {
				rt.Stats.EvictStalls++
				rt.stallCtr.Inc()
				p.WaitUntil(p.Now()+evictThrottleQuantum, engine.KindIOWait)
				throttled += evictThrottleQuantum
				continue
			}
		}
		// Inline reclaim on the allocation path — the direct-reclaim share
		// of the transition-cost surface, profiled separately from the
		// background daemons' aq.bg_evict.
		p.BeginSpan("aq.direct_reclaim")
		err := rt.evict(p)
		p.EndSpan()
		if err != nil {
			// Frames parked on other cores' private queues are invisible
			// to pop; steal one before reporting starvation.
			if fr := rt.fl.steal(p); fr != nil {
				return fr, nil
			}
			return nil, err
		}
	}
}

// stallBudget returns the throttled-wait cycle budget.
func (rt *Runtime) stallBudget() uint64 {
	if rt.P.EvictStallBudget > 0 {
		return rt.P.EvictStallBudget
	}
	return defaultEvictStallBudget
}

// evictStall handles a selection round that found every candidate busy: free
// yields up to the historical threshold, then throttled waits consuming the
// stall budget, then ErrEvictionStalled.
func (rt *Runtime) evictStall(p *engine.Proc) error {
	rt.evictStalls++
	rt.Stats.EvictStalls++
	rt.stallCtr.Inc()
	if rt.evictStalls <= evictStallYields {
		p.Yield()
		return nil
	}
	waited := uint64(rt.evictStalls-evictStallYields) * evictStallQuantum
	if waited <= rt.stallBudget() {
		p.WaitUntil(p.Now()+evictStallQuantum, engine.KindIOWait)
		return nil
	}
	return ErrEvictionStalled
}

// evict synchronously selects a batch of victims (short critical section),
// unmaps them with one batched TLB shootdown, writes dirty ones back in
// device order with merged I/Os, and recycles the frames. It returns
// ErrEvictionStalled only after the throttled-wait budget expires with every
// candidate busy.
func (rt *Runtime) evict(p *engine.Proc) error {
	p.BeginSpan("aq.evict")
	defer p.EndSpan()
	t0 := p.Now()
	rt.evictSel.Lock(p)
	victims := rt.Victims(p, rt.P.EvictBatch)
	rt.evictSel.Unlock(p)
	// Per-victim selection cost (lock-free CAS pops + hash removal),
	// charged outside the selection section: it does not serialize.
	rt.charge(p, "evict-select", rt.P.HashRemove*uint64(len(victims)))
	if len(victims) == 0 {
		return rt.evictStall(p)
	}
	rt.evictStalls = 0
	unmapped := 0
	for _, v := range victims {
		for _, va := range v.vas {
			if rt.PT.Unmap(va) {
				rt.charge(p, "unmap", rt.C.PTEUpdate)
				unmapped++
			}
		}
		v.vas = nil
	}
	if unmapped > 0 {
		rt.shootdown(p)
	}
	var dirtyV []*Page
	for _, v := range victims {
		if v.dirty {
			// Flag and tree entry change together, before the charge below can
			// yield: a crash must never observe a dirty page missing from its
			// tree (CheckCrashInvariants).
			rt.dirty[v.dirtyCore].Delete(dirtyKey(v))
			v.dirty = false
			rt.charge(p, "dirty-track", rt.P.DirtyTreeOp)
			dirtyV = append(dirtyV, v)
		}
	}
	rt.writeSorted(p, dirtyV, true)
	doneAt := p.Now()
	recycled := 0
	for _, v := range victims {
		v.io.Fire(doneAt)
		v.io = nil
		if v.quarantined || v.dirty {
			// Writeback failed: the page was revived (quarantined or
			// requeued) and keeps its frame; waiters re-probe and find it.
			continue
		}
		rt.cacheRemove(v)
		if v.huge {
			rt.fl.pushHuge(p, v.frames)
			v.frames, v.frame = nil, nil
			rt.Stats.HugeEvictions++
			recycled += hugePages
		} else {
			rt.fl.push(p, v.frame)
			v.frame = nil
			recycled++
		}
	}
	rt.Stats.Evictions += uint64(recycled)
	rt.Stats.DirectReclaimPages += uint64(recycled)
	p.SpanEvent("evict.pages", uint64(recycled))
	if rt.P.AsyncEvict {
		// Summary wall-clock category for the sync-fallback share of
		// reclaim; the fine-grained categories above still hold the parts.
		// Only recorded in async mode so sync-mode output stays identical.
		rt.Break.Add("direct_reclaim", p.Now()-t0)
	}
	return nil
}

// shootdown performs Aquila's batched TLB invalidation (§4.1): one
// rate-limited (vmexit) send covering the whole batch, posted IPIs to every
// other core, vmexit-less receive.
func (rt *Runtime) shootdown(p *engine.Proc) {
	p.BeginSpan("aq.shootdown")
	defer p.EndSpan()
	rt.Stats.ShootdownBatches++
	p.SpanEvent("shootdown", 1)
	targets := make([]int, 0, rt.e.NumCPUs())
	for c := 0; c < rt.e.NumCPUs(); c++ {
		if rt.mmMask[c] {
			targets = append(targets, c)
		}
	}
	t0 := p.Now()
	rt.Host.HV.SendShootdownIPIs(p, targets, rt.C.IPIReceive+rt.C.TLBFlushAll)
	for _, c := range targets {
		rt.TLBs.CPU(c).FlushAll()
	}
	p.AdvanceSystem(rt.C.TLBFlushAll)
	rt.Break.Add("tlb-shootdown", p.Now()-t0)
}

// writeSorted writes dirty pages in device-offset order, merging adjacent
// pages into large I/Os (§3.2 write-back). evicting tells the failure path
// whether the pages were claimed by eviction (and must be revived on
// failure) or are still live msync targets. The first final write failure is
// returned; all failures are also recorded in the files' error sequences.
func (rt *Runtime) writeSorted(p *engine.Proc, pages []*Page, evicting bool) error {
	if len(pages) == 0 {
		return nil
	}
	sort.Slice(pages, func(i, j int) bool { return dirtyKey(pages[i]) < dirtyKey(pages[j]) })
	// Write-protect live mappings (page_mkclean) so post-writeback stores
	// take a wp fault and re-dirty the page.
	protected := 0
	for _, pg := range pages {
		for _, va := range pg.vas {
			if rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed) {
				rt.charge(p, "writeback", rt.C.PTEUpdate)
				protected++
			}
		}
	}
	if protected > 0 {
		rt.shootdown(p)
	}
	var firstErr error
	i := 0
	for i < len(pages) {
		if pages[i].huge {
			// A unit writes back as its own merged 2 MB run, never split or
			// capped: the frames are contiguous by construction.
			if err := rt.writeRunOrRecover(p, "aq.writeback", pages[i:i+1], pages[i].frames, evicting); err != nil && firstErr == nil {
				firstErr = err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(pages) && j-i < rt.P.WritebackMaxRun && !pages[j].huge &&
			pages[j].file == pages[i].file && pages[j].idx == pages[j-1].idx+1 {
			j++
		}
		run := pages[i:j]
		frames := make([]*mem.Frame, len(run))
		for k, pg := range run {
			frames[k] = pg.frame
		}
		if err := rt.writeRunOrRecover(p, "aq.writeback", run, frames, evicting); err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	return firstErr
}

// writeSortedUnsafe is the deliberately broken msync write-back used to
// validate the crash oracle (Params.UnsafeMsyncAtSubmit): runs are submitted
// through the engine's asynchronous path and the caller returns at submission,
// not at the durability point. A crash landing between submission and the
// device completion silently discards the acknowledged data from the volatile
// tier — exactly the failure class the ablate-crash oracle must flag. Engines
// without an asynchronous path fall back to the correct synchronous write.
func (rt *Runtime) writeSortedUnsafe(p *engine.Proc, pages []*Page) {
	aw, _ := rt.Engine.(AsyncWriter)
	if aw == nil {
		rt.writeSorted(p, pages, false)
		return
	}
	if len(pages) == 0 {
		return
	}
	sort.Slice(pages, func(i, j int) bool { return dirtyKey(pages[i]) < dirtyKey(pages[j]) })
	protected := 0
	for _, pg := range pages {
		for _, va := range pg.vas {
			if rt.PT.Protect(va, pagetable.FlagUser|pagetable.FlagAccessed) {
				rt.charge(p, "writeback", rt.C.PTEUpdate)
				protected++
			}
		}
	}
	if protected > 0 {
		rt.shootdown(p)
	}
	i := 0
	for i < len(pages) {
		var run []*Page
		var frames []*mem.Frame
		if pages[i].huge {
			run = pages[i : i+1]
			frames = pages[i].frames
		} else {
			j := i + 1
			for j < len(pages) && j-i < rt.P.WritebackMaxRun && !pages[j].huge &&
				pages[j].file == pages[i].file && pages[j].idx == pages[j-1].idx+1 {
				j++
			}
			run = pages[i:j]
			frames = make([]*mem.Frame, len(run))
			for k, pg := range run {
				frames[k] = pg.frame
			}
		}
		i += len(run)
		t0 := p.Now()
		p.BeginSpan("aq.writeback")
		_, err := aw.SubmitWriteRun(p, run[0].file, run[0].idx, frames)
		p.EndSpan()
		rt.Break.Add("writeback", p.Now()-t0)
		if err != nil {
			// Submission rejected: nothing queued, recover synchronously. The
			// bug under test is the missing drain, not error handling.
			rt.writeRunOrRecover(p, "aq.writeback", run, frames, false)
			continue
		}
		rt.Stats.WrittenBack += uint64(len(frames))
		p.SpanEvent("writeback.pages", uint64(len(frames)))
	}
}

// retryLimit / retryBackoff derive the transient-retry policy (defaults for
// zero-valued Params, so hand-built parameter sets keep working).
func (rt *Runtime) retryLimit() int {
	if rt.P.IORetryLimit > 0 {
		return rt.P.IORetryLimit
	}
	return 3
}

func (rt *Runtime) retryBackoff() uint64 {
	if rt.P.IORetryBackoff > 0 {
		return rt.P.IORetryBackoff
	}
	return 20000
}

// transientErr reports whether a device error is worth retrying in place.
func transientErr(err error) bool {
	var de *device.IOError
	return errors.As(err, &de) && de.Transient()
}

// ioRetryWait charges the linear backoff before retry attempt+1 as fully
// simulated I/O wait, so the degraded path stays cycle-accounted and
// deterministic.
func (rt *Runtime) ioRetryWait(p *engine.Proc, attempt int) {
	rt.Stats.IORetries++
	t0 := p.Now()
	p.BeginSpan("aq.io_retry")
	p.WaitUntil(p.Now()+rt.retryBackoff()*uint64(attempt+1), engine.KindIOWait)
	p.EndSpan()
	rt.Break.Add("io-retry", p.Now()-t0)
}

// readRun issues one merged fill read through the engine with the bounded
// transient-retry policy. A final failure is returned as a typed *IOFault
// carrying device/LBA context.
func (rt *Runtime) readRun(p *engine.Proc, f *fileState, pageIdx uint64, frames []*mem.Frame) *IOFault {
	for attempt := 0; ; attempt++ {
		t0 := p.Now()
		p.BeginSpan("aq.io")
		err := rt.Engine.ReadRun(p, f, pageIdx, frames)
		p.EndSpan()
		rt.Break.Add("device-io", p.Now()-t0)
		if err == nil {
			return nil
		}
		if !transientErr(err) || attempt >= rt.retryLimit() {
			return newIOFault("read", f.name, pageIdx, err)
		}
		rt.ioRetryWait(p, attempt)
	}
}

// writeRun is readRun's writeback twin; spanName distinguishes foreground
// ("aq.writeback") from background ("aq.bg_writeback") tracks.
func (rt *Runtime) writeRun(p *engine.Proc, spanName string, f *fileState, pageIdx uint64, frames []*mem.Frame) *IOFault {
	for attempt := 0; ; attempt++ {
		t0 := p.Now()
		p.BeginSpan(spanName)
		err := rt.Engine.WriteRun(p, f, pageIdx, frames)
		p.EndSpan()
		rt.Break.Add("writeback", p.Now()-t0)
		if err == nil {
			return nil
		}
		if !transientErr(err) || attempt >= rt.retryLimit() {
			return newIOFault("write", f.name, pageIdx, err)
		}
		rt.ioRetryWait(p, attempt)
	}
}

// isolateReadRun re-reads each page of a failed merged read individually,
// poisoning exactly the pages whose I/O keeps failing. Poisoned frames are
// zeroed: their content was never valid.
func (rt *Runtime) isolateReadRun(p *engine.Proc, run []*Page) {
	for _, pg := range run {
		if pe := rt.readRun(p, pg.file, pg.idx, []*mem.Frame{pg.frame}); pe != nil {
			rt.poison(pg, pe)
		}
	}
}

// poison marks a page permanently unreadable; every access delivers the
// recorded fault as SIGBUS. The page stays in the hash (re-faults fail fast
// without re-issuing doomed I/O) but remains evictable as clean.
func (rt *Runtime) poison(pg *Page, ferr *IOFault) {
	if pg.poison == nil {
		rt.Stats.PoisonedPages++
	}
	pg.poison = ferr
	if pg.frame != nil && pg.frame.HasData() {
		pg.frame.Reset()
	}
}

// writeRunOrRecover writes one merged run; on final failure it re-issues the
// run page by page so one bad LBA doesn't fail its siblings, then requeues
// (transient) or quarantines (permanent) exactly the failing pages, recording
// each final failure in the owning file's error sequence.
func (rt *Runtime) writeRunOrRecover(p *engine.Proc, spanName string, run []*Page, frames []*mem.Frame, evicting bool) error {
	ferr := rt.writeRun(p, spanName, run[0].file, run[0].idx, frames)
	if ferr == nil {
		rt.Stats.WrittenBack += uint64(len(frames))
		p.SpanEvent("writeback.pages", uint64(len(frames)))
		return nil
	}
	if len(run) == 1 {
		rt.failWritePage(p, run[0], ferr, evicting)
		return ferr
	}
	var firstErr error
	for k, pg := range run {
		pe := rt.writeRun(p, spanName, pg.file, pg.idx, frames[k:k+1])
		if pe == nil {
			rt.Stats.WrittenBack++
			p.SpanEvent("writeback.pages", 1)
			continue
		}
		if firstErr == nil {
			firstErr = pe
		}
		rt.failWritePage(p, pg, pe, evicting)
	}
	// firstErr nil here means the merged failure was transient and every page
	// succeeded in isolation: nothing was lost or left unwritten.
	return firstErr
}

// failWritePage handles one page whose writeback failed after retries: the
// error enters the file's errseq (each sync caller will see it once), and
// the page is either requeued for another pass (transient) or quarantined in
// DRAM (permanent) — never silently dropped.
func (rt *Runtime) failWritePage(p *engine.Proc, pg *Page, ferr *IOFault, evicting bool) {
	pg.file.wbErr.record(ferr)
	if ferr.Transient() {
		rt.requeueDirty(p, pg, evicting)
		return
	}
	rt.quarantine(pg, evicting)
}

// requeueDirty puts a transiently failed page back on the dirty list; if
// eviction had claimed it, the page is revived as resident so a later pass
// (or msync) retries the writeback.
func (rt *Runtime) requeueDirty(p *engine.Proc, pg *Page, evicting bool) {
	rt.Stats.RequeuedPages++
	rt.markDirty(p, pg)
	if evicting {
		pg.resident = true
		rt.lru.record(p, pg)
	}
}

// quarantine pins a permanently unwritable dirty page in DRAM: it keeps its
// frame, eviction never selects it again, and DeleteFile is the only way it
// leaves the cache. The in-memory copy is the only good one left.
func (rt *Runtime) quarantine(pg *Page, evicting bool) {
	if !pg.quarantined {
		pg.quarantined = true
		rt.Stats.QuarantinedPages++
	}
	if evicting {
		pg.resident = true
	}
}

// QuarantinedLive returns how many cached pages are currently quarantined
// (tests; Stats.QuarantinedPages counts quarantine events).
func (rt *Runtime) QuarantinedLive() int {
	n := 0
	for _, pg := range rt.pages {
		if pg.quarantined {
			n++
		}
	}
	return n
}

// PoisonedLive returns how many cached pages are currently poisoned (tests).
func (rt *Runtime) PoisonedLive() int {
	n := 0
	for _, pg := range rt.pages {
		if pg.poison != nil {
			n++
		}
	}
	return n
}

// msyncFile writes back all dirty pages of one file. Intercepted in ring 0:
// costs a function call, not a protection-domain switch (§4.4).
func (rt *Runtime) msyncFile(p *engine.Proc, f *fileState) {
	rt.msyncFileRange(p, f, 0, ^uint64(0))
}

// msyncFileRange writes back dirty pages of f overlapping [off, off+length).
func (rt *Runtime) msyncFileRange(p *engine.Proc, f *fileState, off, length uint64) {
	p.BeginSpan("aq.msync")
	defer p.EndSpan()
	p.SpanEvent("msync", 1)
	rt.charge(p, "msync", rt.P.MsyncEntry)
	lo := off / pageSize
	hi := uint64(^uint64(0))
	if length < ^uint64(0)-off {
		hi = (off + length + pageSize - 1) / pageSize
	}
	var dirtyPages []*Page
	for core := range rt.dirty {
		var pgs []*Page
		rt.dirty[core].Ascend(func(key uint64, pg *Page) bool {
			if pg.file == f && pg.idx+uint64(pg.pages()) > lo && pg.idx < hi {
				pgs = append(pgs, pg)
			}
			return true
		})
		taken := 0
		for _, pg := range pgs {
			// A page claimed by a concurrent eviction (unfired io) is
			// already on its way to the device: wait for that write-back
			// instead of racing it — the evictor recycles the frame once
			// its write completes, whether or not we still hold a
			// reference. If the page was revived dirty (transient-failure
			// requeue) fall through and take it ourselves.
			for pg.io != nil && !pg.io.Fired() {
				pg.io.Wait(p)
			}
			if !pg.dirty {
				continue // the evictor's write-back already made it durable
			}
			// Clear the flag with the tree entry, before any later yield: a
			// crash must never observe a dirty page missing from its tree
			// (CheckCrashInvariants). Pin the page for the duration of the
			// write-back — once off the dirty tree it reads as clean, and a
			// newly started eviction would otherwise free its frame before
			// the write reaches the device.
			rt.dirty[pg.dirtyCore].Delete(dirtyKey(pg))
			pg.dirty = false
			pg.pins++
			dirtyPages = append(dirtyPages, pg)
			taken++
		}
		if taken > 0 {
			rt.charge(p, "dirty-track", rt.P.DirtyTreeOp*uint64(taken))
		}
	}
	if rt.P.UnsafeMsyncAtSubmit {
		rt.writeSortedUnsafe(p, dirtyPages)
		for _, pg := range dirtyPages {
			pg.pins--
		}
		return
	}
	rt.writeSorted(p, dirtyPages, false)
	for _, pg := range dirtyPages {
		pg.pins--
	}
}

// DirtyPages returns the number of dirty pages across all cores (tests).
func (rt *Runtime) DirtyPages() int {
	n := 0
	for _, t := range rt.dirty {
		n += t.Len()
	}
	return n
}
