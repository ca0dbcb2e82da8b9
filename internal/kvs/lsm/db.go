package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"aquila/internal/iface"
	"aquila/internal/obs"
	"aquila/internal/sim/engine"
	"aquila/internal/ycsb"
)

// Costs model the store's user-space software overheads in cycles. They are
// calibrated so the paper's Figure 7 decomposition reproduces: with a
// user-space cache, RocksDB spends ~15.3 K cycles in get processing, ~32 K
// in cache lookups/evictions and ~13 K in miss syscalls per random read.
type Costs struct {
	MemtableHop       uint64 // per skiplist pointer hop
	MemtableBase      uint64 // per memtable probe/insert
	BloomCheck        uint64 // per table filter probe
	IndexSearch       uint64 // per table index binary search
	BlockEntry        uint64 // per record visited in a block scan
	BlockDecode       uint64 // per block checksum/decode
	GetFinish         uint64 // per-get residual (version lookup, stats, pinning)
	MmapBlockOverhead uint64 // extra per-block work in mmap mode (no prefetch, pinning)
	PutFinish         uint64 // per-put residual
	CacheLookup       uint64 // block-cache probe under shard lock
	CacheInsert       uint64 // block-cache insert (allocation, LRU, refcount)
	CacheEvict        uint64 // per evicted block
	WALAppend         uint64 // per WAL record, excluding the device write
	IterNext          uint64 // per merged-iterator step
}

// DefaultCosts returns the calibrated cost table.
func DefaultCosts() Costs {
	return Costs{
		MemtableHop:       35,
		MemtableBase:      900,
		BloomCheck:        450,
		IndexSearch:       900,
		BlockEntry:        220,
		BlockDecode:       1700,
		GetFinish:         8000,
		PutFinish:         2500,
		CacheLookup:       4500,
		CacheInsert:       20000,
		CacheEvict:        10000,
		MmapBlockOverhead: 2500,
		WALAppend:         1200,
		IterNext:          320,
	}
}

// IOMode selects how the store reaches its tables (§5).
type IOMode int

// The three RocksDB configurations the paper evaluates.
const (
	// IODirectCached: O_DIRECT reads with a user-space block cache — the
	// recommended RocksDB configuration ("read/write" in Fig 5).
	IODirectCached IOMode = iota
	// IOBuffered: buffered read/write through the kernel page cache.
	IOBuffered
	// IOMmap: tables are memory-mapped; reads are loads ("mmap"/Aquila).
	IOMmap
)

// Options configure a DB.
type Options struct {
	// NS is the world's namespace (Linux direct/buffered or Aquila).
	NS iface.Namespace
	// Mode selects the table read path.
	Mode IOMode
	// BlockCacheBytes sizes the user-space cache (IODirectCached only).
	BlockCacheBytes uint64
	// MemtableBytes flushes the memtable past this size (default 1 MB).
	MemtableBytes int
	// SSTTargetBytes bounds one table (default 8 MB; the paper's RocksDB
	// uses 64 MB — scaled with the datasets).
	SSTTargetBytes int
	// BlockBytes is the data-block size (default 4096).
	BlockBytes int
	// L0Trigger compacts L0 into L1 at this many tables (default 4).
	L0Trigger int
	// DisableWAL skips write-ahead logging.
	DisableWAL bool
	// WALBytes sizes the write-ahead log (default 64 MB). Filling it
	// forces a memtable flush.
	WALBytes uint64
	// Costs overrides the software cost table.
	Costs *Costs
	// Seed for the memtable skiplist.
	Seed int64
	// Registry receives the store's cycle breakdown (interned as
	// "lsm_cycles"). Nil keeps a private breakdown.
	Registry *obs.Registry
	// MetricsLabel distinguishes this store's series in a shared Registry.
	MetricsLabel string
}

// DB is the store.
type DB struct {
	opts  Options
	costs Costs
	e     *engine.Engine

	writeLock *engine.Mutex
	mem       *skiplist
	wal       iface.File
	walOff    uint64

	levels [][]*SST // levels[0] newest-first; levels[1..] sorted by smallest
	nextID uint64

	cache    *BlockCache
	manifest iface.File

	// Replayed counts WAL records recovered on reopen.
	Replayed uint64

	// Break attributes per-category cycles for the Fig 7 decomposition:
	// "get" (store processing), "put", "cache" (user-space block cache
	// management), "io" (read path to storage, including syscalls),
	// "mmio" (mapped reads: faults + loads).
	Break *obs.Breakdown

	// Stats.
	Gets, Puts, Flushes, Compactions uint64
	BlocksRead                       uint64
}

// charge advances p as user time and attributes the cycles to a category.
func (db *DB) charge(p *engine.Proc, cat string, cycles uint64) {
	p.AdvanceUser(cycles)
	db.Break.Add(cat, cycles)
}

var _ ycsb.KV = (*DB)(nil)

// Open creates a DB in the given namespace.
func Open(p *engine.Proc, e *engine.Engine, opts Options) *DB {
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 1 << 20
	}
	if opts.SSTTargetBytes == 0 {
		opts.SSTTargetBytes = 8 << 20
	}
	if opts.BlockBytes == 0 {
		opts.BlockBytes = 4096
	}
	if opts.L0Trigger == 0 {
		opts.L0Trigger = 4
	}
	costs := DefaultCosts()
	if opts.Costs != nil {
		costs = *opts.Costs
	}
	db := &DB{
		opts:      opts,
		costs:     costs,
		e:         e,
		writeLock: engine.NewMutex(e, "lsm_write"),
		mem:       newSkiplist(opts.Seed + 1),
		levels:    make([][]*SST, 4),
	}
	if opts.Registry != nil {
		var labels []obs.Label
		if opts.MetricsLabel != "" {
			labels = append(labels, obs.L("world", opts.MetricsLabel))
		}
		db.Break = opts.Registry.Breakdown("lsm_cycles", labels...)
	} else {
		db.Break = obs.NewBreakdown()
	}
	if opts.Mode == IODirectCached {
		cap := opts.BlockCacheBytes
		if cap == 0 {
			cap = 32 << 20
		}
		db.cache = NewBlockCache(e, cap, costs)
	}
	if !opts.DisableWAL {
		walBytes := opts.WALBytes
		if walBytes == 0 {
			walBytes = 64 << 20
		}
		if opts.NS.Exists("WAL") {
			db.wal = opts.NS.Open(p, "WAL")
		} else {
			db.wal = opts.NS.Create(p, "WAL", walBytes)
		}
		if opts.NS.Exists(manifestName) {
			db.manifest = opts.NS.Open(p, manifestName)
		} else {
			db.manifest = opts.NS.Create(p, manifestName, 1<<20)
		}
	}
	return db
}

// Cache exposes the block cache (nil unless IODirectCached).
func (db *DB) Cache() *BlockCache { return db.cache }

// Levels returns per-level table counts (tests/stats).
func (db *DB) Levels() []int {
	out := make([]int, len(db.levels))
	for i, l := range db.levels {
		out[i] = len(l)
	}
	return out
}

// mmio reports whether tables are memory-mapped.
func (db *DB) mmio() bool { return db.opts.Mode == IOMmap }

// tombstone is the value encoding of a deletion. Real LSMs flag the record
// header; a reserved single-byte value keeps the on-disk format unchanged.
var tombstone = []byte{0xDE}

func isTombstone(v []byte) bool { return len(v) == 1 && v[0] == 0xDE }

// Delete removes a key by writing a tombstone; the key disappears from gets
// and scans immediately and from disk when compaction drops the tombstone
// at the bottom level.
func (db *DB) Delete(p *engine.Proc, key []byte) {
	db.put(p, key, tombstone)
}

// Put inserts or updates a record.
func (db *DB) Put(p *engine.Proc, key, value []byte) {
	if isTombstone(value) {
		panic("lsm: value collides with the tombstone encoding")
	}
	db.put(p, key, value)
}

func (db *DB) put(p *engine.Proc, key, value []byte) {
	p.BeginSpan("kv.put")
	defer p.EndSpan()
	db.writeLock.Lock(p)
	db.Puts++
	if db.wal != nil {
		// Record plus a 4-byte zero terminator; the next append
		// overwrites the terminator, so replay always finds a clean end.
		rec := make([]byte, 4+len(key)+len(value)+4)
		binary.LittleEndian.PutUint16(rec, uint16(len(key)))
		binary.LittleEndian.PutUint16(rec[2:], uint16(len(value)))
		copy(rec[4:], key)
		copy(rec[4+len(key):], value)
		db.charge(p, "put", db.costs.WALAppend)
		if db.walOff+uint64(len(rec)) > db.wal.Size() {
			db.flushLocked(p) // out of log space: flush resets the WAL
		}
		db.wal.Pwrite(p, rec, db.walOff)
		db.walOff += uint64(len(rec)) - 4
	}
	hops := db.mem.put(append([]byte(nil), key...), append([]byte(nil), value...))
	db.charge(p, "put", db.costs.MemtableBase+db.costs.MemtableHop*uint64(hops)+db.costs.PutFinish)
	if db.mem.size >= db.opts.MemtableBytes {
		db.flushLocked(p)
	}
	db.writeLock.Unlock(p)
}

// Get returns the newest value for key.
func (db *DB) Get(p *engine.Proc, key []byte) ([]byte, bool) {
	p.BeginSpan("kv.get")
	defer p.EndSpan()
	db.Gets++
	v, ok, hops := db.mem.get(key)
	db.charge(p, "get", db.costs.MemtableBase+db.costs.MemtableHop*uint64(hops))
	if ok {
		db.charge(p, "get", db.costs.GetFinish)
		if isTombstone(v) {
			return nil, false
		}
		return v, true
	}
	// L0: newest first, ranges overlap.
	for _, t := range db.levels[0] {
		if v, ok := db.searchTable(p, t, key); ok {
			db.charge(p, "get", db.costs.GetFinish)
			if isTombstone(v) {
				return nil, false
			}
			return v, true
		}
	}
	// L1+: non-overlapping, binary search by range.
	for lvl := 1; lvl < len(db.levels); lvl++ {
		tables := db.levels[lvl]
		i := sort.Search(len(tables), func(i int) bool {
			return bytes.Compare(tables[i].largest, key) >= 0
		})
		if i < len(tables) && tables[i].contains(key) {
			if v, ok := db.searchTable(p, tables[i], key); ok {
				db.charge(p, "get", db.costs.GetFinish)
				if isTombstone(v) {
					return nil, false
				}
				return v, true
			}
		}
	}
	db.charge(p, "get", db.costs.GetFinish)
	return nil, false
}

// searchTable probes one SST.
func (db *DB) searchTable(p *engine.Proc, t *SST, key []byte) ([]byte, bool) {
	db.charge(p, "get", db.costs.BloomCheck)
	if !t.filter.mayContain(key) {
		return nil, false
	}
	db.charge(p, "get", db.costs.IndexSearch)
	blkIdx := t.blockFor(key)
	blk := db.readBlock(p, t, uint64(blkIdx))
	var out []byte
	found := false
	visited := scanBlock(blk, func(k, v []byte) bool {
		cmp := bytes.Compare(k, key)
		if cmp == 0 {
			out = append([]byte(nil), v...)
			found = true
			return false
		}
		return cmp < 0
	})
	db.charge(p, "get", db.costs.BlockEntry*uint64(visited))
	return out, found
}

// readBlock fetches one data block through the configured I/O mode.
func (db *DB) readBlock(p *engine.Proc, t *SST, blkIdx uint64) []byte {
	db.BlocksRead++
	off := blkIdx * uint64(db.opts.BlockBytes)
	if db.mmio() {
		// mmio: a load; hits cost nothing beyond the copy.
		buf := make([]byte, db.opts.BlockBytes)
		t0 := p.Now()
		t.mapping.Load(p, off, buf)
		db.Break.Add("mmio", p.Now()-t0)
		db.charge(p, "get", db.costs.MmapBlockOverhead)
		return buf
	}
	if db.cache != nil {
		t0 := p.Now()
		blk := db.cache.Get(p, t.id, blkIdx)
		db.Break.Add("cache", p.Now()-t0)
		if blk != nil {
			return blk
		}
		buf := make([]byte, db.opts.BlockBytes)
		t0 = p.Now()
		t.file.Pread(p, buf, off)
		db.Break.Add("io", p.Now()-t0)
		db.charge(p, "get", db.costs.BlockDecode)
		t0 = p.Now()
		db.cache.Insert(p, t.id, blkIdx, buf)
		db.Break.Add("cache", p.Now()-t0)
		return buf
	}
	buf := make([]byte, db.opts.BlockBytes)
	t0 := p.Now()
	t.file.Pread(p, buf, off)
	db.Break.Add("io", p.Now()-t0)
	db.charge(p, "get", db.costs.BlockDecode)
	return buf
}

// Scan visits up to n records starting at startKey, returning the number
// seen (merged across memtable and all levels, newest version wins).
func (db *DB) Scan(p *engine.Proc, startKey []byte, n int) int {
	p.BeginSpan("kv.scan")
	defer p.EndSpan()
	it := db.newMergeIter(p, startKey)
	seen := 0
	for seen < n {
		_, v, ok := it.next(p)
		if !ok {
			break
		}
		db.charge(p, "get", db.costs.IterNext)
		if isTombstone(v) {
			continue
		}
		seen++
	}
	return seen
}

// Flush persists the memtable as an L0 table.
func (db *DB) Flush(p *engine.Proc) {
	db.writeLock.Lock(p)
	db.flushLocked(p)
	db.writeLock.Unlock(p)
}

func (db *DB) flushLocked(p *engine.Proc) {
	if db.mem.entries == 0 {
		return
	}
	p.BeginSpan("kv.flush")
	defer p.EndSpan()
	db.Flushes++
	b := newSSTBuilder(db.opts.BlockBytes)
	for n := db.mem.first(); n != nil; n = n.next[0] {
		b.add(n.key, n.value)
	}
	t := b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio())
	db.levels[0] = append([]*SST{t}, db.levels[0]...)
	db.mem = newSkiplist(db.opts.Seed + int64(db.nextID) + 1)
	db.walOff = 0
	if db.wal != nil {
		db.wal.Pwrite(p, []byte{0, 0, 0, 0}, 0) // truncate the log
	}
	if len(db.levels[0]) >= db.opts.L0Trigger {
		db.compactL0(p)
	}
	db.writeManifest(p)
}

func (db *DB) nextSSTID() uint64 {
	db.nextID++
	return db.nextID
}

func (db *DB) sstName() string { return fmt.Sprintf("sst-%06d", db.nextID+1) }

// compactL0 merges all of L0 with L1 into a fresh L1 and deletes the
// replaced tables, returning their space to the namespace.
func (db *DB) compactL0(p *engine.Proc) {
	p.BeginSpan("kv.compact")
	defer p.EndSpan()
	db.Compactions++
	// Sources: L0 newest-first then L1 (older priority).
	var sources []*SST
	sources = append(sources, db.levels[0]...)
	sources = append(sources, db.levels[1]...)
	merged := db.mergeTables(p, sources)
	db.levels[0] = nil
	db.levels[1] = merged
	for _, t := range sources {
		if t.mapping != nil {
			t.mapping.Munmap(p)
			t.mapping = nil
		}
		db.opts.NS.Delete(p, t.file.Name())
	}
}

// mergeTables k-way merges tables (earlier sources win on duplicate keys)
// into target-size tables.
func (db *DB) mergeTables(p *engine.Proc, sources []*SST) []*SST {
	iters := make([]*sstIter, len(sources))
	for i, t := range sources {
		iters[i] = newSSTIter(db, t, nil)
	}
	h := &iterHeap{}
	for pri, it := range iters {
		if k, v, ok := it.current(p); ok {
			h.push(heapItem{k, v, pri, it})
		}
	}
	var out []*SST
	b := newSSTBuilder(db.opts.BlockBytes)
	var lastKey []byte
	emit := func(k, v []byte) {
		if b.estimatedSize() >= db.opts.SSTTargetBytes {
			out = append(out, b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio()))
			b = newSSTBuilder(db.opts.BlockBytes)
		}
		b.add(k, v)
	}
	for h.len() > 0 {
		item := h.pop()
		if lastKey == nil || !bytes.Equal(item.key, lastKey) {
			// The merged output is the bottom level: tombstones have
			// shadowed every older version and can be dropped.
			if !isTombstone(item.value) {
				emit(item.key, item.value)
			}
			lastKey = append(lastKey[:0], item.key...)
		}
		item.it.advance(p)
		if k, v, ok := item.it.current(p); ok {
			h.push(heapItem{k, v, item.pri, item.it})
		}
	}
	if b.entries > 0 {
		out = append(out, b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio()))
	}
	return out
}

// BulkLoad writes `records` pre-sorted records straight into L1 (the
// standard trick for building read-only evaluation datasets quickly).
func (db *DB) BulkLoad(p *engine.Proc, records uint64, valueSize int) {
	b := newSSTBuilder(db.opts.BlockBytes)
	for id := uint64(0); id < records; id++ {
		if b.estimatedSize() >= db.opts.SSTTargetBytes {
			db.levels[1] = append(db.levels[1], b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio()))
			b = newSSTBuilder(db.opts.BlockBytes)
		}
		b.add(ycsb.KeyBytes(id), ycsb.Value(id, valueSize))
	}
	if b.entries > 0 {
		db.levels[1] = append(db.levels[1], b.finish(p, db.opts.NS, db.sstName(), db.nextSSTID(), db.mmio()))
	}
	db.writeManifest(p)
}
