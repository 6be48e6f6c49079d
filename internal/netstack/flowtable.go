package netstack

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// FlowTable is the sharded TCP demultiplexing table: a power-of-two
// number of shards, each holding the endpoints whose RSS hash falls in
// the shard's buckets.
//
// Sharding replaces the flat map[FlowKey]*Endpoint for two reasons
// ("Algorithms and Data Structures to Accelerate Network Analysis",
// Ros-Giralt et al.): with many thousands of flows a single map walks a
// cache-hostile bucket array shared by every CPU, and any mutation
// (connection churn) contends on one structure. Here the shard index is
// the same Toeplitz-hash bucket the NIC used to pick the receive queue,
// so shard = f(bucket) and queue = bucket mod queues: every shard is only
// ever touched by the one softirq context that owns its queue, lookups
// stay within a CPU-local map, and churn on one shard never disturbs
// another CPU's flows.
//
// Within a shard two layouts are available (FlowLayout):
//
//   - LayoutOpenAddressed (default): a cache-conscious open-addressing
//     table of fixed slots, modeled at 32 bytes — two per cache line —
//     probed linearly with robin-hood displacement and grown by powers of
//     two at 3/4 load. A lookup's memory traffic is the probe run itself:
//     the hit entry (hash, key and endpoint share the slot) streams in
//     with the key compares, and robin-hood keeps probe runs short and
//     adjacent, so a demux touch is ~1 line however large the table is.
//   - LayoutSeedMap: the seed-style Go map shard, kept behind the switch
//     as the priced baseline. Its lookup chases dependent lines through
//     the bucket array (tophash, key row, value row, overflow), modeled
//     as flowMapDemuxLines pointer-chased lines per operation.
//
// Both layouts charge their structural touches through the machine's
// memory model at the capacity-miss excess only (CapacityTouchCost):
// while the table fits in cache the charge is exactly zero — the warm
// demux cost is already inside the calibrated per-packet constants, and
// both layouts price bit-identically to the seed — and once the
// registered population outgrows the cache, every lookup pays DRAM
// latency on the cold fraction of its line touches. That is what makes
// connection count an honest per-packet cost axis: the open-addressed
// layout stays near one line per lookup while the map baseline pays its
// multi-line chase on a mostly-cold structure.
type FlowTable struct {
	layout FlowLayout
	shards []flowShard
	mask   uint32
	count  int
	queues int // softirq CPU count for steal detection (0 = unknown)

	// reg interns the bound endpoints: slots and map values hold its
	// handles, never pointers (see epRegistry).
	reg epRegistry

	// bytes is the modeled structure footprint of the demux table itself
	// (slot arrays or map buckets — not the endpoints), the capacity-model
	// input; demuxCycles accumulates every cycle charged through it.
	bytes       uint64
	demuxCycles uint64

	// meter/params, when set (SetPricing), price structural touches; a
	// table built without them (unit tests) charges nothing.
	meter  *cycles.Meter
	params *cost.Params
	// touchCosts memoizes CapacityTouchCost per line count at footprint
	// touchBytes; bit n of touchKnown marks touchCosts[n] valid.
	touchCosts [16]uint64
	touchBytes uint64
	touchKnown uint16

	// owners, when set, is the live bucket→CPU steering map shared with
	// the NICs: shard ownership follows indirection rewrites instead of
	// the static bucket-mod-queues fill.
	owners *rss.Map
	// flowOwners holds aRFS per-flow ownership overrides: a steered
	// flow's deliveries are expected from its application CPU, whatever
	// its bucket's owner is.
	flowOwners map[FlowKey]int
}

// FlowLayout selects a shard's internal layout.
type FlowLayout int

const (
	// LayoutOpenAddressed is the cache-conscious open-addressing layout
	// (the default).
	LayoutOpenAddressed FlowLayout = iota
	// LayoutSeedMap is the seed-style Go-map shard, kept as the priced
	// baseline for head-to-head comparison.
	LayoutSeedMap
)

// String names the layout as used by the CLI tools.
func (l FlowLayout) String() string {
	switch l {
	case LayoutOpenAddressed:
		return "open"
	case LayoutSeedMap:
		return "map"
	default:
		return fmt.Sprintf("FlowLayout(%d)", int(l))
	}
}

// MarshalText emits the CLI name (JSON reports carry "open"/"map").
func (l FlowLayout) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses the CLI name.
func (l *FlowLayout) UnmarshalText(b []byte) error {
	v, err := ParseFlowLayout(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// ParseFlowLayout maps a CLI layout name to its FlowLayout: "open" (the
// open-addressed default) or "map" (the seed-style baseline).
func ParseFlowLayout(s string) (FlowLayout, error) {
	switch s {
	case "open", "":
		return LayoutOpenAddressed, nil
	case "map", "seed":
		return LayoutSeedMap, nil
	}
	return 0, fmt.Errorf("netstack: unknown flow layout %q (want open, map)", s)
}

const (
	// FlowSlotBytes is the modeled size of one open-addressed slot, the
	// unit of the table's footprint and capacity pricing: 12 bytes of
	// four-tuple key, the 4-byte Toeplitz hash, the 2-byte robin-hood
	// probe distance and an 8-byte endpoint pointer, padded to a half
	// cache line so two slots share a 64-byte line and a probe run streams
	// rather than chases. The Go representation (flowSlot) is smaller; the
	// model prices the kernel-style slot.
	FlowSlotBytes = 32
	// flowShardMinSlots is the initial slot-array size of a shard's first
	// insert (arrays are allocated lazily, so empty shards occupy no
	// modeled bytes).
	flowShardMinSlots = 8
	// flowMapEntryBytes models one Go-map entry's amortized footprint in
	// the seed layout: the 12-byte key and 8-byte value rows plus the
	// per-entry share of tophash bytes, bucket headers, overflow pointers
	// and the ~1/Load slack of map growth.
	flowMapEntryBytes = 48
	// flowMapDemuxLines is the dependent line chase of one map operation
	// in the seed layout: bucket-array indirection, tophash line, key row
	// and value row are on (at least) four distinct lines reached through
	// dependent loads.
	flowMapDemuxLines = 4
)

// flowSlot is one open-addressed entry. dist is the 1-based probe
// distance from the key's home slot (0 = empty); robin-hood insertion
// keeps it near 1 and bounded, and it doubles as the per-entry probe
// length the occupancy histogram reports. ep is the endpoint's registry
// handle. The slot holds no pointers, so slot arrays are 24 bytes a slot
// and the garbage collector never scans them.
type flowSlot struct {
	hash uint32
	key  FlowKey
	dist uint16
	ep   uint32
}

// flowShard is one shard: a private demux structure (map- or slot-
// backed, by the table's layout) plus per-shard receive counters,
// including the pending-aggregate accounting that lets tests and
// benchmarks observe how aggregation state distributes over shards.
type flowShard struct {
	conns map[FlowKey]uint32 // LayoutSeedMap: key → endpoint handle
	slots []flowSlot         // LayoutOpenAddressed (lazy, power of two)
	used  int                // occupied slots
	stats ShardStats
}

// epRegistry interns a table's endpoints behind uint32 handles, counting
// the entries that name each one. Many keys may bind one endpoint (idle
// connscale flows all share a placeholder), which then takes a single
// registry entry; a handle whose last reference is removed is recycled.
// ids is only ever indexed, never ranged.
type epRegistry struct {
	eps  []*tcp.Endpoint // by handle; nil when free
	refs []uint32        // by handle; 0 when free
	ids  map[*tcp.Endpoint]uint32
	free []uint32 // released handles, reused last-in first-out
}

// handleOf returns ep's handle, or the handle retain would give it, so an
// insert can place the handle before it knows the insert succeeds.
func (r *epRegistry) handleOf(ep *tcp.Endpoint) uint32 {
	if h, ok := r.ids[ep]; ok {
		return h
	}
	if n := len(r.free); n > 0 {
		return r.free[n-1]
	}
	return uint32(len(r.eps))
}

// retain adds n references to h, binding it to ep first when h is new
// (h must come from handleOf(ep) with no registry change in between).
func (r *epRegistry) retain(h uint32, ep *tcp.Endpoint, n uint32) {
	if int(h) < len(r.eps) && r.refs[h] > 0 {
		r.refs[h] += n
		return
	}
	if int(h) == len(r.eps) {
		r.eps = append(r.eps, ep)
		r.refs = append(r.refs, n)
	} else {
		r.free = r.free[:len(r.free)-1]
		r.eps[h], r.refs[h] = ep, n
	}
	if r.ids == nil {
		r.ids = make(map[*tcp.Endpoint]uint32)
	}
	r.ids[ep] = h
}

// release drops a reference to h, freeing the handle with its last one.
func (r *epRegistry) release(h uint32) {
	if r.refs[h]--; r.refs[h] > 0 {
		return
	}
	delete(r.ids, r.eps[h])
	r.eps[h] = nil
	r.free = append(r.free, h)
}

// ShardStats counts one shard's demux activity.
type ShardStats struct {
	// Endpoints is the current number of registered flows.
	Endpoints int
	// HostPackets and NetPackets count delivered traffic.
	HostPackets, NetPackets uint64
	// Aggregates counts delivered multi-frame host packets — the
	// shard-local share of pending-aggregate state that was flushed
	// through this shard.
	Aggregates uint64
	// Misses counts lookups that found no endpoint.
	Misses uint64
	// Steals counts lookups performed by a CPU other than the shard's
	// owning softirq CPU (queue = bucket mod queues). Zero as long as
	// the queue→shard ownership invariant holds; non-zero means a flow's
	// packets crossed CPUs and shard state is no longer CPU-local.
	Steals uint64
}

// DefaultFlowShards is the default shard count: equal to the RSS
// indirection table size, so shard index and steering bucket coincide.
const DefaultFlowShards = rss.Buckets

// NewFlowTable creates a table with the given power-of-two shard count
// (0 = DefaultFlowShards) in the default open-addressed layout.
func NewFlowTable(shards int) (*FlowTable, error) {
	return NewFlowTableLayout(shards, LayoutOpenAddressed)
}

// NewFlowTableLayout creates a table with the given shard count and
// shard layout.
func NewFlowTableLayout(shards int, layout FlowLayout) (*FlowTable, error) {
	if shards == 0 {
		shards = DefaultFlowShards
	}
	if err := rss.ValidShards(shards); err != nil {
		return nil, fmt.Errorf("netstack: %w", err)
	}
	if layout != LayoutOpenAddressed && layout != LayoutSeedMap {
		return nil, fmt.Errorf("netstack: unknown flow layout %d", int(layout))
	}
	t := &FlowTable{layout: layout, shards: make([]flowShard, shards), mask: uint32(shards - 1)}
	if layout == LayoutSeedMap {
		for i := range t.shards {
			t.shards[i].conns = make(map[FlowKey]uint32)
		}
	}
	return t, nil
}

// Layout returns the shard layout.
func (t *FlowTable) Layout() FlowLayout { return t.layout }

// SetPricing arms the table's structural cost charging: lookups charge
// cycles.Rx and mutations cycles.NonProto through p's memory model at
// the capacity-miss excess (zero while the table fits in cache). Stacks
// arm their tables at construction; bare tables (unit tests) stay free.
func (t *FlowTable) SetPricing(m *cycles.Meter, p *cost.Params) {
	t.meter, t.params = m, p
	t.touchKnown = 0
}

// StructBytes returns the modeled footprint of the demux structure
// itself (slot arrays or map buckets, not the endpoints).
func (t *FlowTable) StructBytes() uint64 { return t.bytes }

// DemuxCycles returns the cycles charged for structural demux touches so
// far (zero while the table fits in cache or pricing is off).
func (t *FlowTable) DemuxCycles() uint64 { return t.demuxCycles }

// hashOf computes the key's RSS hash. The packet's own addressing is the
// key (Src = remote peer), matching what the NIC hashed on the wire.
func hashOf(k FlowKey) uint32 {
	return rss.HashTCP4(k.Src, k.Dst, k.SrcPort, k.DstPort)
}

// slotIndexHash remixes the Toeplitz hash for slot indexing. The shard
// index is the hash's low bucket bits, so every key in a shard shares
// them; the slot index must depend on the remaining bits or all of a
// shard's keys would pile onto a handful of home slots. The murmur3
// finalizer avalanches every input bit into the low output bits.
func slotIndexHash(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// openProbeLines converts a probe count to touched cache lines: slots
// are half a line, probed at adjacent indices, so the first probe is one
// line and every two further probes stream one more — the "key-compare
// line chases" of a lookup, with the hit entry on the same lines.
func openProbeLines(probes int) int {
	if probes <= 0 {
		return 0
	}
	return 1 + (probes-1)/2
}

// charge prices one structural touch into a table of footprint bytes
// through the capacity model.
func (t *FlowTable) charge(cat cycles.Category, lines int, footprint uint64) {
	if t.meter == nil || lines == 0 {
		return
	}
	c := t.touchCostAt(lines, footprint)
	if c == 0 {
		return
	}
	t.meter.Charge(cat, c)
	t.demuxCycles += c
}

// touchCostAt returns CapacityTouchCost(lines, footprint), computed once
// per line count for each footprint: the footprint only changes on growth
// (open layout) or mutation (map layout), while every insert and lookup
// charges at it.
func (t *FlowTable) touchCostAt(lines int, footprint uint64) uint64 {
	if lines >= len(t.touchCosts) {
		return t.params.Mem.CapacityTouchCost(lines, footprint)
	}
	if t.touchBytes != footprint {
		t.touchBytes, t.touchKnown = footprint, 0
	}
	if bit := uint16(1) << lines; t.touchKnown&bit == 0 {
		t.touchCosts[lines] = t.params.Mem.CapacityTouchCost(lines, footprint)
		t.touchKnown |= bit
	}
	return t.touchCosts[lines]
}

// chargeGrow prices a shard growth rehash: a sequential sweep of the old
// and new slot arrays, scaled by the capacity cold fraction of a table of
// footprint bytes (zero while the table fits in cache, like every
// structural charge).
func (t *FlowTable) chargeGrow(oldSlots, newSlots int, footprint uint64) {
	if t.meter == nil {
		return
	}
	c := t.params.Mem.CapacityStreamCost((oldSlots+newSlots)*FlowSlotBytes, footprint)
	if c == 0 {
		return
	}
	t.meter.Charge(cycles.NonProto, c)
	t.demuxCycles += c
}

// openLookup probes for k in the open layout, returning the slot holding
// it (nil when absent) and the probe count. Robin-hood ordering
// terminates a miss early: once a resident entry's distance is below the
// probe distance, k cannot be further along.
func (s *flowShard) openLookup(h uint32, k FlowKey) (*flowSlot, int) {
	if len(s.slots) == 0 {
		return nil, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint16(1); ; p++ {
		sl := &s.slots[i]
		if sl.dist == 0 || sl.dist < p {
			return nil, int(p)
		}
		if sl.hash == h && sl.key == k {
			return sl, int(p)
		}
		i = (i + 1) & mask
	}
}

// needsGrow reports whether one more insert into a shard with used of
// slots occupied would push it past 3/4 load (or it has no slots yet).
func needsGrow(used, slots int) bool {
	return slots == 0 || (used+1)*4 > slots*3
}

// grownSlots is the slot count a shard of slots grows to: the first
// array, then powers of two.
func grownSlots(slots int) int {
	if slots == 0 {
		return flowShardMinSlots
	}
	return 2 * slots
}

// openGrow doubles the slot array (or allocates the first one) and
// rehashes every resident entry, returning the old and new slot counts
// for footprint accounting and growth pricing.
func (s *flowShard) openGrow() (oldSlots, newSlots int) {
	old := s.regrow(make([]flowSlot, grownSlots(len(s.slots))))
	return len(old), len(s.slots)
}

// regrow rehashes every resident entry into slots, which must be empty
// and larger than the current array, and returns the outgrown array.
func (s *flowShard) regrow(slots []flowSlot) (old []flowSlot) {
	old, s.slots = s.slots, slots
	s.used = 0
	for i := range old {
		if old[i].dist != 0 {
			sl := old[i]
			sl.dist = 1
			s.openPut(sl)
		}
	}
	return old
}

// openPut inserts cur (dist 1) robin-hood style, displacing richer
// residents, and returns the number of slots visited. Until cur first
// displaces a resident its walk is exactly the walk a lookup of its key
// takes, so a resident with the same key is met there: openPut then
// reports dup and has written nothing; past the first displacement the
// key cannot be resident. The caller must have ensured capacity
// (needsGrow), so an empty slot is guaranteed within the probe run.
func (s *flowShard) openPut(cur flowSlot) (visited int, dup bool) {
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(cur.hash) & mask
	searching := true
	for {
		visited++
		sl := &s.slots[i]
		if sl.dist == 0 {
			*sl = cur
			s.used++
			return visited, false
		}
		if sl.dist < cur.dist {
			// Robin hood: the poorer key (further from home) takes the
			// slot; the displaced resident continues probing.
			*sl, cur = cur, *sl
			searching = false
		} else if searching && sl.hash == cur.hash && sl.key == cur.key {
			return visited, true
		}
		cur.dist++
		i = (i + 1) & mask
	}
}

// openRemove deletes k with backward-shift compaction (successor entries
// slide one slot toward home, keeping probe runs tight for every later
// lookup), returning whether k was resident, its endpoint handle and the
// slots visited.
func (s *flowShard) openRemove(h uint32, k FlowKey) (ok bool, ep uint32, probes int) {
	if len(s.slots) == 0 {
		return false, 0, 1
	}
	mask := uint32(len(s.slots) - 1)
	i := slotIndexHash(h) & mask
	for p := uint16(1); ; p++ {
		sl := &s.slots[i]
		if sl.dist == 0 || sl.dist < p {
			return false, 0, int(p)
		}
		if sl.hash == h && sl.key == k {
			ep = sl.ep
			for {
				j := (i + 1) & mask
				nx := s.slots[j]
				if nx.dist <= 1 {
					s.slots[i] = flowSlot{}
					break
				}
				nx.dist--
				s.slots[i] = nx
				i = j
			}
			s.used--
			return true, ep, int(p)
		}
		i = (i + 1) & mask
	}
}

// ShardOf returns the index of the shard owning key.
func (t *FlowTable) ShardOf(k FlowKey) int {
	return rss.ShardOf(hashOf(k), len(t.shards))
}

// Shards returns the shard count.
func (t *FlowTable) Shards() int { return len(t.shards) }

// Len returns the total number of registered endpoints.
func (t *FlowTable) Len() int { return t.count }

// Insert registers ep under k; a nil ep or a duplicate key errors and
// leaves the table unchanged. The structural touches (probe chase plus
// entry write, or the map mutation) charge cycles.NonProto at the
// capacity-miss excess — socket-hash insertion is connection-setup work,
// not receive protocol processing. In the open layout the duplicate check
// rides on the insert's own probe run; only an insert that must first
// grow its shard probes the old array separately, so that a rejected
// insert never grows it.
func (t *FlowTable) Insert(k FlowKey, ep *tcp.Endpoint) error {
	if ep == nil {
		return fmt.Errorf("netstack: nil endpoint for %v:%d->%v:%d", k.Src, k.SrcPort, k.Dst, k.DstPort)
	}
	h := hashOf(k)
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	handle := t.reg.handleOf(ep)
	if t.layout == LayoutSeedMap {
		if _, dup := s.conns[k]; dup {
			return t.dupErr(k)
		}
		s.conns[k] = handle
		t.bytes += flowMapEntryBytes
		t.charge(cycles.NonProto, flowMapDemuxLines, t.bytes)
	} else {
		if needsGrow(s.used, len(s.slots)) {
			if sl, _ := s.openLookup(h, k); sl != nil {
				return t.dupErr(k)
			}
			oldSlots, newSlots := s.openGrow()
			t.bytes += uint64(newSlots-oldSlots) * FlowSlotBytes
			t.chargeGrow(oldSlots, newSlots, t.bytes)
		}
		probes, dup := s.openPut(flowSlot{hash: h, key: k, dist: 1, ep: handle})
		if dup {
			return t.dupErr(k)
		}
		t.charge(cycles.NonProto, openProbeLines(probes), t.bytes)
	}
	t.reg.retain(handle, ep, 1)
	s.stats.Endpoints++
	t.count++
	return nil
}

func (t *FlowTable) dupErr(k FlowKey) error {
	return fmt.Errorf("netstack: duplicate registration for %v:%d->%v:%d",
		k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// InsertSeq registers ep under key(0), ..., key(n-1) and leaves the table
// exactly as n Insert calls in index order would: the same slots in the
// same robin-hood order, the same footprint and charged cycles, the same
// shard counters and registry. In the open layout it fills one shard at a
// time, so the shard's slot array stays cache-resident while it fills,
// instead of scattering n inserts across every shard. That is exact
// because:
//
//   - shards are independent: an insert's probe run, and so its charge,
//     depends only on the earlier inserts into its own shard, and the
//     build puts each shard's keys in their original order;
//   - the one global input, the footprint every insert and growth is
//     charged at, changes only when some shard grows, so a first pass
//     over the keys in index order replays just the growth rule to learn
//     it at every index;
//   - charges are integer sums, so their order does not matter.
//
// Outgrown slot arrays are cleared and reused by the next shard that
// grows through their size instead of being left to the collector.
//
// key must be a pure function of its index; it is called twice per key.
// The keys must be distinct and absent from the table: a key that is
// already resident, or repeated in the batch, makes InsertSeq return a
// duplicate error with the table part-built, and the caller must then
// discard the table. The map layout and a nil ep take the per-key Insert
// loop.
func (t *FlowTable) InsertSeq(n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	if t.layout == LayoutSeedMap || ep == nil {
		for i := 0; i < n; i++ {
			if err := t.Insert(key(i), ep); err != nil {
				return err
			}
		}
		return nil
	}
	if n <= 0 {
		return nil
	}

	// Pass 1: shard the keys in index order, count them per shard and
	// replay the growth rule, recording the footprint after each growth.
	type growth struct {
		at        int
		footprint uint64
	}
	var grows []growth
	footprint := t.bytes
	shardOf := make([]uint8, n)           // shard counts are at most rss.Buckets
	start := make([]int, len(t.shards)+1) // shard si's keys: order[start[si]:start[si+1]]
	used := make([]int, len(t.shards))
	slots := make([]int, len(t.shards))
	for si := range t.shards {
		used[si], slots[si] = t.shards[si].used, len(t.shards[si].slots)
	}
	for i := range shardOf {
		si := rss.ShardOf(hashOf(key(i)), len(t.shards))
		shardOf[i] = uint8(si)
		start[si+1]++
		if needsGrow(used[si], slots[si]) {
			grown := grownSlots(slots[si])
			footprint += uint64(grown-slots[si]) * FlowSlotBytes
			slots[si] = grown
			grows = append(grows, growth{at: i, footprint: footprint})
		}
		used[si]++
	}
	for si := range t.shards {
		start[si+1] += start[si]
	}
	order := make([]uint32, n)
	next := used // reused as each shard's fill cursor
	copy(next, start)
	for i, si := range shardOf {
		order[next[si]] = uint32(i)
		next[si]++
	}

	// Pass 2: fill each shard in turn, in its keys' index order, charging
	// every growth and insert at the footprint pass 1 found for its index.
	handle := t.reg.handleOf(ep)
	var spare [bits.UintSize][]flowSlot // outgrown arrays by bit length of their size
	for si := range t.shards {
		s := &t.shards[si]
		fp, g := t.bytes, 0
		for _, at := range order[start[si]:start[si+1]] {
			i := int(at)
			for ; g < len(grows) && grows[g].at <= i; g++ {
				fp = grows[g].footprint
			}
			if needsGrow(s.used, len(s.slots)) {
				size := grownSlots(len(s.slots))
				arr := spare[bits.Len(uint(size))]
				if arr == nil {
					arr = make([]flowSlot, size)
				} else {
					spare[bits.Len(uint(size))] = nil
					clear(arr)
				}
				old := s.regrow(arr)
				if len(old) > 0 {
					spare[bits.Len(uint(len(old)))] = old
				}
				t.chargeGrow(len(old), size, fp)
			}
			k := key(i)
			probes, dup := s.openPut(flowSlot{hash: hashOf(k), key: k, dist: 1, ep: handle})
			if dup {
				return t.dupErr(k)
			}
			t.charge(cycles.NonProto, openProbeLines(probes), fp)
		}
		s.stats.Endpoints += start[si+1] - start[si]
	}
	t.bytes = footprint
	t.reg.retain(handle, ep, uint32(n))
	t.count += n
	return nil
}

// Has reports whether k is registered, without touching any delivery
// counter (control-path existence check).
func (t *FlowTable) Has(k FlowKey) bool {
	return t.Peek(k) != nil
}

// Peek returns the endpoint bound to k without touching any delivery
// counter or charging any cost (control-path lookup — teardown snapshots
// endpoint state through it), or nil.
func (t *FlowTable) Peek(k FlowKey) *tcp.Endpoint {
	h := hashOf(k)
	ep, _ := t.find(&t.shards[rss.ShardOf(h, len(t.shards))], h, k)
	return ep
}

// find resolves k in shard s, returning its endpoint (nil when absent) and
// the touched cache lines of the probe or map chase.
func (t *FlowTable) find(s *flowShard, h uint32, k FlowKey) (*tcp.Endpoint, int) {
	if t.layout == LayoutSeedMap {
		handle, ok := s.conns[k]
		if !ok {
			return nil, flowMapDemuxLines
		}
		return t.reg.eps[handle], flowMapDemuxLines
	}
	sl, probes := s.openLookup(h, k)
	if sl == nil {
		return nil, openProbeLines(probes)
	}
	return t.reg.eps[sl.ep], openProbeLines(probes)
}

// Remove unregisters the endpoint bound to k, reporting whether it
// existed. Structural touches charge cycles.NonProto like Insert's.
func (t *FlowTable) Remove(k FlowKey) bool {
	h := hashOf(k)
	s := &t.shards[rss.ShardOf(h, len(t.shards))]
	var handle uint32
	var ok bool
	if t.layout == LayoutSeedMap {
		if handle, ok = s.conns[k]; !ok {
			return false
		}
		delete(s.conns, k)
		t.bytes -= flowMapEntryBytes
		t.charge(cycles.NonProto, flowMapDemuxLines, t.bytes)
	} else {
		var probes int
		if ok, handle, probes = s.openRemove(h, k); !ok {
			return false
		}
		t.charge(cycles.NonProto, openProbeLines(probes), t.bytes)
	}
	t.reg.release(handle)
	delete(t.flowOwners, k)
	s.stats.Endpoints--
	t.count--
	return true
}

// SetQueues records the number of softirq CPUs servicing the table, which
// defines shard ownership for steal detection: the owner of a shard's
// buckets is queue = bucket mod queues. 0 disables the accounting.
func (t *FlowTable) SetQueues(n int) { t.queues = n }

// SetOwnerMap ties shard ownership to a live steering map (normally the
// same rss.Map the machine's NICs steer with): when the rebalancer
// repoints a bucket, the shard's expected CPU moves with it, so steal
// accounting measures violations of the *current* steering, not of the
// boot-time fill.
func (t *FlowTable) SetOwnerMap(m *rss.Map) { t.owners = m }

// SetFlowOwner records an aRFS override: k's deliveries are expected from
// cpu regardless of its bucket's owner. Cleared by ClearFlowOwner or when
// the flow is removed.
func (t *FlowTable) SetFlowOwner(k FlowKey, cpu int) {
	if t.flowOwners == nil {
		t.flowOwners = make(map[FlowKey]int)
	}
	t.flowOwners[k] = cpu
}

// ClearFlowOwner drops k's aRFS override (rule eviction or removal).
func (t *FlowTable) ClearFlowOwner(k FlowKey) { delete(t.flowOwners, k) }

// FlowOwnerOverrides returns the number of live per-flow overrides.
func (t *FlowTable) FlowOwnerOverrides() int { return len(t.flowOwners) }

// OwnerOf returns the CPU expected to deliver k's packets under the
// current steering (per-flow override, then the live map, then the static
// fill), or -1 when ownership accounting is off.
func (t *FlowTable) OwnerOf(k FlowKey, hash uint32) int {
	if len(t.flowOwners) > 0 {
		if cpu, ok := t.flowOwners[k]; ok {
			return cpu
		}
	}
	if t.owners != nil {
		return t.owners.Queue(hash)
	}
	if t.queues > 0 {
		return rss.QueueOf(hash, t.queues)
	}
	return -1
}

// Lookup demuxes k without attributing the delivery to a CPU; see
// LookupOn.
func (t *FlowTable) Lookup(k FlowKey, hash uint32, netPackets int, aggregated bool) *tcp.Endpoint {
	return t.LookupOn(-1, k, hash, netPackets, aggregated)
}

// LookupOn demuxes k on behalf of softirq CPU cpu (-1 = unattributed),
// recording the delivery (netPackets frames in one host packet, aggregated
// or not) in the owning shard's counters. A delivery from a CPU other than
// the shard's owner counts as a steal. hash is the NIC's Toeplitz hash of
// k when available (0 recomputes in software) — on the hot path the
// hardware already paid for it, and it necessarily equals hashOf(k)
// because both hash the same four-tuple. It returns nil when no endpoint
// is bound. The structural touches of the probe (or the map's dependent
// line chase) charge cycles.Rx at the capacity-miss excess: demux is part
// of TCP receive processing, and its memory traffic is the cost that
// grows with the registered population.
func (t *FlowTable) LookupOn(cpu int, k FlowKey, hash uint32, netPackets int, aggregated bool) *tcp.Endpoint {
	if hash == 0 {
		hash = hashOf(k)
	}
	s := &t.shards[rss.ShardOf(hash, len(t.shards))]
	if cpu >= 0 && t.queues > 0 {
		if owner := t.OwnerOf(k, hash); owner >= 0 && owner != cpu {
			s.stats.Steals++
		}
	}
	ep, lines := t.find(s, hash, k)
	t.charge(cycles.Rx, lines, t.bytes)
	if ep == nil {
		s.stats.Misses++
		return nil
	}
	s.stats.HostPackets++
	s.stats.NetPackets += uint64(netPackets)
	if aggregated {
		s.stats.Aggregates++
	}
	return ep
}

// CheckAccounting verifies the table's accounting identities: Len equals
// the shards' occupied entries, their Endpoints counters and the
// registry's references, and StructBytes equals the slot arrays'
// modeled size (open layout) or the entries' (map layout). It only reads
// state; the error names the identity that fails.
func (t *FlowTable) CheckAccounting() error {
	entries, endpoints := 0, 0
	var slots uint64
	for i := range t.shards {
		s := &t.shards[i]
		if t.layout == LayoutSeedMap {
			entries += len(s.conns)
		} else {
			entries += s.used
		}
		endpoints += s.stats.Endpoints
		slots += uint64(len(s.slots))
	}
	var refs uint64
	for _, r := range t.reg.refs {
		refs += uint64(r)
	}
	switch {
	case entries != t.count:
		return fmt.Errorf("netstack: flow-table accounting: Len %d != Σ shard entries %d", t.count, entries)
	case endpoints != t.count:
		return fmt.Errorf("netstack: flow-table accounting: Len %d != Σ ShardStats.Endpoints %d", t.count, endpoints)
	case refs != uint64(t.count):
		return fmt.Errorf("netstack: flow-table accounting: Len %d != Σ registry refs %d", t.count, refs)
	case t.layout == LayoutOpenAddressed && t.bytes != slots*FlowSlotBytes:
		return fmt.Errorf("netstack: flow-table accounting: StructBytes %d != Σ len(slots)·FlowSlotBytes %d",
			t.bytes, slots*FlowSlotBytes)
	case t.layout == LayoutSeedMap && t.bytes != uint64(t.count)*flowMapEntryBytes:
		return fmt.Errorf("netstack: flow-table accounting: StructBytes %d != Len·flowMapEntryBytes %d",
			t.bytes, uint64(t.count)*flowMapEntryBytes)
	}
	return nil
}

// ShardStatsOf returns a copy of shard i's counters.
func (t *FlowTable) ShardStatsOf(i int) ShardStats { return t.shards[i].stats }

// Occupancy returns the endpoint count per shard (a fresh slice).
func (t *FlowTable) Occupancy() []int {
	occ := make([]int, len(t.shards))
	for i := range t.shards {
		if t.layout == LayoutSeedMap {
			occ[i] = len(t.shards[i].conns)
		} else {
			occ[i] = t.shards[i].used
		}
	}
	return occ
}

// TableStats is the demux structure summary: layout, footprint, charged
// demux cycles, per-shard load factors and the probe-length distribution
// of the resident entries (open layout; the map layout has no meaningful
// probe or load-factor notion and reports zeros). It is what replaces
// raw per-shard dumps at million-endpoint scale.
type TableStats struct {
	// Layout is the shard layout ("open" or "map" in reports).
	Layout FlowLayout `json:"layout"`
	// Entries is the registered-endpoint count, Slots the allocated slot
	// count across shards (0 in the map layout).
	Entries int `json:"entries"`
	Slots   int `json:"slots,omitempty"`
	// Bytes is the modeled structure footprint (slot arrays or map
	// buckets, not the endpoints); DemuxCycles the cycles charged for
	// structural demux touches so far.
	Bytes       uint64 `json:"bytes"`
	DemuxCycles uint64 `json:"demux_cycles"`
	// LoadMin/LoadP50/LoadMax summarize per-shard load factor
	// (used/slots) over the shards that have slots.
	LoadMin float64 `json:"load_min,omitempty"`
	LoadP50 float64 `json:"load_p50,omitempty"`
	LoadMax float64 `json:"load_max,omitempty"`
	// ProbeMin/ProbeP50/ProbeMax summarize the resident entries' probe
	// lengths; ProbeHist[i] counts entries at probe length i+1.
	ProbeMin  int      `json:"probe_min,omitempty"`
	ProbeP50  int      `json:"probe_p50,omitempty"`
	ProbeMax  int      `json:"probe_max,omitempty"`
	ProbeHist []uint64 `json:"probe_hist,omitempty"`
}

// TableStats scans the table and assembles its structure summary.
func (t *FlowTable) TableStats() TableStats {
	ts := TableStats{Layout: t.layout, Entries: t.count, Bytes: t.bytes, DemuxCycles: t.demuxCycles}
	if t.layout == LayoutSeedMap {
		return ts
	}
	var loads []float64
	var hist []uint64
	resident := uint64(0)
	for i := range t.shards {
		s := &t.shards[i]
		if len(s.slots) == 0 {
			continue
		}
		ts.Slots += len(s.slots)
		loads = append(loads, float64(s.used)/float64(len(s.slots)))
		for j := range s.slots {
			if d := int(s.slots[j].dist); d > 0 {
				for len(hist) < d {
					hist = append(hist, 0)
				}
				hist[d-1]++
				resident++
			}
		}
	}
	if len(loads) > 0 {
		sort.Float64s(loads)
		ts.LoadMin, ts.LoadP50, ts.LoadMax = loads[0], loads[len(loads)/2], loads[len(loads)-1]
	}
	if resident > 0 {
		// Probe lengths 1..len(hist) in histogram order: the min is the
		// first non-empty bucket, the max the last (hist only grows to
		// the longest length seen), the median the bucket holding the
		// resident/2'th entry (0-based) of the sorted lengths.
		ts.ProbeMax = len(hist)
		seen := uint64(0)
		for d, n := range hist {
			if n > 0 && ts.ProbeMin == 0 {
				ts.ProbeMin = d + 1
			}
			if seen += n; seen > resident/2 {
				ts.ProbeP50 = d + 1
				break
			}
		}
		ts.ProbeHist = hist
	}
	return ts
}
