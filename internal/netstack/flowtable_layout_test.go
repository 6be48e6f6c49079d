package netstack

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// diffKey generates the i'th four-tuple of the differential key space:
// unique remote hosts across a private range, a spread of source ports,
// one local listener — the addressing shape of a million-endpoint server.
func diffKey(i int) FlowKey {
	return FlowKey{
		Src:     ipv4.Addr{10, byte(64 + i>>16), byte(i >> 8), byte(i)},
		Dst:     rcvrIP,
		SrcPort: uint16(1024 + i%60000),
		DstPort: 8080,
	}
}

// layoutPair drives an open-addressed and a seed-map table in lockstep
// over a fixed key space and fails at the first divergence. bound tracks
// the endpoint each key should resolve to (nil when absent).
type layoutPair struct {
	t          *testing.T
	open, seed *FlowTable
	keys       []FlowKey
	bound      []*tcp.Endpoint
}

func newLayoutPair(t *testing.T, shards int, keys []FlowKey) *layoutPair {
	t.Helper()
	open, err := NewFlowTableLayout(shards, LayoutOpenAddressed)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := NewFlowTableLayout(shards, LayoutSeedMap)
	if err != nil {
		t.Fatal(err)
	}
	// Both tables attribute deliveries to 4 softirq CPUs so steal
	// accounting is exercised (and must match) too.
	open.SetQueues(4)
	seed.SetQueues(4)
	return &layoutPair{t: t, open: open, seed: seed, keys: keys, bound: make([]*tcp.Endpoint, len(keys))}
}

// insert registers ep under key i in both layouts; both must accept a
// new key and reject a present one, whatever endpoint it names.
func (p *layoutPair) insert(i int, ep *tcp.Endpoint) {
	p.t.Helper()
	e1 := p.open.Insert(p.keys[i], ep)
	e2 := p.seed.Insert(p.keys[i], ep)
	if (e1 == nil) != (e2 == nil) {
		p.t.Fatalf("Insert(key %d) diverged: open err=%v, map err=%v", i, e1, e2)
	}
	if (e1 == nil) != (p.bound[i] == nil) {
		p.t.Fatalf("Insert(key %d) err=%v, but key present=%v", i, e1, p.bound[i] != nil)
	}
	if e1 == nil {
		p.bound[i] = ep
	}
}

// insertSeq registers ep under keys idx (absent and distinct) through
// one InsertSeq call on each layout.
func (p *layoutPair) insertSeq(idx []int, ep *tcp.Endpoint) {
	p.t.Helper()
	key := func(j int) FlowKey { return p.keys[idx[j]] }
	if err := p.open.InsertSeq(len(idx), key, ep); err != nil {
		p.t.Fatalf("InsertSeq(keys %v) on open: %v", idx, err)
	}
	if err := p.seed.InsertSeq(len(idx), key, ep); err != nil {
		p.t.Fatalf("InsertSeq(keys %v) on map: %v", idx, err)
	}
	for _, i := range idx {
		p.bound[i] = ep
	}
}

func (p *layoutPair) remove(i int) {
	p.t.Helper()
	r1 := p.open.Remove(p.keys[i])
	r2 := p.seed.Remove(p.keys[i])
	if r1 != r2 {
		p.t.Fatalf("Remove(key %d) diverged: open=%v, map=%v", i, r1, r2)
	}
	if r1 != (p.bound[i] != nil) {
		p.t.Fatalf("Remove(key %d) = %v, want %v", i, r1, p.bound[i] != nil)
	}
	p.bound[i] = nil
}

func (p *layoutPair) lookup(i, cpu, netPackets int, agg bool) {
	p.t.Helper()
	p1 := p.open.LookupOn(cpu, p.keys[i], 0, netPackets, agg)
	p2 := p.seed.LookupOn(cpu, p.keys[i], 0, netPackets, agg)
	if p1 != p2 {
		p.t.Fatalf("LookupOn(key %d) diverged: open=%p, map=%p", i, p1, p2)
	}
	if p1 != p.bound[i] {
		p.t.Fatalf("LookupOn(key %d) = %p, want %p", i, p1, p.bound[i])
	}
}

// check compares everything observable: length, per-shard occupancy and
// counters, every key's resolution, and each table's endpoint registry,
// and requires both tables' accounting identities to hold.
func (p *layoutPair) check(stage string) {
	p.t.Helper()
	open, seed := p.open, p.seed
	if err := open.CheckAccounting(); err != nil {
		p.t.Fatalf("%s (open): %v", stage, err)
	}
	if err := seed.CheckAccounting(); err != nil {
		p.t.Fatalf("%s (map): %v", stage, err)
	}
	if open.Len() != seed.Len() {
		p.t.Fatalf("%s: Len diverged: open=%d, map=%d", stage, open.Len(), seed.Len())
	}
	occ1, occ2 := open.Occupancy(), seed.Occupancy()
	for s := range occ1 {
		if occ1[s] != occ2[s] {
			p.t.Fatalf("%s: shard %d occupancy diverged: open=%d, map=%d",
				stage, s, occ1[s], occ2[s])
		}
		if s1, s2 := open.ShardStatsOf(s), seed.ShardStatsOf(s); s1 != s2 {
			p.t.Fatalf("%s: shard %d stats diverged:\nopen: %+v\nmap:  %+v", stage, s, s1, s2)
		}
	}
	for i, k := range p.keys {
		o, m := open.Peek(k), seed.Peek(k)
		if o != m || o != p.bound[i] {
			p.t.Fatalf("%s: Peek(key %d) diverged: open=%p, map=%p, want %p",
				stage, i, o, m, p.bound[i])
		}
	}
	refs := map[*tcp.Endpoint]uint32{}
	var distinct []*tcp.Endpoint
	for _, ep := range p.bound {
		if ep == nil {
			continue
		}
		if refs[ep] == 0 {
			distinct = append(distinct, ep)
		}
		refs[ep]++
	}
	checkRegistry(p.t, stage+" (open)", &open.reg, distinct, refs)
	checkRegistry(p.t, stage+" (map)", &seed.reg, distinct, refs)
}

// checkRegistry requires r to hold exactly the distinct endpoints, each
// under one live handle counting its references, with every other handle
// free.
func checkRegistry(t *testing.T, stage string, r *epRegistry, distinct []*tcp.Endpoint, refs map[*tcp.Endpoint]uint32) {
	t.Helper()
	if len(r.ids) != len(distinct) || len(r.eps)-len(r.free) != len(distinct) {
		t.Fatalf("%s: registry holds %d endpoints (%d handles, %d free), want %d",
			stage, len(r.ids), len(r.eps), len(r.free), len(distinct))
	}
	for _, ep := range distinct {
		h, ok := r.ids[ep]
		if !ok || r.eps[h] != ep || r.refs[h] != refs[ep] {
			t.Fatalf("%s: endpoint %p: handle %d present=%v, refs %d, want %d",
				stage, ep, h, ok, r.refs[h], refs[ep])
		}
	}
	for _, h := range r.free {
		if r.eps[h] != nil || r.refs[h] != 0 {
			t.Fatalf("%s: free handle %d still bound (refs %d)", stage, h, r.refs[h])
		}
	}
}

// TestFlowLayoutDifferential drives the open-addressed and seed-map
// layouts with an identical seeded-random interleaving of inserts,
// removes and attributed lookups over >100k keys bound to three
// endpoints, and requires them to agree exactly at every observation
// point: duplicate/missing verdicts, per-key resolution, table length,
// per-shard occupancy, the full per-shard counter set (hits, misses,
// aggregates, steals) and the endpoint registries. The open layout is a
// pure representation change; any behavioral divergence from the
// seed-map baseline is a bug.
func TestFlowLayoutDifferential(t *testing.T) {
	const nKeys = 120_000
	keys := make([]FlowKey, nKeys)
	for i := range keys {
		keys[i] = diffKey(i)
	}
	p := newLayoutPair(t, 64, keys)
	eps := []*tcp.Endpoint{
		testEndpoint(t, 5001, 44000),
		testEndpoint(t, 5002, 44000),
		testEndpoint(t, 5003, 44000),
	}

	rng := rand.New(rand.NewSource(20080607))
	// Phase 1: bulk registration in shuffled order (every key, plus
	// duplicate attempts sprinkled in).
	order := rng.Perm(nKeys)
	for n, i := range order {
		p.insert(i, eps[i%len(eps)])
		if n%1000 == 0 {
			p.insert(i, eps[(i+1)%len(eps)]) // duplicate attempt
		}
	}
	p.check("after bulk insert")

	// Phase 2: a long random interleaving of lookups (hits and misses),
	// removes and re-inserts over the whole key space.
	for op := 0; op < 150_000; op++ {
		i := rng.Intn(nKeys)
		switch r := rng.Intn(10); {
		case r < 5:
			p.lookup(i, rng.Intn(4), 1+rng.Intn(4), rng.Intn(2) == 0)
		case r < 8:
			p.remove(i)
		default:
			p.insert(i, eps[rng.Intn(len(eps))])
		}
	}
	p.check("after interleaved ops")

	// Phase 3: drain most of the population (backward-shift deletes at
	// scale), then verify the survivors still resolve.
	for i := 0; i < nKeys; i++ {
		if i%8 != 0 {
			p.remove(i)
		}
	}
	p.check("after drain")

	if p.open.StructBytes() == 0 || p.seed.StructBytes() == 0 {
		t.Errorf("layouts report no structure footprint: open=%d, map=%d",
			p.open.StructBytes(), p.seed.StructBytes())
	}
	ts := p.open.TableStats()
	if ts.Entries != p.open.Len() || ts.Slots == 0 || ts.ProbeMax < ts.ProbeP50 {
		t.Errorf("open TableStats inconsistent: %+v", ts)
	}
}

// FuzzFlowTableOps decodes its input as two-byte ops over 40 keys in 2
// shards (so slot arrays grow through several doublings and probe runs
// collide) and 4 endpoints, runs them against both layouts through
// layoutPair, then removes every key: the registries must end empty.
// Op byte o, argument byte a, key a%40:
//
//	o%4 == 0, o < 16: insert, endpoint (o>>2)%4
//	o%4 == 0, o >= 16: bulk insert through InsertSeq, endpoint (o>>2)%4,
//	          of the first (o>>4)*3 absent keys from key a upwards (wrapping)
//	o%4 == 1: insert twice (the second is a duplicate), endpoint (o>>2)%4
//	o%4 == 2: remove
//	o%4 == 3: lookup on CPU (o>>2)%4, (o>>4)%4+1 frames, aggregated if o>=128
func FuzzFlowTableOps(f *testing.F) {
	const nKeys, nEps = 40, 4
	keys := make([]FlowKey, nKeys)
	for i := range keys {
		keys[i] = diffKey(i)
	}
	// The tables only compare endpoint identities, so every input shares
	// one set.
	eps := make([]*tcp.Endpoint, nEps)
	for i := range eps {
		eps[i] = testEndpoint(f, uint16(5001+i), 44000)
	}
	f.Add([]byte{0, 1, 4, 2, 9, 1, 2, 1, 3, 2, 0x83, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := newLayoutPair(t, 2, keys)
		for n := 0; n+1 < len(ops); n += 2 {
			o, i := ops[n], int(ops[n+1])%nKeys
			switch o % 4 {
			case 0:
				if o < 16 {
					p.insert(i, eps[(o>>2)%nEps])
					break
				}
				var run []int
				for j := 0; j < nKeys && len(run) < int(o>>4)*3; j++ {
					if k := (i + j) % nKeys; p.bound[k] == nil {
						run = append(run, k)
					}
				}
				p.insertSeq(run, eps[(o>>2)%nEps])
			case 1:
				p.insert(i, eps[(o>>2)%nEps])
				p.insert(i, eps[(o>>3)%nEps])
			case 2:
				p.remove(i)
			case 3:
				p.lookup(i, int(o>>2)%4, int(o>>4)%4+1, o >= 128)
			}
		}
		p.check("after ops")
		checkOpenInvariants(t, p.open)
		for i := range keys {
			if p.bound[i] != nil {
				p.remove(i)
			}
		}
		p.check("after removing every key")
		if len(p.open.reg.ids) != 0 || len(p.seed.reg.ids) != 0 {
			t.Fatalf("registries not empty: open %d, map %d", len(p.open.reg.ids), len(p.seed.reg.ids))
		}
	})
}

// checkOpenInvariants verifies the open layout's structural invariants
// slot by slot: every resident entry's stored hash matches its key, it
// lives in the shard the hash selects, its recorded probe distance is
// exactly its displacement from the home slot, robin-hood ordering holds
// (an entry at distance d>1 has a predecessor at distance >= d-1, so no
// lookup can early-exit past a live key), no shard exceeds 3/4 load, and
// the per-shard used counts sum to Len.
func checkOpenInvariants(t *testing.T, tab *FlowTable) {
	t.Helper()
	total := 0
	var slotBytes uint64
	for si := range tab.shards {
		s := &tab.shards[si]
		if len(s.slots) == 0 {
			if s.used != 0 {
				t.Errorf("shard %d: used=%d with no slots", si, s.used)
			}
			continue
		}
		slotBytes += uint64(len(s.slots)) * FlowSlotBytes
		if len(s.slots)&(len(s.slots)-1) != 0 {
			t.Errorf("shard %d: slot count %d not a power of two", si, len(s.slots))
		}
		if s.used*4 > len(s.slots)*3 {
			t.Errorf("shard %d: %d/%d slots used exceeds 3/4 load", si, s.used, len(s.slots))
		}
		mask := uint32(len(s.slots) - 1)
		used := 0
		for j := range s.slots {
			sl := s.slots[j]
			if sl.dist == 0 {
				continue
			}
			used++
			if sl.hash != hashOf(sl.key) {
				t.Errorf("shard %d slot %d: stored hash %08x != hashOf(key) %08x",
					si, j, sl.hash, hashOf(sl.key))
			}
			if own := rss.ShardOf(sl.hash, len(tab.shards)); own != si {
				t.Errorf("shard %d slot %d: key belongs to shard %d", si, j, own)
			}
			home := slotIndexHash(sl.hash) & mask
			wantDist := ((uint32(j) - home) & mask) + 1
			if uint32(sl.dist) != wantDist {
				t.Errorf("shard %d slot %d: dist=%d, actual displacement %d",
					si, j, sl.dist, wantDist)
			}
			if sl.dist > 1 {
				if prev := s.slots[(uint32(j)-1)&mask]; prev.dist < sl.dist-1 {
					t.Errorf("shard %d slot %d: robin-hood order broken (dist %d after %d)",
						si, j, sl.dist, prev.dist)
				}
			}
		}
		if used != s.used {
			t.Errorf("shard %d: used=%d but %d slots occupied", si, s.used, used)
		}
		total += used
	}
	if total != tab.Len() {
		t.Errorf("occupied slots %d != Len %d", total, tab.Len())
	}
	if slotBytes != tab.StructBytes() {
		t.Errorf("slot arrays hold %d bytes but StructBytes=%d", slotBytes, tab.StructBytes())
	}
}

// TestFlowOpenRobinHoodInvariants grows shards through multiple
// doublings, punches random holes with backward-shift deletes, refills,
// and checks the full invariant set after every phase.
func TestFlowOpenRobinHoodInvariants(t *testing.T) {
	tab, err := NewFlowTableLayout(8, LayoutOpenAddressed)
	if err != nil {
		t.Fatal(err)
	}
	ep := testEndpoint(t, 5001, 44000)
	rng := rand.New(rand.NewSource(1))
	const n = 50_000
	for i := 0; i < n; i++ {
		if err := tab.Insert(diffKey(i), ep); err != nil {
			t.Fatal(err)
		}
	}
	checkOpenInvariants(t, tab)

	removed := make([]bool, n)
	for _, i := range rng.Perm(n)[:n/2] {
		if !tab.Remove(diffKey(i)) {
			t.Fatalf("Remove(key %d) failed", i)
		}
		removed[i] = true
	}
	checkOpenInvariants(t, tab)
	for i := 0; i < n; i++ {
		got := tab.Peek(diffKey(i))
		if (got != nil) == removed[i] {
			t.Fatalf("after deletes, Peek(key %d) hit=%v, want %v", i, got != nil, !removed[i])
		}
	}

	for i := n; i < n+10_000; i++ {
		if err := tab.Insert(diffKey(i), ep); err != nil {
			t.Fatal(err)
		}
	}
	checkOpenInvariants(t, tab)
}

// TestFlowSlotPointerFree pins the stored slot: 24 bytes with no pointer
// field, so slot arrays are allocated noscan and the garbage collector
// neither marks them nor adds write barriers to slot stores.
// FlowSlotBytes (32) stays the modeled size.
func TestFlowSlotPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(flowSlot{}); n != 24 {
		t.Errorf("flowSlot is %d bytes, want 24", n)
	}
	var plain func(reflect.Type) bool
	plain = func(ft reflect.Type) bool {
		switch ft.Kind() {
		case reflect.Struct:
			for j := 0; j < ft.NumField(); j++ {
				if !plain(ft.Field(j).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return plain(ft.Elem())
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		}
		return false
	}
	if !plain(reflect.TypeOf(flowSlot{})) {
		t.Error("flowSlot has a field that is not plain integer data")
	}
}

// TestFlowLayoutParse pins the CLI names and their round-trip through
// the text marshaling the JSON reports use.
func TestFlowLayoutParse(t *testing.T) {
	cases := []struct {
		in   string
		want FlowLayout
	}{
		{"open", LayoutOpenAddressed},
		{"", LayoutOpenAddressed},
		{"map", LayoutSeedMap},
		{"seed", LayoutSeedMap},
	}
	for _, c := range cases {
		got, err := ParseFlowLayout(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFlowLayout(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseFlowLayout("cuckoo"); err == nil {
		t.Error("ParseFlowLayout(cuckoo) did not error")
	}
	for _, l := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		b, err := l.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back FlowLayout
		if err := back.UnmarshalText(b); err != nil || back != l {
			t.Errorf("round-trip of %v through %q gave %v, %v", l, b, back, err)
		}
	}
	if _, err := NewFlowTableLayout(8, FlowLayout(7)); err == nil {
		t.Error("NewFlowTableLayout with bogus layout did not error")
	}
}
