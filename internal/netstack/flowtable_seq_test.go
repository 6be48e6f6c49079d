package netstack

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/rss"
	"repro/internal/tcp"
)

// connscaleKey is the i'th key of the connscale idle population: 60k
// ports per remote address under 172.16/12, one local listener.
func connscaleKey(i int) FlowKey {
	ipIdx := i / 60000
	return FlowKey{
		Src:     ipv4.Addr{172, byte(16 + ipIdx/256), byte(ipIdx % 256), 1},
		Dst:     ipv4.Addr{172, 16, 0, 2},
		SrcPort: uint16(1024 + i%60000),
		DstPort: 8080,
	}
}

// seqBuild is one table under construction: a bare, unpriced FlowTable,
// or (priced) the table of a Stack charging meter.
type seqBuild struct {
	tab   *FlowTable
	meter *cycles.Meter
	st    *Stack
}

func newSeqBuild(t *testing.T, layout FlowLayout, shards int, params *cost.Params) seqBuild {
	t.Helper()
	if params == nil {
		tab, err := NewFlowTableLayout(shards, layout)
		if err != nil {
			t.Fatal(err)
		}
		return seqBuild{tab: tab}
	}
	m := new(cycles.Meter)
	st, err := NewShardedLayout(m, params, buf.NewAllocator(m, params), shards, layout)
	if err != nil {
		t.Fatal(err)
	}
	return seqBuild{tab: st.FlowTable(), meter: m, st: st}
}

func (b seqBuild) insert(k FlowKey, ep *tcp.Endpoint) error {
	if b.st != nil {
		return b.st.Register(ep, k.Src, k.Dst, k.SrcPort, k.DstPort)
	}
	return b.tab.Insert(k, ep)
}

func (b seqBuild) insertSeq(n int, key func(int) FlowKey, ep *tcp.Endpoint) error {
	if b.st != nil {
		return b.st.RegisterSeq(n, key, ep)
	}
	return b.tab.InsertSeq(n, key, ep)
}

// prepopulate registers the active flows a run opens before seeding its
// idle population: 300 keys outside the connscale space bound round-robin
// to eps[0..2], then removes every key of eps[2] (freeing its registry
// handle) and every fifth other key (backward-shift holes).
func (b seqBuild) prepopulate(t *testing.T, eps []*tcp.Endpoint) {
	t.Helper()
	for i := 0; i < 300; i++ {
		if err := b.insert(diffKey(i), eps[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if i%3 == 2 || i%5 == 0 {
			if !b.tab.Remove(diffKey(i)) {
				t.Fatalf("prepopulate: Remove(key %d) failed", i)
			}
		}
	}
}

// compareBuilds requires the per-key and bulk builds to agree on every
// observable field and both to pass CheckAccounting.
func compareBuilds(t *testing.T, per, bulk seqBuild) {
	t.Helper()
	if err := per.tab.CheckAccounting(); err != nil {
		t.Fatalf("per-key build: %v", err)
	}
	if err := bulk.tab.CheckAccounting(); err != nil {
		t.Fatalf("bulk build: %v", err)
	}
	a, c := per.tab, bulk.tab
	if a.Len() != c.Len() || a.StructBytes() != c.StructBytes() || a.DemuxCycles() != c.DemuxCycles() {
		t.Fatalf("Len/StructBytes/DemuxCycles: per-key %d/%d/%d, bulk %d/%d/%d",
			a.Len(), a.StructBytes(), a.DemuxCycles(), c.Len(), c.StructBytes(), c.DemuxCycles())
	}
	for si := range a.shards {
		s1, s2 := &a.shards[si], &c.shards[si]
		if s1.used != s2.used || s1.stats != s2.stats || len(s1.slots) != len(s2.slots) {
			t.Fatalf("shard %d: per-key used %d stats %+v slots %d; bulk used %d stats %+v slots %d",
				si, s1.used, s1.stats, len(s1.slots), s2.used, s2.stats, len(s2.slots))
		}
		for j := range s1.slots {
			if s1.slots[j] != s2.slots[j] {
				t.Fatalf("shard %d slot %d: per-key %+v, bulk %+v", si, j, s1.slots[j], s2.slots[j])
			}
		}
		if !maps.Equal(s1.conns, s2.conns) {
			t.Fatalf("shard %d: map entries diverged", si)
		}
	}
	if ts1, ts2 := a.TableStats(), c.TableStats(); !reflect.DeepEqual(ts1, ts2) {
		t.Fatalf("TableStats:\nper-key %+v\nbulk    %+v", ts1, ts2)
	}
	r1, r2 := &a.reg, &c.reg
	if !reflect.DeepEqual(r1.eps, r2.eps) || !reflect.DeepEqual(r1.refs, r2.refs) ||
		!reflect.DeepEqual(r1.free, r2.free) || !maps.Equal(r1.ids, r2.ids) {
		t.Fatalf("registries diverged:\nper-key refs %v free %v\nbulk    refs %v free %v",
			r1.refs, r1.free, r2.refs, r2.free)
	}
	if per.st != nil {
		if *per.meter != *bulk.meter {
			t.Fatalf("meters diverged:\nper-key %+v\nbulk    %+v", per.meter.Snapshot(), bulk.meter.Snapshot())
		}
		if m1, m2 := per.st.MemStats(), bulk.st.MemStats(); m1 != m2 {
			t.Fatalf("MemStats:\nper-key %+v\nbulk    %+v", m1, m2)
		}
	}
}

// TestInsertSeqMatchesInsert builds the same population twice, once with
// one Insert (Register) per key in index order and once with one
// InsertSeq (RegisterSeq) call, and requires the two tables to be
// identical field by field: every shard's slots, occupancy and counters,
// the footprint, the charged demux cycles and the meter they were charged
// to, the table summary, the endpoint registry and the stack's memory
// budget with its peak. It covers both layouts, priced and unpriced
// tables, empty and pre-populated starting states, sizes either side of
// a single shard's growth boundaries, and the 200k and million-key
// connscale populations over the default shard count.
//
// Priced builds below 200k keys shrink the modeled cache to 1 KiB so
// every size pays capacity charges that move with the footprint; the
// large builds use the stock parameters, under which the table outgrows
// the 2 MiB cache partway through.
//
// The cases run from small to large and stop at the first failure: a
// build that diverges early (a recycled slot array holding stale
// entries, say) can leave a larger build's probe loop without an empty
// slot.
func TestInsertSeqMatchesInsert(t *testing.T) {
	type size struct {
		name   string
		shards int
		n      int
		key    func(int) FlowKey
	}
	var sizes []size
	for _, n := range []int{0, 1, 6, 7, 8, 12, 13, 24, 25, 48, 49, 96, 97, 768, 769} {
		sizes = append(sizes, size{"", 1, n, connscaleKey})
	}
	// Two shards, the first outgrowing its first slot array before the
	// second allocates one: the bulk build hands that array on.
	var recycle []FlowKey
	for i, in0, in1 := 0, 0, 0; in0 < 7 || in1 < 2; i++ {
		k := connscaleKey(i)
		if rss.ShardOf(hashOf(k), 2) == 0 && in0 < 7 {
			recycle, in0 = append(recycle, k), in0+1
		} else if rss.ShardOf(hashOf(k), 2) == 1 && in0 == 7 && in1 < 2 {
			recycle, in1 = append(recycle, k), in1+1
		}
	}
	sizes = append(sizes, size{"recycled/", 2, len(recycle), func(i int) FlowKey { return recycle[i] }})
	for _, n := range []int{0, 1, 7, 8, 1000, 200_000, 1_000_000} {
		sizes = append(sizes, size{"", 0, n, connscaleKey})
	}
	eps := []*tcp.Endpoint{
		testEndpoint(t, 5001, 44000),
		testEndpoint(t, 5002, 44000),
		testEndpoint(t, 5003, 44000),
	}
	idle := testEndpoint(t, 1024, 8080)
	for _, layout := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		for _, priced := range []bool{false, true} {
			for _, state := range []string{"empty", "prepop", "prepop-shared"} {
				for _, sz := range sizes {
					if sz.n == 1_000_000 && (layout == LayoutSeedMap || state == "prepop-shared" ||
						priced != (state == "prepop")) {
						// At a million keys only the pure build (unpriced,
						// empty) and connscale's own (priced, active flows
						// first) run: the map layout's bulk path is the
						// per-key loop itself, and every other combination
						// is covered at 200k.
						continue
					}
					name := fmt.Sprintf("%v/priced=%v/%s/%sshards=%d/n=%d",
						layout, priced, state, sz.name, sz.shards, sz.n)
					ok := t.Run(name, func(t *testing.T) {
						var params *cost.Params
						if priced {
							p := cost.NativeUP()
							if sz.n < 200_000 {
								p.Mem.CacheBytes = 1 << 10
							}
							params = &p
						}
						per := newSeqBuild(t, layout, sz.shards, params)
						bulk := newSeqBuild(t, layout, sz.shards, params)
						ep := idle
						if state != "empty" {
							per.prepopulate(t, eps)
							bulk.prepopulate(t, eps)
							if state == "prepop-shared" {
								ep = eps[0]
							}
						}
						for i := 0; i < sz.n; i++ {
							if err := per.insert(sz.key(i), ep); err != nil {
								t.Fatal(err)
							}
						}
						if err := bulk.insertSeq(sz.n, sz.key, ep); err != nil {
							t.Fatal(err)
						}
						compareBuilds(t, per, bulk)
						if priced && sz.n >= 1000 && bulk.tab.DemuxCycles() == 0 {
							t.Fatal("priced build charged no demux cycles: the comparison is vacuous")
						}
						if layout == LayoutOpenAddressed {
							checkOpenInvariants(t, bulk.tab)
						}
					})
					if !ok {
						t.FailNow()
					}
				}
			}
		}
	}
}

// TestInsertSeqDuplicate pins InsertSeq's contract: a key already in the
// table, or repeated within the batch, makes it return a duplicate error
// (the table is then part-built and must be discarded), in both layouts,
// including when the duplicate's shard must grow first; a nil endpoint
// errors like Insert. RegisterSeq binds the endpoint's output.
func TestInsertSeqDuplicate(t *testing.T) {
	ep := testEndpoint(t, 1024, 8080)
	for _, layout := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		cases := []struct {
			name     string
			shards   int
			resident int // connscaleKey(0..resident-1) inserted first
			n        int
			key      func(int) FlowKey
		}{
			{"repeated-in-batch", 0, 0, 10, func(i int) FlowKey { return connscaleKey(i % 5) }},
			{"already-resident", 0, 4, 10, connscaleKey},
			// Six resident keys fill a one-shard table to its growth
			// point, so the duplicate's insert grows the shard first.
			{"resident-at-growth", 1, 6, 3, func(i int) FlowKey { return connscaleKey(5 - i) }},
		}
		for _, c := range cases {
			tab, err := NewFlowTableLayout(c.shards, layout)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.resident; i++ {
				if err := tab.Insert(connscaleKey(i), ep); err != nil {
					t.Fatal(err)
				}
			}
			err = tab.InsertSeq(c.n, c.key, ep)
			if err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Errorf("%v/%s: InsertSeq err = %v, want a duplicate error", layout, c.name, err)
			}
		}
		tab, err := NewFlowTableLayout(0, layout)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.InsertSeq(3, connscaleKey, nil); err == nil {
			t.Errorf("%v: InsertSeq with a nil endpoint did not error", layout)
		}
	}
	var m cycles.Meter
	params := cost.NativeUP()
	st := New(&m, &params, buf.NewAllocator(&m, &params))
	fresh := testEndpoint(t, 1024, 8080)
	if err := st.RegisterSeq(3, connscaleKey, fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Output == nil || st.Endpoints() != 3 {
		t.Errorf("RegisterSeq: Output bound %v, %d endpoints; want bound, 3", fresh.Output != nil, st.Endpoints())
	}
}

// TestCheckAccounting requires every identity to hold on a table that has
// been filled, drained and refilled, and each broken identity to be named.
func TestCheckAccounting(t *testing.T) {
	ep := testEndpoint(t, 1024, 8080)
	for _, layout := range []FlowLayout{LayoutOpenAddressed, LayoutSeedMap} {
		newTab := func() *FlowTable {
			tab, err := NewFlowTableLayout(4, layout)
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.InsertSeq(100, connscaleKey, ep); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i += 3 {
				tab.Remove(connscaleKey(i))
			}
			if err := tab.Insert(connscaleKey(0), ep); err != nil {
				t.Fatal(err)
			}
			if err := tab.CheckAccounting(); err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			return tab
		}
		mutations := []struct {
			want   string
			mutate func(*FlowTable)
		}{
			{"Σ shard entries", func(tab *FlowTable) { tab.count++; tab.shards[0].stats.Endpoints++; tab.reg.refs[0]++ }},
			{"Σ ShardStats.Endpoints", func(tab *FlowTable) { tab.shards[1].stats.Endpoints-- }},
			{"Σ registry refs", func(tab *FlowTable) { tab.reg.refs[0]++ }},
			{"StructBytes", func(tab *FlowTable) { tab.bytes += 8 }},
		}
		for _, mu := range mutations {
			tab := newTab()
			mu.mutate(tab)
			if err := tab.CheckAccounting(); err == nil || !strings.Contains(err.Error(), mu.want) {
				t.Errorf("%v: breaking %q gave %v", layout, mu.want, err)
			}
		}
	}
}
