package netstack

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
)

// BenchmarkFlowTable_Register1M measures the demux table's per-key build
// path on its own: one million idle-shaped registrations (the connscale
// seeding key space, connscaleKey, one shared endpoint) into a freshly
// built, priced Stack. Churn and active flows still register this way.
func BenchmarkFlowTable_Register1M(b *testing.B) {
	const n = 1_000_000
	params := cost.NativeUP()
	ep := testEndpoint(b, 1024, 8080)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m cycles.Meter
		st := New(&m, &params, buf.NewAllocator(&m, &params))
		for j := 0; j < n; j++ {
			k := connscaleKey(j)
			if err := st.Register(ep, k.Src, k.Dst, k.SrcPort, k.DstPort); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFlowTable_RegisterSeq1M measures the bulk build of the same
// population through one RegisterSeq call, the path connscale seeding
// takes; it produces the table BenchmarkFlowTable_Register1M does.
func BenchmarkFlowTable_RegisterSeq1M(b *testing.B) {
	const n = 1_000_000
	params := cost.NativeUP()
	ep := testEndpoint(b, 1024, 8080)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m cycles.Meter
		st := New(&m, &params, buf.NewAllocator(&m, &params))
		if err := st.RegisterSeq(n, connscaleKey, ep); err != nil {
			b.Fatal(err)
		}
	}
}
