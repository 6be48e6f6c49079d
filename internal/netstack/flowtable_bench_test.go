package netstack

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
)

// BenchmarkFlowTable_Register1M measures the demux table's build path on
// its own: one million idle-shaped registrations (the connscale seeding
// key space — 60k ports per remote address under 172.16/12, one local
// listener, one shared endpoint) into a freshly built, priced Stack.
func BenchmarkFlowTable_Register1M(b *testing.B) {
	const n = 1_000_000
	params := cost.NativeUP()
	ep := testEndpoint(b, 1024, 8080)
	local := ipv4.Addr{172, 16, 0, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m cycles.Meter
		st := New(&m, &params, buf.NewAllocator(&m, &params))
		for j := 0; j < n; j++ {
			ipIdx := j / 60000
			remote := ipv4.Addr{172, byte(16 + ipIdx/256), byte(ipIdx % 256), 1}
			if err := st.Register(ep, remote, local, uint16(1024+j%60000), 8080); err != nil {
				b.Fatal(err)
			}
		}
	}
}
