// Benchmarks over the experiment registry (internal/experiments) and the
// harness itself. Absolute wall-clock ns/op of the registry benchmarks
// measures the simulator, not the system under test — their interesting
// outputs are the custom metrics.
//
//	go test -run '^$' -bench . -benchmem
package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkExperiments runs every registry entry at 50 ms measured after a
// 25 ms warm-up, one sub-benchmark per entry (<entry>/up and <entry>/xen
// for entries that read the system). It reports every point's Mb/s and
// cycles/packet (req/s for Table 1) under the point's label and prints
// the entry's table on the first iteration.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All() {
		systems := []string{""}
		if e.ReadsSystem {
			systems = []string{"up", "xen"}
		}
		for _, sysName := range systems {
			name := e.Name
			p := experiments.Params{Queues: []int{1, 2, 4, 8}, WarmupNs: 25_000_000, DurationNs: 50_000_000}
			if sysName != "" {
				name += "/" + sysName
				p.System, _ = ParseSystem(sysName) // one of the two names above
			}
			b.Run(name, func(b *testing.B) {
				var pts []experiments.Point
				var res []experiments.Result
				for i := 0; i < b.N; i++ {
					pts = e.Points(p)
					res = make([]experiments.Result, len(pts))
					for j, pt := range pts {
						if res[j] = pt.Run(); res[j].Err != nil {
							b.Fatalf("%s: %v", pt.Label, res[j].Err)
						}
					}
					if i == 0 {
						e.Table(os.Stdout, pts, res)
					}
				}
				for j, pt := range pts {
					if pt.RR != nil {
						b.ReportMetric(res[j].RR.RequestsPerSec, pt.Label+"_req/s")
						continue
					}
					b.ReportMetric(res[j].Stream.ThroughputMbps, pt.Label+"_Mb/s")
					b.ReportMetric(res[j].Stream.CyclesPerPacket, pt.Label+"_cyc/pkt")
				}
			})
		}
	}
}

// BenchmarkHarness_WallClock measures the simulator harness itself —
// real wall-clock ns/op and allocs/op for one fixed experiment at 1, 2 and
// 4 queues. This is the one benchmark in the file where ns/op IS the
// interesting number: it tracks the hot-path time and allocation budget
// of the serial event loop. The workload is the connection-scale sweep
// point (8 links so the wire ceiling sits above the CPUs; 100k registered
// flows).
func BenchmarkHarness_WallClock(b *testing.B) {
	for _, q := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("q%d", q), func(b *testing.B) {
			cfg := DefaultStreamConfig(SystemNativeSMP, OptFull)
			cfg.NICs = 8
			cfg.Queues = q
			cfg.Connections = 64
			cfg.RegisteredFlows = 100_000
			cfg.DurationNs = 50_000_000
			cfg.WarmupNs = 25_000_000
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunStream(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.ThroughputMbps, "Mb/s")
				}
			}
		})
	}
}
