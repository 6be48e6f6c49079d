package main

import (
	"math"
	"sort"

	"repro"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a reported metric as BENCHMARK.json lists it. moves
// is, for a per-layer metric, the end-to-end metrics and workloads it
// should move.
type metricDef struct{ name, unit, better, moves string }

const mib = 1 << 20

var stageNames = []string{"wire", "ring", "softirq", "stack", "socket"}

// endToEndDefs are the metrics a --trace 0 run reports. Host metrics
// measure what the simulator costs its users; modeled ones what the
// simulated receiver achieves, and they repeat exactly.
var endToEndDefs = []metricDef{
	{"pass_s", "s", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"alloc_mb_per_pass", "MiB", "lower", ""},
	{"sim_mbps", "Mb/s", "higher", ""},
	{"sim_cycles_per_byte", "cycles/B", "lower", ""},
	{"sim_e2e_p99", "sim-us", "lower", ""},
	{"paper_err_pct", "%", "lower", ""},
}

// perLayerDefs are the metrics a --trace 1 run reports: host self time and
// allocation per layer and pass from the traced passes, runtime and
// tracing figures, and the modeled per-layer counters of the results.
func perLayerDefs() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d,
			metricDef{l.name + ".self_ms", "ms", "lower", l.moves},
			metricDef{l.name + ".alloc_mb", "MiB", "lower", l.moves})
	}
	const (
		gc      = "pass_s on every workload; follows alloc_mb_per_pass"
		cyc     = "sim_cycles_per_byte and sim_mbps on every workload"
		agg     = "sim_cycles_per_byte on paper_fig7 and xen_loss"
		demux   = "sim_cycles_per_byte on connscale_small"
		loss    = "sim_mbps and sim_e2e_p99 on xen_loss"
		stage   = "sim_e2e_p99 on xen_loss"
		cpu     = "sim_mbps where the receiver is CPU-bound"
		injects = "none: injected faults, inputs fixed by the seed"
	)
	d = append(d,
		metricDef{"runtime.gc.self_ms", "ms", "lower", gc},
		metricDef{"runtime.gc_cycles", "count", "lower", gc},
		metricDef{"runtime.allocs", "count", "lower", gc},
		metricDef{"runtime.peak_rss_mb", "MiB", "lower", "memory on connscale_small"},
		metricDef{"trace.overhead_pct", "%", "lower", "none: traced against untraced pass_s"},
		metricDef{"trace.unattributed_pct", "%", "lower", "none: what the fold could not place; bounded by the fold check"},
	)
	for i := 0; repro.Category(i).Valid(); i++ {
		d = append(d, metricDef{"cycles." + repro.Category(i).String(), "cycles/pkt", "lower", cyc})
	}
	d = append(d,
		metricDef{"aggregate.agg_factor", "frames/pkt", "higher", agg},
		metricDef{"aggregate.flush_mismatch", "count", "lower", agg},
		metricDef{"aggregate.stitched", "count", "higher", agg},
		metricDef{"aggregate.window_timeout", "count", "lower", agg},
		metricDef{"netstack.demux_cycles_per_pkt", "cycles/pkt", "lower", demux},
		metricDef{"netstack.timewait_peak", "count", "lower", demux},
		metricDef{"netstack.timewait_reused", "count", "higher", demux},
		metricDef{"netstack.mem_peak_mb", "MiB", "lower", demux},
		metricDef{"tcp.ooo_segs", "count", "lower", loss},
		metricDef{"tcp.fast_retransmits", "count", "lower", loss},
		metricDef{"tcp.rtos", "count", "lower", loss},
		metricDef{"tcp.sack_retransmits", "count", "lower", loss},
		metricDef{"tcp.recovery_p99", "sim-us", "lower", loss},
	)
	for _, s := range stageNames {
		d = append(d, metricDef{"stage." + s + ".p99", "sim-us", "lower", stage})
	}
	d = append(d,
		metricDef{"softirq.cpu_util", "ratio", "lower", cpu},
		metricDef{"softirq.util_spread", "ratio", "lower", cpu},
		metricDef{"sim.link.lost_frames", "count", "lower", injects},
		metricDef{"sim.link.reordered_frames", "count", "lower", injects},
	)
	return d
}

// metrics collects reported values under their declared units.
type metrics map[string]metric

func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			m[name] = metric{v, d.unit}
			return
		}
	}
	panic("rxperf: undeclared metric " + name)
}

// modeledEndToEnd fills the modeled end-to-end metrics from one pass's
// results (res) and latency results with telemetry on (lat), in config
// order. fig7 holds the six Figure 7 results.
func modeledEndToEnd(m metrics, res, lat, fig7 []repro.StreamResult) {
	var mbps, cpb, p99 float64
	for i := range res {
		mbps += res[i].ThroughputMbps
		cpb += res[i].CyclesPerByte()
		p99 += float64(lat[i].Latency.E2E.P99Ns) / 1e3
	}
	n := float64(len(res))
	m.set(endToEndDefs, "sim_mbps", mbps/n)
	m.set(endToEndDefs, "sim_cycles_per_byte", cpb/n)
	m.set(endToEndDefs, "sim_e2e_p99", p99/n)
	m.set(endToEndDefs, "paper_err_pct", paperErrPct(fig7))
}

// paperErrPct is the mean absolute error of the Figure 7 results against
// the paper's values, in percent.
func paperErrPct(fig7 []repro.StreamResult) float64 {
	var e float64
	for i, r := range fig7 {
		e += math.Abs(r.ThroughputMbps-paperFig7[i]) / paperFig7[i]
	}
	return 100 * e / float64(len(fig7))
}

// modeledPerLayer fills the modeled per-layer metrics. Per-packet figures
// and ratios are means over the configs, counts are totals per pass, and
// peaks are maxima.
func modeledPerLayer(m metrics, res, lat []repro.StreamResult) {
	defs := perLayerDefs()
	n := float64(len(res))
	mean := func(f func(i int) float64) float64 {
		var s float64
		for i := range res {
			s += f(i)
		}
		return s / n
	}
	sum := func(f func(r repro.StreamResult) uint64) float64 {
		var s uint64
		for _, r := range res {
			s += f(r)
		}
		return float64(s)
	}
	max := func(f func(r repro.StreamResult) float64) float64 {
		var x float64
		for _, r := range res {
			x = math.Max(x, f(r))
		}
		return x
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	for c := 0; repro.Category(c).Valid(); c++ {
		cat := repro.Category(c)
		m.set(defs, "cycles."+cat.String(), mean(func(i int) float64 { return res[i].Breakdown.Get(cat) }))
	}
	m.set(defs, "aggregate.agg_factor", mean(func(i int) float64 { return res[i].AggFactor }))
	m.set(defs, "aggregate.flush_mismatch", sum(func(r repro.StreamResult) uint64 { return r.AggStats.FlushMismatch }))
	m.set(defs, "aggregate.stitched", sum(func(r repro.StreamResult) uint64 { return r.AggStats.Stitched }))
	m.set(defs, "aggregate.window_timeout", sum(func(r repro.StreamResult) uint64 { return r.AggStats.WindowTimeout }))
	m.set(defs, "netstack.demux_cycles_per_pkt", mean(func(i int) float64 { return res[i].DemuxCyclesPerPacket() }))
	m.set(defs, "netstack.timewait_peak", max(func(r repro.StreamResult) float64 { return float64(r.TimeWait.Peak) }))
	m.set(defs, "netstack.timewait_reused", sum(func(r repro.StreamResult) uint64 { return r.TimeWait.Reused }))
	m.set(defs, "netstack.mem_peak_mb", max(func(r repro.StreamResult) float64 { return float64(r.Mem.PeakBytes) / mib }))
	m.set(defs, "tcp.ooo_segs", sum(func(r repro.StreamResult) uint64 { return r.OOOSegs }))
	m.set(defs, "tcp.fast_retransmits", sum(func(r repro.StreamResult) uint64 { return r.Loss.FastRetransmits }))
	m.set(defs, "tcp.rtos", sum(func(r repro.StreamResult) uint64 { return r.Loss.RTOs }))
	m.set(defs, "tcp.sack_retransmits", sum(func(r repro.StreamResult) uint64 { return r.Loss.SACKRetransmits }))
	m.set(defs, "tcp.recovery_p99", mean(func(i int) float64 { return us(lat[i].Latency.Recovery.P99Ns) }))
	for si, s := range stageNames {
		m.set(defs, "stage."+s+".p99", mean(func(i int) float64 {
			st := lat[i].Latency.Stages
			if si >= len(st) || st[si].Stage != s {
				return 0
			}
			return us(st[si].P99Ns)
		}))
	}
	m.set(defs, "softirq.cpu_util", mean(func(i int) float64 { return res[i].CPUUtil }))
	m.set(defs, "softirq.util_spread", mean(func(i int) float64 { return res[i].UtilSpread() }))
	m.set(defs, "sim.link.lost_frames", sum(func(r repro.StreamResult) uint64 { return r.LostFrames }))
	m.set(defs, "sim.link.reordered_frames", sum(func(r repro.StreamResult) uint64 { return r.ReorderedFrames }))
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail returns the highest of the standard percentiles that has at least
// ten samples beyond it, or ok false when there are too few samples.
func tail(xs []float64) (pct, v float64, ok bool) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n*(1-p/100) >= 10 {
			i := int(math.Ceil(p/100*n)) - 1
			return p, sorted[i], true
		}
	}
	return 0, 0, false
}
