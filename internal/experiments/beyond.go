package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/netstack"
	"repro/internal/sim"
)

// rss is multi-queue scaling: throughput and per-CPU utilization as the
// queue count grows, Original and Optimized. On Xen the queues are
// paravirtual I/O channels steered by the same Toeplitz hash.
func rssPoints(p Params) []Point {
	var pts []Point
	for _, opt := range bothPaths {
		for _, q := range p.Queues {
			cfg := p.stream(p.System, opt)
			cfg.NICs, cfg.Connections, cfg.Queues = 8, 200, q
			pts = append(pts, Point{Label: fmt.Sprintf("%s/q%d", optLabel(opt), q), Stream: cfg})
		}
	}
	return pts
}

func rssTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "RSS queue scaling (%s, 200 flows, 8 links; 1 queue = the paper's single-softirq receiver)\n", pts[0].Stream.System)
	fmt.Fprintf(w, "%-7s %-10s %10s %10s %8s  %s\n", "queues", "path", "Mb/s", "cyc/pkt", "util", "per-CPU util")
	rows(w, pts, res, 1, func(i int) {
		cfg, s := pts[i].Stream, res[i].Stream
		per := ""
		for _, u := range s.PerCPUUtil {
			per += fmt.Sprintf(" %3.0f%%", u*100)
		}
		fmt.Fprintf(w, "%-7d %-10s %10.0f %10.0f %7.0f%% %s\n",
			cfg.Queues, cfg.Opt, s.ThroughputMbps, s.CyclesPerPacket, s.CPUUtil*100, per)
	})
	fmt.Fprintln(w, "(link limit is ~7532 Mb/s over 8 NICs: scaling ends where the wire does)")
}

// churn is the production-shaped workload: 400 zipf-skewed flows with
// connection arrival/teardown churn on a 4-queue pipeline.
func churnPoints(p Params) []Point {
	var pts []Point
	for _, opt := range bothPaths {
		cfg := p.stream(p.System, opt)
		cfg.Connections, cfg.Queues, cfg.FlowSkew, cfg.ChurnIntervalNs = 400, 4, 1.1, 2_000_000
		pts = append(pts, Point{Label: optLabel(opt), Stream: cfg})
	}
	return pts
}

func churnTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Many-flow churn (%s, 400 zipf-skewed flows, churn every 2ms, 4 queues)\n", pts[0].Stream.System)
	fmt.Fprintf(w, "%-10s %10s %8s %8s %10s\n", "path", "Mb/s", "util", "agg", "churned")
	rows(w, pts, res, 1, func(i int) {
		s := res[i].Stream
		fmt.Fprintf(w, "%-10s %10.0f %7.0f%% %8.1f %10d\n",
			pts[i].Stream.Opt, s.ThroughputMbps, s.CPUUtil*100, s.AggFactor, s.FlowsTornDown)
	})
}

// steerPolicies are the steer entry's rows.
var steerPolicies = []struct {
	name  string
	steer sim.SteerConfig
}{
	{"static RSS", sim.SteerConfig{}},
	{"rebalancer", sim.SteerConfig{Enabled: true}},
	{"rebalancer+aRFS", sim.SteerConfig{Enabled: true, ARFS: true}},
	{"rebalancer+aRFS+mig", sim.SteerConfig{Enabled: true, ARFS: true, AppMigrateIntervalNs: 2_000_000}},
}

// steer is dynamic flow steering: the 200-flow zipf workload under static
// RSS, the indirection rebalancer and rebalancer + accelerated RFS (also
// with application migration): throughput, per-CPU utilization spread,
// bucket migrations and steering-rule occupancy.
func steerPoints(p Params) []Point {
	var pts []Point
	for _, pol := range steerPolicies {
		cfg := p.stream(p.System, sim.OptFull)
		cfg.NICs, cfg.Connections, cfg.Queues, cfg.FlowSkew = 8, 200, p.lastQueue(), 1.2
		cfg.Steering = pol.steer
		pts = append(pts, Point{Label: strings.ReplaceAll(pol.name, " ", "-"), Stream: cfg})
	}
	return pts
}

func steerTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Dynamic flow steering (%s, 200 zipf flows, 8 links, %d queues)\n", pts[0].Stream.System, pts[0].Stream.Queues)
	fmt.Fprintf(w, "%-22s %8s %8s %8s %8s %8s %8s %8s\n",
		"policy", "Mb/s", "util", "spread", "moves", "rules", "occ", "appmig")
	rows(w, pts, res, 1, func(i int) {
		s := res[i].Stream
		var moves, rules, appmig uint64
		occ := 0
		if s.Steer != nil {
			moves, rules, appmig = s.Steer.Moves, s.Steer.RulesProgrammed, s.Steer.AppMigrations
			occ = s.Steer.RuleOccupancy
		}
		fmt.Fprintf(w, "%-22s %8.0f %7.0f%% %8.3f %8d %8d %8d %8d\n",
			steerPolicies[i].name, s.ThroughputMbps, s.CPUUtil*100, s.UtilSpread(), moves, rules, occ, appmig)
	})
	fmt.Fprintln(w, "(spread = max-min per-CPU utilization; steering must narrow it at equal or better throughput)")
}

// smallMsg quantifies §5.5 over sub-MSS message sizes: frames per
// aggregate stay respectable while the bytes each aggregate saves
// collapse with the message size.
func smallMsgPoints(p Params) []Point {
	var pts []Point
	for _, size := range []int{256, 512, 1024, 1448} {
		for _, opt := range bothPaths {
			cfg := p.stream(sim.SystemNativeUP, opt)
			cfg.NICs, cfg.MessageSize = 2, size
			pts = append(pts, Point{Label: fmt.Sprintf("%dB/%s", size, optLabel(opt)), Stream: cfg})
		}
	}
	return pts
}

func smallMsgTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Section 5.5: aggregation effectiveness vs message size (UP, 2 links)")
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s %12s %12s\n",
		"bytes", "Orig Mb/s", "Opt Mb/s", "gain", "frames/agg", "bytes/agg", "saved/agg")
	rows(w, pts, res, 2, func(i int) {
		base, opt := res[i].Stream, res[i+1].Stream
		bytesPerAgg := opt.BytesPerAggregate()
		// Bytes the host-packet costs were amortized over beyond the
		// first frame: the byte-level win of each aggregate.
		savedPerAgg := bytesPerAgg * (1 - 1/opt.AggFactor)
		fmt.Fprintf(w, "%-8d %10.0f %10.0f %+9.0f%% %10.1f %12.0f %12.0f\n",
			pts[i].Stream.MessageSize, base.ThroughputMbps, opt.ThroughputMbps,
			(opt.ThroughputMbps/base.ThroughputMbps-1)*100, opt.AggFactor, bytesPerAgg, savedPerAgg)
	})
	fmt.Fprintln(w, "(paper §5.5/§1: the optimizations do not help small-message workloads —")
	fmt.Fprintln(w, " an aggregate of sub-MSS segments amortizes per-packet cost over few bytes)")
}

// reorder is reordering tolerance: the 200-flow zipf workload under
// adjacent swaps of 0/2/5% of frames against the resequencing window
// size. Without a window every swap tears a pending aggregate down; the
// window holds the early frame and stitches it once the gap fills.
func reorderPoints(p Params) []Point {
	var pts []Point
	for _, swap := range []int{0, 50, 20} { // 0%, 2%, 5% of frames
		for _, win := range []int{0, 2, 4, 8} {
			cfg := p.stream(p.System, sim.OptFull)
			cfg.NICs, cfg.Connections, cfg.Queues, cfg.FlowSkew = 8, 200, p.lastQueue(), 1.1
			cfg.Reorder = sim.ReorderConfig{OneIn: swap, Distance: 1}
			cfg.ReorderWindow = win
			pts = append(pts, Point{Label: fmt.Sprintf("swap%d/w%d", swap, win), Stream: cfg})
		}
	}
	return pts
}

func reorderTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Reordering tolerance (%s, 200 zipf flows, 8 links, %d queues, adjacent swaps)\n", pts[0].Stream.System, pts[0].Stream.Queues)
	fmt.Fprintf(w, "%-7s %-7s %9s %7s %9s %10s %9s %9s %9s %9s\n",
		"swap", "window", "Mb/s", "util", "frm/agg", "bytes/agg", "cyc/byte", "stitched", "timeout", "mismatch")
	rows(w, pts, res, 1, func(i int) {
		cfg, s := pts[i].Stream, res[i].Stream
		rate := "0%"
		if cfg.Reorder.OneIn > 0 {
			rate = fmt.Sprintf("%.0f%%", 100.0/float64(cfg.Reorder.OneIn))
		}
		fmt.Fprintf(w, "%-7s %-7d %9.0f %6.0f%% %9.1f %10.0f %9.2f %9d %9d %9d\n",
			rate, cfg.ReorderWindow, s.ThroughputMbps, s.CPUUtil*100, s.AggFactor,
			s.BytesPerAggregate(), s.CyclesPerByte(), s.AggStats.Stitched,
			s.AggStats.WindowTimeout, s.AggStats.FlushMismatch)
	})
	fmt.Fprintln(w, "(window 0 is the strict flush-on-OOO engine; under swaps it degenerates toward Limit=1")
	fmt.Fprintln(w, " and the §5 per-packet savings evaporate — the window restores them)")
}

// LossModel names a config's loss model and returns its nominal
// stationary loss rate ("" and 0 when the link is lossless).
func LossModel(cfg *sim.StreamConfig) (string, float64) {
	switch {
	case cfg.Loss.OneIn > 0:
		return "uniform", 1 / float64(cfg.Loss.OneIn)
	case cfg.Loss.BurstRate > 0:
		return "burst", cfg.Loss.BurstRate
	default:
		return "", 0
	}
}

// loss is loss and recovery: the five-link bulk workload under uniform
// and Gilbert-Elliott burst loss at 0.1/1/5%, Reno against SACK, on UP
// and Xen. At 1% and 5% the SACK scoreboard keeps the pipe full while
// Reno stalls on every lost retransmission until the 200 ms RTO floor.
func lossPoints(p Params) []Point {
	var pts []Point
	for _, sys := range []sim.SystemKind{sim.SystemNativeUP, sim.SystemXen} {
		for _, model := range []string{"uniform", "burst"} {
			for _, rate := range []float64{0.001, 0.01, 0.05} {
				for _, recovery := range []string{"reno", "sack"} {
					cfg := p.stream(sys, sim.OptFull)
					if model == "uniform" {
						cfg.Loss.OneIn = int(1/rate + 0.5)
					} else {
						cfg.Loss.BurstRate = rate
					}
					cfg.SACK = recovery == "sack"
					cfg.Telemetry.Latency = true
					pts = append(pts, Point{Label: fmt.Sprintf("%s/%s/%g/%s", sysLabel(sys), model, rate, recovery), Stream: cfg})
				}
			}
		}
	}
	return pts
}

func lossTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Loss and recovery (5 links, bulk streams; uniform and burst loss, SACK off/on)")
	fmt.Fprintf(w, "%-9s %-8s %6s %-5s %9s %9s %10s %8s %5s %9s %9s\n",
		"system", "model", "rate", "sack", "Mb/s", "cyc/byte", "bytes/agg", "fastRtx", "RTOs", "rec p50µs", "rec p99µs")
	rows(w, pts, res, 1, func(i int) {
		cfg, s := pts[i].Stream, res[i].Stream
		model, rate := LossModel(cfg)
		rec := s.Latency.Recovery
		fmt.Fprintf(w, "%-9s %-8s %5.1f%% %-5v %9.0f %9.2f %10.0f %8d %5d %9.1f %9.1f\n",
			cfg.System, model, rate*100, cfg.SACK, s.ThroughputMbps, s.CyclesPerByte(), s.BytesPerAggregate(),
			s.Loss.FastRetransmits, s.Loss.RTOs, us(rec.P50Ns), us(rec.P99Ns))
	})
	fmt.Fprintln(w, "(SACK must win at 1% and 5%: with runs shorter than the 200 ms RTO floor, Reno's only")
	fmt.Fprintln(w, " answer to a lost retransmission is the timer; the scoreboard retransmits it within an RTT)")
}

// us converts simulated nanoseconds to microseconds.
func us(ns uint64) float64 { return float64(ns) / 1e3 }

// restartStorm is TIME_WAIT at scale: a quarter into the measured
// interval half the flows are torn down and redialed on their own
// four-tuples (SYN-time reuse), against a seeded TIME_WAIT backlog of 1k
// to 100k entries. Cycles/byte must stay flat as the backlog grows.
func restartStormPoints(p Params) []Point {
	var pts []Point
	for _, prefill := range []int{1_000, 10_000, 50_000, 100_000} {
		cfg := p.stream(p.System, sim.OptFull)
		cfg.NICs, cfg.Connections, cfg.Queues, cfg.TimeWaitReuse = 4, 80, p.lastQueue(), true
		cfg.RestartStorm = sim.RestartStormConfig{AtNs: p.WarmupNs + p.DurationNs/4, Fraction: 0.5, PrefillTimeWait: prefill}
		pts = append(pts, Point{Label: fmt.Sprintf("tw%d", prefill), Stream: cfg})
	}
	return pts
}

func restartStormTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Restart storm (%s, 80 flows/4 links, %d queues; half torn down and redialed on their own ports, tw_reuse on)\n", pts[0].Stream.System, pts[0].Stream.Queues)
	fmt.Fprintf(w, "%-9s %9s %9s %10s %9s %8s %8s %9s %10s\n",
		"backlog", "Mb/s", "cyc/byte", "entered", "reaped", "reused", "refused", "peak", "lingering")
	rows(w, pts, res, 1, func(i int) {
		s, tw := res[i].Stream, res[i].Stream.TimeWait
		fmt.Fprintf(w, "%-9d %9.0f %9.2f %10d %9d %8d %8d %9d %10d\n",
			pts[i].Stream.RestartStorm.PrefillTimeWait, s.ThroughputMbps, s.CyclesPerByte(),
			tw.Entered, tw.Reaped, tw.Reused, tw.ReuseRefused, tw.Peak, tw.Len)
	})
	fmt.Fprintln(w, "(flat cycles/byte as the backlog scales 1k -> 100k is the deadline-wheel acceptance:")
	fmt.Fprintln(w, " insert/reap charge per entry, never a scan of the lingering population)")
}

// connScale is million-flow demux: 64 active zipf flows while the idle
// registered population sweeps 10k → 1M, under the open-addressed layout
// and the seed-style map baseline. The open layout's cycles/byte stays
// flat as the table outgrows the cache; the map's chased lines do not.
func connScalePoints(p Params) []Point {
	var pts []Point
	for _, layout := range []netstack.FlowLayout{netstack.LayoutOpenAddressed, netstack.LayoutSeedMap} {
		for _, reg := range []int{10_000, 100_000, 1_000_000} {
			cfg := p.stream(p.System, sim.OptNone)
			cfg.NICs, cfg.Connections, cfg.FlowSkew = 4, 64, 1.1
			cfg.FlowLayout, cfg.RegisteredFlows = layout, reg
			pts = append(pts, Point{Label: fmt.Sprintf("%s/%d", layout, reg), Stream: cfg})
		}
	}
	return pts
}

func connScaleTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Connection-count scaling (%s, 64 active zipf flows / 4 links, registered population swept)\n", pts[0].Stream.System)
	fmt.Fprintf(w, "%-7s %-11s %9s %9s %12s %10s %6s %9s %10s\n",
		"layout", "registered", "Mb/s", "cyc/byte", "demux c/pkt", "probe", "load", "table MB", "budget MB")
	rows(w, pts, res, 1, func(i int) {
		cfg, s := pts[i].Stream, res[i].Stream
		probe, load := "-", "-"
		if cfg.FlowLayout == netstack.LayoutOpenAddressed {
			probe = fmt.Sprintf("%d/%d", s.Demux.ProbeP50, s.Demux.ProbeMax)
			load = fmt.Sprintf("%.2f", s.Demux.LoadP50)
		}
		fmt.Fprintf(w, "%-7s %-11d %9.0f %9.2f %12.1f %10s %6s %9.1f %10.1f\n",
			cfg.FlowLayout, cfg.RegisteredFlows, s.ThroughputMbps, s.CyclesPerByte(), s.DemuxCyclesPerPacket(),
			probe, load, float64(s.Demux.Bytes)/(1<<20), float64(s.Mem.PeakBytes)/(1<<20))
	})
	fmt.Fprintln(w, "(open: probe runs stream ~1 line, cycles/byte stays flat as the table dwarfs the cache;")
	fmt.Fprintln(w, " map: four dependent chased lines per lookup — the per-packet cost grows with population)")
}

// rr is request/response incast: synchronized request bursts to a growing
// fan-in of senders over one shared link. The last response of a burst
// queues behind the others, so the RTT p99 grows with fan-in while the
// median barely moves.
func rrPoints(p Params) []Point {
	var pts []Point
	for _, fanin := range []int{4, 16, 64} {
		for _, size := range []int{256, 1448, 4344} {
			cfg := p.stream(p.System, sim.OptFull)
			cfg.NICs, cfg.Connections = 1, fanin
			cfg.RPC = sim.RPCConfig{Enabled: true, MessageBytes: size}
			pts = append(pts, Point{Label: fmt.Sprintf("fanin%d/msg%d", fanin, size), Stream: cfg})
		}
	}
	return pts
}

func rrTable(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintf(w, "Incast request/response (%s, 1 link, synchronized bursts, RTT per message)\n", pts[0].Stream.System)
	fmt.Fprintf(w, "%-7s %-7s %8s %9s %9s %9s %9s %8s\n",
		"fan-in", "msg", "rounds", "p50 µs", "p99 µs", "p999 µs", "max µs", "Mb/s")
	rows(w, pts, res, 1, func(i int) {
		cfg, s := pts[i].Stream, res[i].Stream
		rtt := s.Latency.RTT
		fmt.Fprintf(w, "%-7d %-7d %8d %9.1f %9.1f %9.1f %9.1f %8.0f\n",
			cfg.Connections, cfg.RPC.MessageBytes, s.RPCRounds,
			us(rtt.P50Ns), us(rtt.P99Ns), us(rtt.P999Ns), us(rtt.MaxNs), s.ThroughputMbps)
	})
	fmt.Fprintln(w, "(p99 tracks the burst width: the last message of a fan-in-N burst waited for N−1 others)")
}
