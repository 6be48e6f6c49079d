package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/memmodel"
	"repro/internal/profile"
	"repro/internal/sim"
)

// paperSystems are the three receivers of the paper's evaluation.
var paperSystems = []sim.SystemKind{sim.SystemNativeUP, sim.SystemNativeSMP, sim.SystemXen}

// bothPaths are the Original and Optimized receive paths.
var bothPaths = []sim.OptLevel{sim.OptNone, sim.OptFull}

// fig1 is Figure 1: per-byte vs per-packet share on the 3.8 GHz
// uniprocessor as the prefetch configuration varies.
func fig1Points(p Params) []Point {
	var pts []Point
	for _, mode := range []memmodel.PrefetchMode{memmodel.PrefetchNone, memmodel.PrefetchPartial, memmodel.PrefetchFull} {
		c := cost.NativeUP38()
		c.Mem.Mode = mode
		cfg := p.stream(sim.SystemNativeUP, sim.OptNone)
		cfg.NICs = 1
		cfg.Params = &c
		pts = append(pts, Point{Label: strings.ToLower(mode.String()), Stream: cfg})
	}
	return pts
}

var fig1Table = sharesTable("Figure 1: impact of prefetching on overhead shares (UP, 3.8 GHz)",
	func(pt Point) string { return pt.Stream.Params.Mem.Mode.String() })

// fig2 is Figure 2: per-byte vs per-packet share for UP, SMP and Xen with
// full prefetching.
func fig2Points(p Params) []Point {
	var pts []Point
	for _, sys := range paperSystems {
		pts = append(pts, Point{Label: sysLabel(sys), Stream: p.stream(sys, sim.OptNone)})
	}
	return pts
}

var fig2Table = sharesTable("Figure 2: per-byte vs per-packet overhead (full prefetching)",
	func(pt Point) string { return pt.Stream.System.String() })

// sharesTable is the table of Figures 1 and 2: one share line per point,
// each row named by row.
func sharesTable(title string, row func(Point) string) func(io.Writer, []Point, []Result) {
	return func(w io.Writer, pts []Point, res []Result) {
		rows(w, pts, res, len(pts), func(int) {
			groups := profile.StandardShareGroups()
			var names []string
			var per [][]float64
			for i, pt := range pts {
				names = append(names, row(pt))
				per = append(per, profile.ShareLine(res[i].Stream.Breakdown, groups))
			}
			fmt.Fprint(w, profile.SharesTable(title, names, per, groups))
		})
	}
}

// breakdown is Figures 3 and 6: one system's cycles/packet breakdown.
func breakdown(name string, sys sim.SystemKind, title string, cats []cycles.Category) Entry {
	return Entry{
		Name:   name,
		Points: func(p Params) []Point { return []Point{{Label: sysLabel(sys), Stream: p.stream(sys, sim.OptNone)}} },
		Table: func(w io.Writer, pts []Point, res []Result) {
			rows(w, pts, res, 1, func(int) { fmt.Fprint(w, profile.Table(title, res[0].Stream.Breakdown, cats)) })
		},
	}
}

// fig4 is Figure 4: UP vs SMP breakdowns (rx +62%, tx +40% from locking).
func fig4Points(p Params) []Point {
	return []Point{
		{Label: "up", Stream: p.stream(sim.SystemNativeUP, sim.OptNone)},
		{Label: "smp", Stream: p.stream(sim.SystemNativeSMP, sim.OptNone)},
	}
}

func fig4Table(w io.Writer, pts []Point, res []Result) {
	rows(w, pts, res, 2, func(int) {
		fmt.Fprint(w, profile.Comparison("Figure 4: receive processing overheads, UP vs SMP (cycles/packet)",
			"UP", "SMP", res[0].Stream.Breakdown, res[1].Stream.Breakdown, profile.NativeCategories))
	})
}

// fig7 is Figure 7: Original vs RA-only vs Optimized throughput for the
// three systems.
func fig7Points(p Params) []Point {
	var pts []Point
	for _, sys := range paperSystems {
		for _, opt := range []sim.OptLevel{sim.OptNone, sim.OptAggregation, sim.OptFull} {
			pts = append(pts, Point{Label: sysLabel(sys) + "/" + optLabel(opt), Stream: p.stream(sys, opt)})
		}
	}
	return pts
}

func fig7Table(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Figure 7: overall performance improvement (Mb/s)")
	fmt.Fprintf(w, "%-11s %10s %10s %10s %8s %8s\n",
		"system", "Original", "RA only", "Optimized", "gain", "util")
	rows(w, pts, res, 3, func(i int) {
		orig, ra, opt := res[i].Stream, res[i+1].Stream, res[i+2].Stream
		fmt.Fprintf(w, "%-11s %10.0f %10.0f %10.0f %+7.0f%% %7.0f%%\n",
			pts[i].Stream.System, orig.ThroughputMbps, ra.ThroughputMbps, opt.ThroughputMbps,
			(opt.ThroughputMbps/orig.ThroughputMbps-1)*100, opt.CPUUtil*100)
	})
	fmt.Fprintln(w, "(paper: UP 3452->4660, SMP 2988->4660, Xen 1088->1877;")
	fmt.Fprintln(w, " RA-only gains +26/36/45%; optimized native runs are NIC-limited at ~93% CPU)")
}

// optBreakdown is Figures 8–10: one system's per-category breakdown,
// Original against Optimized.
func optBreakdown(name string, sys sim.SystemKind, title string, cats []cycles.Category) Entry {
	return Entry{
		Name: name,
		Points: func(p Params) []Point {
			return []Point{{Label: "orig", Stream: p.stream(sys, sim.OptNone)}, {Label: "opt", Stream: p.stream(sys, sim.OptFull)}}
		},
		Table: func(w io.Writer, pts []Point, res []Result) {
			rows(w, pts, res, 2, func(int) {
				orig, opt := res[0].Stream, res[1].Stream
				fmt.Fprint(w, profile.Comparison(title, "Original", "Optimized", orig.Breakdown, opt.Breakdown, cats))
				fmt.Fprintf(w, "aggregation factor: %.1f\n", opt.AggFactor)
			})
		},
	}
}

// fig11 is Figure 11: CPU cycles per packet against the Aggregation Limit.
func fig11Points(p Params) []Point {
	var pts []Point
	for _, lim := range []int{1, 2, 3, 5, 8, 10, 15, 20, 25, 30, 35} {
		cfg := p.stream(sim.SystemNativeUP, sim.OptFull)
		cfg.AggLimit = lim
		pts = append(pts, Point{Label: fmt.Sprintf("limit%d", lim), Stream: cfg})
	}
	return pts
}

func fig11Table(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Figure 11: CPU overhead vs Aggregation Limit (UP)")
	fmt.Fprintf(w, "%-6s %16s %10s\n", "limit", "cycles/packet", "agg")
	rows(w, pts, res, 1, func(i int) {
		fmt.Fprintf(w, "%-6d %16.0f %10.1f\n", pts[i].Stream.AggLimit, res[i].Stream.CyclesPerPacket, res[i].Stream.AggFactor)
	})
	fmt.Fprintln(w, "(paper: steep drop then flat; x + y/k shape; limit 20 chosen)")
}

// fig12 is Figure 12: SMP throughput against the number of concurrent
// connections.
func fig12Points(p Params) []Point {
	var pts []Point
	for _, conns := range []int{5, 25, 50, 100, 200, 400} {
		for _, opt := range bothPaths {
			cfg := p.stream(sim.SystemNativeSMP, opt)
			cfg.Connections = conns
			pts = append(pts, Point{Label: fmt.Sprintf("c%d/%s", conns, optLabel(opt)), Stream: cfg})
		}
	}
	return pts
}

func fig12Table(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Figure 12: scalability with concurrent connections (SMP, Mb/s)")
	fmt.Fprintf(w, "%-8s %10s %10s %8s %8s\n", "conns", "Original", "Optimized", "gain", "agg")
	rows(w, pts, res, 2, func(i int) {
		b, o := res[i].Stream, res[i+1].Stream
		fmt.Fprintf(w, "%-8d %10.0f %10.0f %+7.0f%% %8.1f\n",
			pts[i].Stream.Connections, b.ThroughputMbps, o.ThroughputMbps,
			(o.ThroughputMbps/b.ThroughputMbps-1)*100, o.AggFactor)
	})
	fmt.Fprintln(w, "(paper: optimized stays >=40% ahead at 400 connections)")
}

// table1 is Table 1: netperf-style request/response rates with and
// without the optimizations, over the paper's fixed windows.
func table1Points(Params) []Point {
	var pts []Point
	for _, sys := range paperSystems {
		for _, opt := range bothPaths {
			cfg := sim.DefaultRRConfig(sys, opt)
			pts = append(pts, Point{Label: sysLabel(sys) + "/" + optLabel(opt), RR: &cfg})
		}
	}
	return pts
}

func table1Table(w io.Writer, pts []Point, res []Result) {
	fmt.Fprintln(w, "Table 1: impact of receive optimizations on latency (requests/sec)")
	fmt.Fprintf(w, "%-11s %12s %12s %8s\n", "system", "Original", "Optimized", "delta")
	rows(w, pts, res, 2, func(i int) {
		o, f := res[i].RR, res[i+1].RR
		fmt.Fprintf(w, "%-11s %12.0f %12.0f %+7.2f%%\n",
			pts[i].RR.System, o.RequestsPerSec, f.RequestsPerSec, (f.RequestsPerSec/o.RequestsPerSec-1)*100)
	})
	fmt.Fprintln(w, "(paper: UP 7874/7894, SMP 7970/7985, Xen 6965/6953 — no noticeable impact)")
}

// limit1 checks §5.5: an Aggregation Limit of 1 (the engine on the path
// but never coalescing) must not degrade performance.
func limit1Points(p Params) []Point {
	lim1 := p.stream(sim.SystemNativeUP, sim.OptFull)
	lim1.AggLimit = 1
	return []Point{{Label: "base", Stream: p.stream(sim.SystemNativeUP, sim.OptNone)}, {Label: "limit1", Stream: lim1}}
}

func limit1Table(w io.Writer, pts []Point, res []Result) {
	rows(w, pts, res, 2, func(int) {
		base, lim1 := res[0].Stream, res[1].Stream
		fmt.Fprintln(w, "Section 5.5 check: Aggregation Limit = 1 must not degrade performance")
		fmt.Fprintf(w, "baseline:  %7.0f Mb/s  %7.0f cycles/packet\n", base.ThroughputMbps, base.CyclesPerPacket)
		fmt.Fprintf(w, "limit 1:   %7.0f Mb/s  %7.0f cycles/packet (%+.1f%%)\n",
			lim1.ThroughputMbps, lim1.CyclesPerPacket, (lim1.CyclesPerPacket/base.CyclesPerPacket-1)*100)
	})
}
