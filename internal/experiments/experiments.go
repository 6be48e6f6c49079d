// Package experiments is the ordered registry of the evaluation: the
// paper's Figures 1–12 and Table 1, then the experiments beyond it. Each
// Entry turns the run parameters into labelled points and formats their
// results as its table; cmd/rxbench and the Go benchmarks are two drivers
// over it. Every point builds its own topology, so points share nothing
// and a driver may run them in any order or concurrently.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/profile"
	"repro/internal/sim"
)

// Params carries what a driver chooses for a run of the registry.
type Params struct {
	// System is the receiver for the entries that read it (ReadsSystem);
	// the paper's figures fix their own systems.
	System sim.SystemKind
	// Queues is the queue-count sweep of the rss entry; steer, reorder
	// and restartstorm run at its last element.
	Queues []int
	// WarmupNs and DurationNs are every stream point's virtual warm-up
	// and measured interval. Table 1's request/response points keep the
	// paper's fixed windows (sim.DefaultRRConfig).
	WarmupNs, DurationNs uint64
}

// lastQueue is the queue count of the entries that run at one.
func (p Params) lastQueue() int { return p.Queues[len(p.Queues)-1] }

// stream is the paper's bulk setup for sys/opt over p's windows.
func (p Params) stream(sys sim.SystemKind, opt sim.OptLevel) *sim.StreamConfig {
	cfg := sim.DefaultStreamConfig(sys, opt)
	cfg.WarmupNs, cfg.DurationNs = p.WarmupNs, p.DurationNs
	return &cfg
}

// Point is one run of an entry: a bulk-receive stream or a
// request/response exchange (exactly one of Stream and RR is set).
type Point struct {
	// Label names the point within its entry: unique there, and free of
	// whitespace so it can name a benchmark metric.
	Label  string
	Stream *sim.StreamConfig
	RR     *sim.RRConfig
}

// Result is one point's outcome. Err marks a failed run; its result
// fields are then zero.
type Result struct {
	Stream sim.StreamResult
	RR     sim.RRResult
	Err    error
}

// Run executes the point.
func (pt Point) Run() Result {
	if pt.RR != nil {
		res, err := sim.RunRR(*pt.RR)
		return Result{RR: res, Err: err}
	}
	res, err := sim.RunStream(*pt.Stream)
	return Result{Stream: res, Err: err}
}

// Entry is one experiment of the registry.
type Entry struct {
	// Name selects the entry (rxbench -experiment).
	Name string
	// ReadsSystem reports whether Points depends on Params.System.
	ReadsSystem bool
	// Points builds the entry's runs, in the order their results are
	// reported.
	Points func(Params) []Point
	// Table prints the entry's table from the results of Points; res[i]
	// belongs to pts[i]. A failed point is reported in the table.
	Table func(w io.Writer, pts []Point, res []Result)
}

// registry is every entry in the order rxbench runs them.
var registry = []Entry{
	{Name: "fig1", Points: fig1Points, Table: fig1Table},
	{Name: "fig2", Points: fig2Points, Table: fig2Table},
	breakdown("fig3", sim.SystemNativeUP, "Figure 3: breakdown of receive processing overheads (UP, cycles/packet)", profile.NativeCategories),
	{Name: "fig4", Points: fig4Points, Table: fig4Table},
	breakdown("fig6", sim.SystemXen, "Figure 6: breakdown of receive processing overheads (Xen, cycles/packet)", profile.XenCategories),
	{Name: "fig7", Points: fig7Points, Table: fig7Table},
	optBreakdown("fig8", sim.SystemNativeUP, "Figure 8: receive processing overheads (UP)", profile.NativeCategories),
	optBreakdown("fig9", sim.SystemNativeSMP, "Figure 9: receive processing overheads (SMP)", profile.NativeCategories),
	optBreakdown("fig10", sim.SystemXen, "Figure 10: receive processing overheads (Xen)", profile.XenCategories),
	{Name: "fig11", Points: fig11Points, Table: fig11Table},
	{Name: "fig12", Points: fig12Points, Table: fig12Table},
	{Name: "table1", Points: table1Points, Table: table1Table},
	{Name: "limit1", Points: limit1Points, Table: limit1Table},
	{Name: "rss", ReadsSystem: true, Points: rssPoints, Table: rssTable},
	{Name: "churn", ReadsSystem: true, Points: churnPoints, Table: churnTable},
	{Name: "steer", ReadsSystem: true, Points: steerPoints, Table: steerTable},
	{Name: "smallmsg", Points: smallMsgPoints, Table: smallMsgTable},
	{Name: "reorder", ReadsSystem: true, Points: reorderPoints, Table: reorderTable},
	{Name: "loss", Points: lossPoints, Table: lossTable},
	{Name: "restartstorm", ReadsSystem: true, Points: restartStormPoints, Table: restartStormTable},
	{Name: "connscale", ReadsSystem: true, Points: connScalePoints, Table: connScaleTable},
	{Name: "rr", ReadsSystem: true, Points: rrPoints, Table: rrTable},
}

// All returns the registry in order.
func All() []Entry { return registry }

// Lookup returns the entry called name.
func Lookup(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the entry names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

// sysLabel and optLabel are the whitespace-free point-label forms of a
// system and a receive-path variant.
func sysLabel(sys sim.SystemKind) string {
	return [...]string{sim.SystemNativeUP: "up", sim.SystemNativeSMP: "smp", sim.SystemXen: "xen"}[sys]
}

func optLabel(opt sim.OptLevel) string {
	return [...]string{sim.OptNone: "orig", sim.OptAggregation: "ra", sim.OptFull: "opt"}[opt]
}

// rows prints a table body: row(i) for each group of n consecutive
// points from i (one table row, or the whole figure when n is len(pts)),
// or, in place of a group with a failed run, a FAILED line naming it.
func rows(w io.Writer, pts []Point, res []Result, n int, row func(i int)) {
next:
	for i := 0; i < len(pts); i += n {
		for j := i; j < i+n; j++ {
			if res[j].Err != nil {
				fmt.Fprintf(w, "%s FAILED: %v\n", pts[j].Label, res[j].Err)
				continue next
			}
		}
		row(i)
	}
}
