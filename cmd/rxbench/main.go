// Command rxbench regenerates the tables and figures of "Optimizing TCP
// Receive Performance" (Menon & Zwaenepoel, USENIX ATC 2008) from the
// simulation. Run with no arguments for everything, or select one
// experiment:
//
//	rxbench -experiment fig7
//	rxbench -experiment table1 -duration 500ms
//
// The experiments are the entries of internal/experiments, run in
// registry order; rxbench only runs their points and prints their tables.
//
// With -json, the human-readable tables go to stderr and a JSON array of
// per-run records (experiment, configuration, Mb/s, cycles/byte,
// aggregation statistics) is written to stdout — the machine-readable
// form CI records as BENCH_*.json performance trajectories.
//
// # Profiling the simulator
//
// rxbench doubles as the profiling harness for the simulator's own hot
// path (wall-clock and allocations, not virtual cycles):
//
//	rxbench -experiment connscale -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
//	go tool pprof -top -sample_index=alloc_objects mem.prof
//
// The CPU profile covers the whole invocation; the heap profile is
// written after the final run (post-GC, so it shows live retention —
// use alloc_objects/alloc_space indices for cumulative churn). The loop
// for an allocation fix: profile, kill the top allocation site, re-run
// the replay suite, repeat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

var (
	experiment = flag.String("experiment", "all",
		"experiment to run: all, "+strings.Join(experiments.Names(), ", "))
	duration = flag.Duration("duration", 150*time.Millisecond, "measured virtual duration per run")
	warmup   = flag.Duration("warmup", 40*time.Millisecond, "virtual warm-up before measurement")
	sysFlag  = flag.String("sys", "up",
		"system for the experiments that take one (the paper's figures fix their own): up, smp, xen (xen scales paravirtual I/O channels)")
	queueList = flag.String("queues", "1,2,4,8",
		"queue counts swept by the rss experiment (comma-separated); steer, reorder and restartstorm run at the last")
	jsonOut = flag.Bool("json", false,
		"emit machine-readable JSON run records on stdout (tables move to stderr)")
	parallel = flag.Int("parallel", 1,
		"worker goroutines for the independent points of every experiment; output order is deterministic")
	cpuProfile = flag.String("cpuprofile", "",
		"write a CPU profile of the whole invocation to this file")
	memProfile = flag.String("memprofile", "",
		"write a heap profile (after the final run) to this file")
	traceOut = flag.String("trace", "",
		"write a Chrome trace (chrome://tracing / Perfetto) of the invocation's final stream run to this file; enables span telemetry on every run (observation cost is zero — results are unchanged)")
)

// runRecord is one stream run's machine-readable result.
type runRecord struct {
	Experiment        string         `json:"experiment"`
	System            string         `json:"system"`
	Opt               string         `json:"opt"`
	NICs              int            `json:"nics"`
	Queues            int            `json:"queues"`
	Connections       int            `json:"connections"`
	AggLimit          int            `json:"agg_limit,omitempty"`
	MessageSize       int            `json:"message_size,omitempty"`
	FlowSkew          float64        `json:"flow_skew,omitempty"`
	ReorderOneIn      int            `json:"reorder_one_in,omitempty"`
	ReorderDistance   int            `json:"reorder_distance,omitempty"`
	ReorderWindow     int            `json:"reorder_window,omitempty"`
	TimeWaitPrefill   int            `json:"timewait_prefill,omitempty"`
	Layout            string         `json:"layout,omitempty"`
	RegisteredFlows   int            `json:"registered_flows,omitempty"`
	Mbps              float64        `json:"mbps"`
	CPUUtil           float64        `json:"cpu_util"`
	CyclesPerPacket   float64        `json:"cycles_per_packet"`
	CyclesPerByte     float64        `json:"cycles_per_byte"`
	AggFactor         float64        `json:"agg_factor"`
	BytesPerAggregate float64        `json:"bytes_per_aggregate,omitempty"`
	Frames            uint64         `json:"frames"`
	OOOSegs           uint64         `json:"ooo_segs,omitempty"`
	ReorderedFrames   uint64         `json:"reordered_frames,omitempty"`
	LossModel         string         `json:"loss_model,omitempty"`
	LossRate          float64        `json:"loss_rate,omitempty"`
	SACK              bool           `json:"sack,omitempty"`
	LostFrames        uint64         `json:"lost_frames,omitempty"`
	DemuxCyclesPerPkt float64        `json:"demux_cycles_per_packet,omitempty"`
	TableBytes        uint64         `json:"table_bytes,omitempty"`
	MemPeakBytes      uint64         `json:"mem_peak_bytes,omitempty"`
	Agg               repro.AggStats `json:"agg_stats"`
	// TimeWait is the TIME_WAIT table summary (omitted when no flow
	// ever lingered); Storm summarizes restart-storm activity.
	TimeWait *repro.TimeWaitStats `json:"timewait,omitempty"`
	Storm    *repro.StormReport   `json:"storm,omitempty"`
	// Loss sums the senders' loss-recovery counters; Recovery digests the
	// per-episode recovery-latency histogram (telemetry runs only).
	Loss     *repro.LossReport     `json:"loss,omitempty"`
	Recovery *repro.LatencySummary `json:"recovery,omitempty"`
	// Latency is the per-message latency telemetry (present whenever the
	// run collected it — always for the rr incast experiment); RPCRounds
	// counts its completed request bursts.
	Latency   *repro.LatencyReport `json:"latency,omitempty"`
	RPCRounds uint64               `json:"rpc_rounds,omitempty"`
	// Error marks a point whose run failed; the metric fields are zero
	// and the experiment's other points are still valid.
	Error string `json:"error,omitempty"`
}

// rrRecord is one request/response run's machine-readable result.
type rrRecord struct {
	Experiment     string  `json:"experiment"`
	System         string  `json:"system"`
	Opt            string  `json:"opt"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	Error          string  `json:"error,omitempty"`
}

var (
	curExperiment string
	// records holds the -json report: runRecords and rrRecords in run
	// order.
	records []any
	// pointFailures counts points that failed (reported in-table and in
	// JSON rather than aborting the experiment; nonzero exit at the end).
	pointFailures int
	// traceSpans holds the final stream run's span timeline when -trace
	// is set.
	traceSpans []repro.Span
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rxbench: ")
	flag.Parse()

	entries := experiments.All()
	if *experiment != "all" {
		e, ok := experiments.Lookup(*experiment)
		if !ok {
			log.Printf("unknown experiment %q", *experiment)
			flag.Usage()
			os.Exit(2)
		}
		entries = []experiments.Entry{e}
	}
	os.Exit(run(entries, os.Stdout, os.Stderr))
}

// run executes entries in order, printing their tables (to stderr under
// -json, which gives stdout to the JSON document), and returns the exit
// status: 1 if any point failed.
func run(entries []experiments.Entry, stdout, stderr io.Writer) int {
	params := benchParams()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile()

	tables := stdout
	if *jsonOut {
		tables = stderr
	}
	for _, e := range entries {
		curExperiment = e.Name
		pts := e.Points(params)
		e.Table(tables, pts, streamMany(pts))
		if len(entries) > 1 {
			fmt.Fprintln(tables)
		}
	}
	writeTrace(stderr)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			log.Fatal(err)
		}
	}
	if pointFailures > 0 {
		return 1
	}
	return 0
}

// writeTrace validates and writes the captured span timeline when -trace
// is set. Validation runs before the file is written, so a malformed
// trace fails the invocation instead of landing on disk.
func writeTrace(stderr io.Writer) {
	if *traceOut == "" {
		return
	}
	if traceSpans == nil {
		log.Fatal("-trace: no stream run produced spans")
	}
	var buf strings.Builder
	if err := telemetry.WriteChromeTrace(&buf, traceSpans); err != nil {
		log.Fatal(err)
	}
	complete, err := telemetry.ValidateChromeTrace([]byte(buf.String()))
	if err != nil {
		log.Fatalf("-trace: generated trace is invalid: %v", err)
	}
	if err := os.WriteFile(*traceOut, []byte(buf.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(stderr, "rxbench: wrote %d spans (%d complete events) to %s\n",
		len(traceSpans), complete, *traceOut)
}

// writeMemProfile dumps the heap profile at exit when -memprofile is set.
func writeMemProfile() {
	if *memProfile == "" {
		return
	}
	f, err := os.Create(*memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	runtime.GC() // materialize the post-run live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
}

// streamMany runs an experiment's points, at most -parallel at a time on
// their own goroutines (each run builds its own topology, so points share
// nothing). Results and JSON records keep the input order whatever the
// completion order was. A failed point does not abort the experiment: its
// error is logged, recorded in the JSON report and reported in the table
// (results[i].Err != nil); the process exits nonzero at the end.
func streamMany(pts []experiments.Point) []experiments.Result {
	// With -trace every stream point records spans into its own slot
	// (workers never share one), and the final point's timeline wins.
	spanBufs := make([][]repro.Span, len(pts))
	for i, pt := range pts {
		if *traceOut != "" && pt.Stream != nil {
			pt.Stream.Telemetry.Latency, pt.Stream.Telemetry.Spans = true, true
			pt.Stream.Telemetry.SpanSink = func(s []repro.Span) { spanBufs[i] = s }
		}
	}
	results := make([]experiments.Result, len(pts))
	slots := make(chan struct{}, max(*parallel, 1))
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			results[i] = pts[i].Run()
			<-slots
		}()
	}
	wg.Wait()
	for i, pt := range pts {
		if spanBufs[i] != nil {
			traceSpans = spanBufs[i]
		}
		err := results[i].Err
		if err != nil {
			pointFailures++
			log.Printf("%s point %d (%s): %v", curExperiment, i, pt.Label, err)
		}
		if pt.Stream != nil {
			record(*pt.Stream, results[i].Stream, err)
			continue
		}
		r := rrRecord{curExperiment, pt.RR.System.String(), pt.RR.Opt.String(), results[i].RR.RequestsPerSec, ""}
		if err != nil {
			r.Error = err.Error()
		}
		records = append(records, r)
	}
	return results
}

// record captures one stream run for the -json report. A failed run
// keeps its configuration and the error; its metric fields are zero.
func record(cfg repro.StreamConfig, res repro.StreamResult, err error) {
	if err != nil {
		records = append(records, runRecord{Experiment: curExperiment, System: cfg.System.String(), Opt: cfg.Opt.String(),
			NICs: cfg.NICs, Queues: cfg.Queues, Connections: cfg.Connections, Error: err.Error()})
		return
	}
	r := runRecord{
		Experiment:      curExperiment,
		System:          cfg.System.String(),
		Opt:             cfg.Opt.String(),
		NICs:            cfg.NICs,
		Queues:          res.Queues,
		Connections:     cfg.Connections,
		AggLimit:        cfg.AggLimit,
		MessageSize:     cfg.MessageSize,
		FlowSkew:        cfg.FlowSkew,
		ReorderOneIn:    cfg.Reorder.OneIn,
		ReorderDistance: cfg.Reorder.Distance,
		ReorderWindow:   cfg.ReorderWindow,
		Mbps:            res.ThroughputMbps,
		CPUUtil:         res.CPUUtil,
		CyclesPerPacket: res.CyclesPerPacket,
		AggFactor:       res.AggFactor,
		Frames:          res.Frames,
		OOOSegs:         res.OOOSegs,
		ReorderedFrames: res.ReorderedFrames,
		Agg:             res.AggStats,
		Storm:           res.Storm,
		TimeWaitPrefill: cfg.RestartStorm.PrefillTimeWait,

		CyclesPerByte:     res.CyclesPerByte(),
		BytesPerAggregate: res.BytesPerAggregate(),
	}
	if res.TimeWait.Entered > 0 {
		tw := res.TimeWait
		r.TimeWait = &tw
	}
	if res.Latency.Enabled {
		lat := res.Latency
		r.Latency = &lat
		r.RPCRounds = res.RPCRounds
	}
	if cfg.Loss.OneIn > 0 || cfg.Loss.BurstRate > 0 || cfg.SACK {
		r.LossModel, r.LossRate = experiments.LossModel(&cfg)
		r.SACK = cfg.SACK
		r.LostFrames = res.LostFrames
		l := res.Loss
		r.Loss = &l
		if res.Latency.Enabled {
			rec := res.Latency.Recovery
			r.Recovery = &rec
		}
	}
	if cfg.RegisteredFlows > 0 || cfg.FlowLayout != repro.LayoutOpenAddressed {
		r.Layout = cfg.FlowLayout.String()
		r.RegisteredFlows = cfg.RegisteredFlows
		r.DemuxCyclesPerPkt = res.DemuxCyclesPerPacket()
		r.TableBytes = res.Demux.Bytes
		r.MemPeakBytes = res.Mem.PeakBytes
	}
	records = append(records, r)
}

// benchParams resolves the -sys, -queues, -warmup and -duration flags.
func benchParams() experiments.Params {
	sys, err := repro.ParseSystem(*sysFlag)
	if err != nil {
		log.Fatalf("-sys: %v", err)
	}
	p := experiments.Params{System: sys, WarmupNs: uint64(warmup.Nanoseconds()), DurationNs: uint64(duration.Nanoseconds())}
	for _, f := range strings.Split(*queueList, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || q <= 0 {
			log.Fatalf("bad -queues entry %q", f)
		}
		p.Queues = append(p.Queues, q)
	}
	return p
}
