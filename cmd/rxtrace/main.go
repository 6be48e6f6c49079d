// Command rxtrace narrates the receive path frame by frame. The default
// mode feeds a small synthetic burst through the Receive Aggregation
// engine and prints what happened to every frame — a teaching and
// debugging view of the §3.1 rules: which frames coalesced, which passed
// through and why, and what the stack received. With -stream it traces a
// short real bulk-receive run instead, reporting per-track activity and
// the per-stage latency breakdown.
//
// Both modes are built on the telemetry span recorder, so either timeline
// exports to the Chrome trace viewer (chrome://tracing, Perfetto):
//
//	rxtrace -chrome agg.json
//	rxtrace -stream -sys smp -queues 4 -chrome run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/aggregate"
	"repro/internal/buf"
	"repro/internal/cost"
	"repro/internal/cycles"
	"repro/internal/ipv4"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/tcpwire"
	"repro/internal/telemetry"
)

var (
	limit  = flag.Int("limit", 5, "aggregation limit of the synthetic burst")
	chrome = flag.String("chrome", "", "write the traced timeline as Chrome trace JSON to this file")
	stream = flag.Bool("stream", false,
		"trace a short real bulk-receive run (per-CPU rounds, wire activity, stage latency) instead of the synthetic burst")
	sysFlag  = flag.String("sys", "up", "system for -stream: up, smp, xen")
	queues   = flag.Int("queues", 2, "RSS queues for -stream")
	duration = flag.Duration("duration", 10*time.Millisecond, "measured virtual duration for -stream")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rxtrace: ")
	flag.Parse()

	var spans []telemetry.Span
	if *stream {
		spans = traceStream()
	} else {
		spans = traceBurst()
	}
	if *chrome == "" {
		return
	}
	f, err := os.Create(*chrome)
	if err != nil {
		log.Fatal(err)
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
		len(spans), *chrome)
}

// traceStream runs a short real stream and summarizes its span timeline:
// how busy each track was, and where delivered messages spent their time.
func traceStream() []telemetry.Span {
	sys, err := repro.ParseSystem(*sysFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.DefaultStreamConfig(sys, repro.OptFull)
	cfg.Queues = *queues
	cfg.DurationNs = uint64(duration.Nanoseconds())
	cfg.WarmupNs = cfg.DurationNs / 2
	var spans []telemetry.Span
	cfg.Telemetry = repro.TelemetryConfig{Latency: true, Spans: true,
		SpanSink: func(s []repro.Span) { spans = s }}
	res, err := repro.RunStream(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s / %s, %d queues: %.0f Mb/s over %v measured\n\n",
		sys, cfg.Opt, *queues, res.ThroughputMbps, *duration)

	// Per-track activity, in first-appearance order (the recorder's track
	// order: CPU tracks, then wire tracks).
	type trackSum struct {
		name   string
		spans  int
		busyNs uint64
	}
	var tracks []trackSum
	idx := map[string]int{}
	for _, s := range spans {
		i, ok := idx[s.Track]
		if !ok {
			i = len(tracks)
			idx[s.Track] = i
			tracks = append(tracks, trackSum{name: s.Track})
		}
		tracks[i].spans++
		tracks[i].busyNs += s.DurNs
	}
	fmt.Printf("%-12s %8s %10s %7s\n", "track", "spans", "busy µs", "busy")
	for _, tr := range tracks {
		fmt.Printf("%-12s %8d %10.0f %6.1f%%\n", tr.name, tr.spans,
			float64(tr.busyNs)/1e3, float64(tr.busyNs)*100/float64(cfg.DurationNs))
	}

	fmt.Println()
	printLatency(res.Latency)
	return spans
}

// printLatency renders the per-stage residency breakdown of a run.
func printLatency(lat repro.LatencyReport) {
	fmt.Printf("latency per delivered message (%d samples, µs):\n", lat.E2E.Count)
	fmt.Printf("%-9s %9s %9s %9s %9s %7s\n", "stage", "mean", "p50", "p99", "max", "share")
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	for _, s := range lat.Stages {
		share := 0.0
		if lat.E2E.SumNs > 0 {
			share = float64(s.SumNs) * 100 / float64(lat.E2E.SumNs)
		}
		fmt.Printf("%-9s %9.1f %9.1f %9.1f %9.1f %6.1f%%\n",
			s.Stage, us(s.MeanNs), us(s.P50Ns), us(s.P99Ns), us(s.MaxNs), share)
	}
	fmt.Printf("%-9s %9.1f %9.1f %9.1f %9.1f %7s\n",
		"e2e", us(lat.E2E.MeanNs), us(lat.E2E.P50Ns), us(lat.E2E.P99Ns), us(lat.E2E.MaxNs), "100%")
}

// traceBurst is the classic synthetic §3.1 narration, now recording a
// span per frame and per host packet so the burst exports as a timeline:
// track "frame" shows what was fed, track "host" what the stack received.
func traceBurst() []telemetry.Span {
	var meter cycles.Meter
	params := cost.NativeUP()
	alloc := buf.NewAllocator(&meter, &params)
	eng, err := aggregate.New(aggregate.Config{Limit: *limit, TableSize: 64},
		&meter, &params, alloc)
	if err != nil {
		log.Fatal(err)
	}

	// A synthetic clock stands in for simulated time: one MSS frame is
	// ~12µs on a Gigabit wire, so each fed frame occupies a 12µs slot.
	const frameSlotNs = 12_000
	rec := telemetry.NewSpanRecorder(2)
	frameLane, hostLane := rec.Lane(0), rec.Lane(1)
	var now uint64

	hostPackets := 0
	eng.Out = func(s *buf.SKB) {
		hostPackets++
		kind := "passthrough"
		name := "passthrough"
		if s.Aggregated {
			kind = fmt.Sprintf("AGGREGATE of %d", s.NetPackets)
			name = fmt.Sprintf("aggregate[%d]", s.NetPackets)
		}
		fmt.Printf("  -> host packet %d: %s (frag acks %v)\n",
			hostPackets, kind, s.FragAcks())
		hostLane.Record("host", name, now, frameSlotNs/2)
		alloc.Free(s)
	}

	src := ipv4.Addr{10, 0, 0, 1}
	dst := ipv4.Addr{10, 0, 0, 2}
	seq := uint32(1)
	mk := func(mutate func(*packet.TCPSpec)) nic.Frame {
		spec := packet.TCPSpec{
			SrcIP: src, DstIP: dst, SrcPort: 5001, DstPort: 44000,
			Seq: seq, Ack: 1000, Flags: tcpwire.FlagACK,
			Window: 65535, HasTS: true, TSVal: 1,
			Payload: make([]byte, 1448),
		}
		if mutate != nil {
			mutate(&spec)
		}
		f := nic.Frame{Data: packet.MustBuild(spec), RxCsumOK: true}
		seq += uint32(len(spec.Payload))
		return f
	}

	feed := func(desc, short string, f nic.Frame) {
		fmt.Printf("frame: %s\n", desc)
		frameLane.Record("frame", short, now, frameSlotNs)
		eng.Input(f)
		now += frameSlotNs
	}

	fmt.Printf("aggregation limit = %d\n\n", *limit)
	for i := 0; i < *limit; i++ {
		feed(fmt.Sprintf("in-sequence MSS segment (seq %d)", seq), "mss", mk(nil))
	}
	feed("in-sequence segment starting a new aggregate", "mss", mk(nil))
	feed("pure ACK (never aggregated; flushes pending first)", "ack",
		mk(func(s *packet.TCPSpec) { s.Payload = nil }))
	feed("segment with SACK option (other options pass through)", "sack",
		mk(func(s *packet.TCPSpec) {
			s.RawTCPOptions = []byte{tcpwire.OptSACKPerm, 2, tcpwire.OptNOP, tcpwire.OptNOP}
		}))
	feed("out-of-sequence segment (gap: starts fresh)", "ooo",
		mk(func(s *packet.TCPSpec) { s.Seq += 50_000 }))
	seq += 50_000
	feed("in-sequence continuation", "mss", mk(nil))
	fmt.Println("\nqueue idle: flushing partial aggregates (work conservation)")
	eng.FlushAll()

	st := eng.Stats()
	fmt.Printf("\nengine stats: frames=%d host=%d coalesced=%d "+
		"flush{limit=%d mismatch=%d idle=%d} rejects{zero=%d opts=%d}\n",
		st.FramesIn, st.HostOut, st.Coalesced,
		st.FlushLimit, st.FlushMismatch, st.FlushIdle,
		st.RejZeroLen, st.RejOtherOptions)
	fmt.Printf("aggregation cycles charged: %d\n", meter.Get(cycles.Aggr))
	return rec.Drain()
}
