package repro

import (
	"reflect"
	"testing"
)

// goldenShapes enumerates one representative config per golden workload
// shape grown so far: the single-queue regression lock, RSS multi-queue
// scaling, flow churn, dynamic steering, the reorder fault injector, the
// restart storm, connection-scale demux (both flow-table layouts), wire
// corruption, loss recovery, the Xen paravirtual path and the RPC incast.
// The names are stable test IDs.
func goldenShapes() map[string]StreamConfig {
	shapes := map[string]StreamConfig{}

	for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
		for _, opt := range []OptLevel{OptNone, OptFull} {
			cfg := DefaultStreamConfig(sys, opt)
			cfg.Queues = 1
			shapes["n1/"+sys.String()+"/"+opt.String()] = cfg
		}
	}

	rss := DefaultStreamConfig(SystemNativeUP, OptNone)
	rss.NICs = 8
	rss.Queues = 4
	rss.Connections = 64
	rss.FlowSkew = 1.1
	shapes["rss/8nic-4q"] = rss

	churn := DefaultStreamConfig(SystemNativeSMP, OptFull)
	churn.NICs = 8
	churn.Queues = 4
	churn.Connections = 200
	churn.FlowSkew = 1.2
	churn.ChurnIntervalNs = 2_000_000
	shapes["churn/200flow"] = churn

	steer := DefaultStreamConfig(SystemNativeUP, OptFull)
	steer.NICs = 8
	steer.Queues = 4
	steer.Connections = 200
	steer.FlowSkew = 1.2
	steer.Steering = SteerConfig{Enabled: true, ARFS: true}
	shapes["steer/fallback"] = steer

	reorder := DefaultStreamConfig(SystemNativeSMP, OptAggregation)
	reorder.Queues = 2
	reorder.Connections = 12
	reorder.ReorderWindow = 8
	reorder.Reorder = ReorderConfig{OneIn: 7, Distance: 3}
	shapes["reorder/window8"] = reorder

	storm := DefaultStreamConfig(SystemNativeSMP, OptFull)
	storm.Queues = 4
	storm.Connections = 24
	storm.RestartStorm = RestartStormConfig{AtNs: 20_000_000, PrefillTimeWait: 5000}
	storm.TimeWaitReuse = true
	storm.MaxTimeWaitBuckets = 4096
	shapes["storm/reuse"] = storm

	for name, layout := range map[string]FlowLayout{
		"open": LayoutOpenAddressed, "map": LayoutSeedMap,
	} {
		cs := DefaultStreamConfig(SystemNativeSMP, OptFull)
		cs.Queues = 4
		cs.Connections = 64
		cs.RegisteredFlows = 50_000
		cs.FlowLayout = layout
		shapes["connscale/"+name] = cs
	}

	corrupt := DefaultStreamConfig(SystemNativeUP, OptFull)
	corrupt.CorruptOneIn = 900
	shapes["corrupt/retransmit"] = corrupt

	loss := DefaultStreamConfig(SystemNativeUP, OptFull)
	loss.Loss = LossConfig{OneIn: 400, Seed: 3}
	loss.SACK = true
	shapes["loss/uniform-sack"] = loss

	burst := DefaultStreamConfig(SystemNativeSMP, OptFull)
	burst.Queues = 2
	burst.Connections = 8
	burst.Loss = LossConfig{BurstRate: 0.01, BurstLen: 4}
	shapes["loss/burst-reno"] = burst

	xen := DefaultStreamConfig(SystemXen, OptFull)
	xen.Queues = 2
	xen.Connections = 16
	shapes["xen/fallback-2q"] = xen

	rpc := DefaultStreamConfig(SystemNativeSMP, OptFull)
	rpc.NICs = 2
	rpc.Queues = 2
	rpc.Connections = 16
	rpc.RPC = RPCConfig{Enabled: true}
	shapes["rpc/incast-2q"] = rpc

	return shapes
}

// traceShapes are the span-heavy shapes: a 4-NIC 4-queue bulk stream and
// the RPC incast, whose request bursts interleave spans across every CPU.
func traceShapes() map[string]StreamConfig {
	stream := DefaultStreamConfig(SystemNativeSMP, OptFull)
	stream.NICs = 4
	stream.Queues = 4
	stream.Connections = 32
	return map[string]StreamConfig{
		"stream/4q":  stream,
		"rpc/incast": goldenShapes()["rpc/incast-2q"],
	}
}

// TestReplayDeterminism is the replay guarantee: a run is a pure function
// of its StreamConfig. Every golden shape must replay exactly (see
// checkReplay).
func TestReplayDeterminism(t *testing.T) {
	checkReplay(t, goldenShapes())
}

// TestTraceReplayDeterminism holds the trace shapes to the same guarantee,
// so the exported timelines are reproducible, not just the aggregates.
func TestTraceReplayDeterminism(t *testing.T) {
	checkReplay(t, traceShapes())
}

// checkReplay runs every shape twice with latency and span telemetry on;
// both runs must reproduce the StreamResult and the span stream exactly —
// not within tolerance, down to float bit patterns and span order. A third
// run with telemetry off must reproduce every modeled field (zero
// perturbation: observation never moves an event or a cycle).
func checkReplay(t *testing.T, shapes map[string]StreamConfig) {
	for name, cfg := range shapes {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.DurationNs = 20_000_000
			cfg.WarmupNs = 10_000_000

			traced := func() (StreamResult, []Span) {
				c := cfg
				var spans []Span
				c.Telemetry = TelemetryConfig{Latency: true, Spans: true,
					SpanSink: func(s []Span) { spans = s }}
				res, err := RunStream(c)
				if err != nil {
					t.Fatalf("telemetry on: %v", err)
				}
				return res, spans
			}
			first, firstSpans := traced()
			second, secondSpans := traced()
			if len(firstSpans) == 0 {
				t.Fatal("traced run emitted no spans")
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("replay diverges:\n  first:  %+v\n  second: %+v", first, second)
			}
			if !reflect.DeepEqual(firstSpans, secondSpans) {
				t.Errorf("span streams diverge: %d vs %d spans", len(firstSpans), len(secondSpans))
			}

			off, err := RunStream(cfg)
			if err != nil {
				t.Fatalf("telemetry off: %v", err)
			}
			// The RPC shape forces Latency on even in the "off" run; strip
			// the report from both sides so the comparison covers every
			// modeled field.
			off.Latency, first.Latency = LatencyReport{}, LatencyReport{}
			if !reflect.DeepEqual(off, first) {
				t.Errorf("telemetry perturbed the run:\n  off: %+v\n  on:  %+v", off, first)
			}
		})
	}
}
