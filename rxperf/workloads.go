package main

import "repro"

// workload is one benchmark input: the RunStream configs one pass runs, in
// order. All run on the default serial scheduler; none sets
// ParallelScheduler, which is a program setting rather than a property of
// the traffic.
type workload struct {
	name string
	// seeded reports whether --seed changes the configs. Unseeded workloads
	// run the same inputs under every seed.
	seeded  bool
	configs func(seed uint64) []repro.StreamConfig
}

var workloads = []workload{
	{"paper_fig7", false, paperFig7Configs},
	{"connscale_small", false, connscaleSmallConfigs},
	{"xen_loss", true, xenLossConfigs},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperFig7 are the paper's Figure 7 throughputs in Mb/s, in the order of
// paperFig7Configs: UP, SMP and Xen, each Original then Optimized.
var paperFig7 = []float64{3452, 4660, 2988, 4660, 1088, 1877}

// paperFig7Configs are the six Figure 7 points: five links, one connection
// per link, 40 ms warm-up and 150 ms measured.
func paperFig7Configs(uint64) []repro.StreamConfig {
	var cfgs []repro.StreamConfig
	for _, sys := range []repro.SystemKind{repro.SystemNativeUP, repro.SystemNativeSMP, repro.SystemXen} {
		for _, opt := range []repro.OptLevel{repro.OptNone, repro.OptFull} {
			cfgs = append(cfgs, repro.DefaultStreamConfig(sys, opt))
		}
	}
	return cfgs
}

// connscaleSmallConfigs is a many-flow, small-message receiver: 64 active
// zipf-1.1 flows among a million registered over 4 links and 2 RSS
// queues, 256-byte messages, churn every 2 ms with TIME_WAIT reuse, and a
// restart storm at 100 ms that tears down half the flows against 50,000
// prefilled TIME_WAIT entries.
func connscaleSmallConfigs(uint64) []repro.StreamConfig {
	cfg := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptNone)
	cfg.NICs = 4
	cfg.Queues = 2
	cfg.Connections = 64
	cfg.FlowSkew = 1.1
	cfg.RegisteredFlows = 1_000_000
	cfg.MessageSize = 256
	cfg.ChurnIntervalNs = 2_000_000
	cfg.TimeWaitReuse = true
	cfg.RestartStorm = repro.RestartStormConfig{
		AtNs:            100_000_000,
		Fraction:        0.5,
		PrefillTimeWait: 50_000,
	}
	return []repro.StreamConfig{cfg}
}

// xenLossDraws is how many loss patterns one xen_loss pass runs. Results
// under loss vary with the drop pattern, so a pass averages several
// patterns drawn from the workload seed.
const xenLossDraws = 3

// xenLossConfigs is an optimized Xen guest recovering from faults: 20
// connections over 5 links and 2 I/O channels, 1% uniform loss, 2%
// adjacent-swap reorder, a 4-frame resequencing window, SACK, and latency
// telemetry. Link i of a config drops frames from the sequence Seed+i, so
// the draws' seeds are spaced apart to share no link's sequence, within
// one workload seed or across seeds.
func xenLossConfigs(seed uint64) []repro.StreamConfig {
	var cfgs []repro.StreamConfig
	for d := uint64(0); d < xenLossDraws; d++ {
		cfg := repro.DefaultStreamConfig(repro.SystemXen, repro.OptFull)
		cfg.Connections = 20
		cfg.Queues = 2
		cfg.SACK = true
		cfg.Loss = repro.LossConfig{OneIn: 100, Seed: (seed*xenLossDraws + d) * 8}
		cfg.Reorder = repro.ReorderConfig{OneIn: 50}
		cfg.ReorderWindow = 4
		cfg.Telemetry.Latency = true
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
