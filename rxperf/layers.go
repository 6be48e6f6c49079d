package main

import "strings"

// layer is one row of the per-layer table. Layers are the packages under
// repro/internal; sim is split by source file so that payload fill, the
// event heap and the links show apart from the machine wiring.
type layer struct {
	name string
	// moves names the end-to-end metrics this layer's numbers should move,
	// and on which workloads: the prediction a change to the layer is
	// judged against.
	moves string
}

// layers lists every simulator layer the traced run folds samples into.
// layers_test.go checks that it covers every package under internal/
// except the offline analysis suite.
var layers = []layer{
	{"checksum", "pass_s, alloc_mb_per_pass on paper_fig7 and xen_loss; not on connscale_small"},
	{"sim.sender", "pass_s, alloc_mb_per_pass on paper_fig7 and xen_loss (payload fill); not on connscale_small"},
	{"packet", "pass_s, alloc_mb_per_pass on paper_fig7 and xen_loss; not on connscale_small"},
	{"tcp", "pass_s, alloc_mb_per_pass on paper_fig7 and xen_loss; not on connscale_small"},
	{"netstack", "setup_s, pass_s, alloc_mb_per_pass on connscale_small; below 1% elsewhere"},
	{"memmodel", "setup_s, pass_s, alloc_mb_per_pass on connscale_small; below 1% elsewhere"},
	{"sim.clock", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"sim.link", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"sim.machine", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"tcpwire", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"ipv4", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"ether", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"nic", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"rss", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"driver", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"softirq", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"buf", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"cycles", "pass_s on every workload, in proportion to frames; largest share on connscale_small"},
	{"aggregate", "pass_s on paper_fig7 (OptFull half) and xen_loss; bypassed on connscale_small"},
	{"core", "pass_s on paper_fig7 (OptFull half) and xen_loss; bypassed on connscale_small"},
	{"ackoff", "pass_s on paper_fig7 (OptFull half) and xen_loss; bypassed on connscale_small"},
	{"xenvirt", "pass_s on xen_loss and the Xen third of paper_fig7"},
	{"telemetry", "pass_s on xen_loss only"},
	{"cost", "setup_s on every workload (cost profiles are read once per run)"},
	{"steer", "none: no workload enables dynamic steering"},
	{"profile", "none: report formatting, never called by RunStream"},
}

// simFileLayers splits internal/sim by source file; files not listed fold
// into sim.machine.
var simFileLayers = map[string]string{
	"sender.go": "sim.sender",
	"clock.go":  "sim.clock",
	"link.go":   "sim.link",
}

// Buckets for profile samples outside the simulator's layers.
const (
	bucketGC      = "runtime.gc"   // background mark workers, sweeping, scavenging
	bucketHarness = "harness"      // this benchmark's own code between passes
	bucketOther   = "unattributed" // anything else; the fold check bounds it
)

const internalPrefix = "repro/internal/"

// layerOf maps a function symbol and its source file to a layer, or
// reports false when the function is not in a simulator package.
func layerOf(fn, file string) (string, bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	rest := fn[len(internalPrefix):]
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	if j := strings.IndexByte(pkg, '/'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "sim" {
		base := file[strings.LastIndexByte(file, '/')+1:]
		if l, ok := simFileLayers[base]; ok {
			return l, true
		}
		return "sim.machine", true
	}
	return pkg, true
}
