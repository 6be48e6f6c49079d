// Command rxperf is the repository's benchmark. It runs one workload of
// repro.RunStream configs on the default serial scheduler, checks every
// call for correctness, and prints the metrics BENCHMARK.json declares:
//
//	bash rxperf/run.sh --workload paper_fig7 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. Set-up is timed on
// the workload's configs with a 1 ns run, repeated and reported as the
// median; passes over the configs are then repeated for --seconds and
// their host time and allocation reported as medians. Host time is the
// process's CPU time, every thread counted, so collector work shows and
// time spent waiting for a CPU mostly does not; each pass starts from a
// collected heap, so passes do not inherit each other's garbage. Modeled
// metrics come from the results, which must repeat exactly.
//
// With --trace 1 it reports the per-layer metrics: it runs untraced passes
// for half of --seconds and CPU-profiled passes for the other half, and
// folds the profile samples and the sampled allocation profile into the
// simulator's layers (layers.go).
//
// The last line of standard output is the result object; the lines before
// it are the run's manifest and a readable summary. --record rewrites
// golden.json with the results of the run, which later runs must
// reproduce.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
)

const (
	// Set-up is timed at least setupReps times and for at least setupTime,
	// so that a cheap set-up is repeated often enough for a steady median.
	setupReps = 7
	setupTime = 2 * time.Second
	// minPasses is the fewest passes a measurement makes, however short
	// --seconds is.
	minPasses = 3
	// maxUnattributedPct bounds the share of traced CPU time that folds
	// into no layer, runtime.gc or the harness.
	maxUnattributedPct = 2.0
	// maxFailLines caps the failures printed; set-up alone may repeat a
	// failing config thousands of times.
	maxFailLines = 20
	goldenPath   = "rxperf/golden.json"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rxperf:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// manifest records what produced a result.
type manifest struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seeded       bool   `json:"seeded"`
	Trace        int    `json:"trace"`
	ConfigDigest string `json:"config_digest"`
	Configs      int    `json:"configs"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	Revision     string `json:"vcs_revision"`
}

func run() error {
	name := flag.String("workload", "", "workload: paper_fig7, connscale_small or xen_loss")
	seed := flag.Uint64("seed", 1, "workload seed (recorded results are for seed 1)")
	seconds := flag.Int("seconds", 20, "seconds of measured passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := flag.Bool("record", false, "rewrite "+goldenPath+" with this run's results")
	flag.Parse()
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return fmt.Errorf("unknown --workload %q", *name)
	case *seconds < 1:
		return errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	g, err := newGate(*record)
	if err != nil {
		return err
	}
	b := &bench{w: w, cfgs: w.configs(*seed), g: g, seconds: time.Duration(*seconds) * time.Second}

	man := manifest{
		Workload: w.name, Seed: *seed, Seeded: w.seeded, Trace: *trace,
		ConfigDigest: workloadDigest(b.cfgs), Configs: len(b.cfgs),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Revision: revision(),
	}
	mj, _ := json.Marshal(man) // plain struct: always encodes
	fmt.Printf("manifest %s\n", mj)

	m, defs := metrics{}, endToEndDefs
	if *trace == 0 {
		b.endToEnd(m)
	} else {
		defs = perLayerDefs()
		if err := b.perLayer(m); err != nil {
			return err
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(m), len(defs))
	}
	for i, f := range g.failures {
		if i == maxFailLines {
			fmt.Printf("FAIL ... and %d more\n", len(g.failures)-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	if *record {
		if err := g.writeGolden(goldenPath); err != nil {
			return err
		}
	}
	out, err := json.Marshal(result{Correct: len(g.failures) == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench runs one workload.
type bench struct {
	w       workload
	cfgs    []repro.StreamConfig
	g       *gate
	seconds time.Duration
}

// passStats are the host costs of one pass.
type passStats struct {
	secs       float64 // process CPU time, every thread: user and system
	wallSecs   float64
	allocBytes uint64
	mallocs    uint64
	gcRuns     uint32
}

// pass runs every config once, times the RunStream calls, then checks the
// results. set names the configs in golden.json and failure messages, and
// phase tells failures apart.
func (b *bench) pass(phase, set string, cfgs []repro.StreamConfig) ([]repro.StreamResult, passStats) {
	res := make([]repro.StreamResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var m0, m1 runtime.MemStats
	runtime.GC() // every pass starts from a collected heap
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	for i, cfg := range cfgs {
		res[i], errs[i] = repro.RunStream(cfg)
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	for i, cfg := range cfgs {
		b.g.check(phase, fmt.Sprintf("%s[%d]", set, i), cfg, res[i], errs[i])
	}
	return res, passStats{
		secs:       cpu,
		wallSecs:   wall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcRuns:     m1.NumGC - m0.NumGC,
	}
}

// passes repeats timed passes until d has elapsed, and at least minPasses.
func (b *bench) passes(phase string, d time.Duration) []passStats {
	var ps []passStats
	for end := time.Now().Add(d); len(ps) < minPasses || time.Now().Before(end); {
		_, s := b.pass(phase, b.w.name, b.cfgs)
		ps = append(ps, s)
	}
	return ps
}

// latencyResults returns results with latency telemetry on: ref itself
// when the workload already records latency, else one more pass with it
// turned on (telemetry does not perturb the modeled result, which the
// gate checks).
func (b *bench) latencyResults(ref []repro.StreamResult) []repro.StreamResult {
	if b.cfgs[0].Telemetry.Latency {
		return ref
	}
	cfgs := append([]repro.StreamConfig(nil), b.cfgs...)
	for i := range cfgs {
		cfgs[i].Telemetry.Latency = true
	}
	lat, _ := b.pass("latency", b.w.name+" latency", cfgs)
	return lat
}

func (b *bench) endToEnd(m metrics) {
	setupCfgs := append([]repro.StreamConfig(nil), b.cfgs...)
	for i := range setupCfgs {
		setupCfgs[i].WarmupNs, setupCfgs[i].DurationNs = 0, 1 // 0 would mean the default
	}
	var setup []float64
	for end := time.Now().Add(setupTime); len(setup) < setupReps || time.Now().Before(end); {
		_, s := b.pass("setup", b.w.name+" setup", setupCfgs)
		setup = append(setup, s.secs)
	}
	ref, _ := b.pass("warm", b.w.name, b.cfgs)
	ps := b.passes("timed", b.seconds)
	secs := make([]float64, len(ps))
	walls := make([]float64, len(ps))
	alloc := make([]float64, len(ps))
	for i, p := range ps {
		secs[i], walls[i], alloc[i] = p.secs, p.wallSecs, float64(p.allocBytes)/mib
	}
	fmt.Printf("pass_s median %.4f s (wall clock %.4f s) over %d passes", median(append([]float64(nil), secs...)), median(walls), len(secs))
	if p, v, ok := tail(secs); ok {
		fmt.Printf(", p%g %.4f s\n", p, v)
	} else {
		fmt.Printf(" (too few for a tail percentile with ten samples beyond it)\n")
	}

	fig7 := ref
	if b.w.name != "paper_fig7" {
		fig7, _ = b.pass("reference", "paper_fig7", paperFig7Configs(0))
	}
	m.set(endToEndDefs, "pass_s", median(secs))
	m.set(endToEndDefs, "setup_s", median(setup))
	m.set(endToEndDefs, "alloc_mb_per_pass", median(alloc))
	modeledEndToEnd(m, ref, b.latencyResults(ref), fig7)
}

func (b *bench) perLayer(m metrics) error {
	defs := perLayerDefs()
	ref, _ := b.pass("warm", b.w.name, b.cfgs)
	untraced := b.passes("untraced", b.seconds/2)

	runtime.GC()
	runtime.GC() // the allocation profile is published one cycle late
	before := takeAllocSnapshot()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	traced := b.passes("traced", b.seconds/2)
	pprof.StopCPUProfile()
	runtime.GC()
	runtime.GC()
	after := takeAllocSnapshot()

	unknown := map[string]bool{}
	cpu, err := foldCPUProfile(prof.Bytes(), unknown)
	if err != nil {
		return err
	}
	allocs := foldAllocs(before, after, unknown)
	n := float64(len(traced))
	for _, l := range layers {
		m.set(defs, l.name+".self_ms", cpu[l.name]/1e6/n)
		m.set(defs, l.name+".alloc_mb", allocs[l.name]/mib/n)
	}
	var gcRuns, mallocs float64
	tracedSecs := make([]float64, len(traced))
	for i, p := range traced {
		gcRuns += float64(p.gcRuns)
		mallocs += float64(p.mallocs)
		tracedSecs[i] = p.secs
	}
	untracedSecs := make([]float64, len(untraced))
	for i, p := range untraced {
		untracedSecs[i] = p.secs
	}
	base := median(untracedSecs)
	total := cpu.total()
	unattributed := 100 * cpu[bucketOther] / total
	m.set(defs, "runtime.gc.self_ms", cpu[bucketGC]/1e6/n)
	m.set(defs, "runtime.gc_cycles", gcRuns/n)
	m.set(defs, "runtime.allocs", mallocs/n)
	m.set(defs, "runtime.peak_rss_mb", peakRSSMiB())
	m.set(defs, "trace.overhead_pct", 100*(median(tracedSecs)-base)/base)
	m.set(defs, "trace.unattributed_pct", unattributed)
	modeledPerLayer(m, ref, b.latencyResults(ref))

	printFold(cpu, allocs, n)
	if len(unknown) > 0 || unattributed > maxUnattributedPct {
		b.g.fail(fmt.Sprintf(
			"fold: %.2f%% of traced CPU time is unattributed (limit %.1f%%); packages missing from the layer table: %v",
			unattributed, maxUnattributedPct, keys(unknown)))
	}
	return nil
}

// printFold prints the per-bucket table of the traced passes.
func printFold(cpu, allocs fold, passes float64) {
	total := cpu.total()
	seen := map[string]bool{}
	var names []string
	for _, f := range []fold{cpu, allocs} {
		for _, k := range f.sortedKeys() {
			if !seen[k] {
				seen[k] = true
				names = append(names, k)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool { return cpu[names[i]] > cpu[names[j]] })
	fmt.Printf("%-14s %10s %7s %10s\n", "bucket", "self ms", "share", "alloc MiB")
	for _, k := range names {
		fmt.Printf("%-14s %10.1f %6.1f%% %10.1f\n", k, cpu[k]/1e6/passes, 100*cpu[k]/total, allocs[k]/mib/passes)
	}
}

func keys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// workloadDigest identifies a workload's configs, in order.
func workloadDigest(cfgs []repro.StreamConfig) string {
	var sb strings.Builder
	for _, c := range cfgs {
		sb.WriteString(configDigest(c))
	}
	return digest([]byte(sb.String()))
}

// revision is the VCS revision stamped into the build, or "unstamped".
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unstamped"
	}
	rev, modified := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	if rev == "" {
		return "unstamped"
	}
	return rev + modified
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}
