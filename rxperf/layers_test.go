package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro"
)

// TestLayerTableCoversInternal checks that every package under internal/,
// except the offline analysis suite, has a layer, and that every layer
// names a package or sim file that exists. A package missing from the
// table would fold into the unattributed bucket.
func TestLayerTableCoversInternal(t *testing.T) {
	ents, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() && e.Name() != "analysis" {
			pkgs[e.Name()] = true
		}
	}
	want := map[string]bool{}
	for p := range pkgs {
		if p == "sim" {
			want["sim.machine"] = true
			for f, l := range simFileLayers {
				if _, err := os.Stat(filepath.Join("../internal/sim", f)); err != nil {
					t.Errorf("sim layer %s: %v", l, err)
				}
				want[l] = true
			}
			continue
		}
		want[p] = true
	}
	for l := range want {
		if !knownLayer[l] {
			t.Errorf("package layer %q is missing from the layer table", l)
		}
	}
	for _, l := range layers {
		if !want[l.name] {
			t.Errorf("layer %q names no package under internal/", l.name)
		}
	}
}

// TestBenchmarkJSONMatchesDefs checks that BENCHMARK.json declares exactly
// the metrics the benchmark reports, and only the workloads it runs.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs())
	for _, d := range perLayerDefs() {
		if d.moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", d.name)
		}
	}
}

func TestFoldStack(t *testing.T) {
	cases := []struct {
		frames []frame
		want   string
	}{
		// Runtime frames count toward the simulator layer that called them.
		{[]frame{{"runtime.mallocgc", "malloc.go"}, {"repro/internal/packet.Build", "/x/internal/packet/packet.go"}}, "packet"},
		{[]frame{{"repro/internal/sim.PatternPayload", "/x/internal/sim/sender.go"}}, "sim.sender"},
		{[]frame{{"repro/internal/sim.(*Sim).Run", "/x/internal/sim/clock.go"}}, "sim.clock"},
		{[]frame{{"repro/internal/sim.RunStream", "/x/internal/sim/stream.go"}}, "sim.machine"},
		{[]frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, bucketGC},
		{[]frame{{"encoding/json.Marshal", "encode.go"}, {"main.(*gate).check", "check.go"}}, bucketHarness},
		{[]frame{{"runtime.gcStart", "mgc.go"}, {"runtime.GC", "mgc.go"}, {"main.(*bench).pass", "main.go"}}, bucketHarness},
		{[]frame{{"runtime._System", ""}}, bucketOther},
	}
	for _, c := range cases {
		unknown := map[string]bool{}
		if got := foldStack(c.frames, unknown); got != c.want {
			t.Errorf("foldStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
	unknown := map[string]bool{}
	if got := foldStack([]frame{{"repro/internal/newpkg.F", "/x/internal/newpkg/f.go"}}, unknown); got != bucketOther || !unknown["newpkg"] {
		t.Errorf("unmapped package folded to %q, unknown %v", got, unknown)
	}
}

// TestFoldAccountsForProfile profiles a short run and checks that the
// parsed profile folds into layers, runtime.gc and the harness with
// almost nothing left unattributed.
func TestFoldAccountsForProfile(t *testing.T) {
	cfg := xenLossConfigs(1)[0]
	cfg.WarmupNs, cfg.DurationNs = 10_000_000, 40_000_000
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		if _, err := repro.RunStream(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	unknown := map[string]bool{}
	cpu, err := foldCPUProfile(prof.Bytes(), unknown)
	if err != nil {
		t.Fatal(err)
	}
	total := cpu.total()
	if total <= 0 {
		t.Fatal("empty profile")
	}
	if len(unknown) > 0 {
		t.Errorf("packages missing from the layer table: %v", unknown)
	}
	if share := 100 * cpu[bucketOther] / total; share > maxUnattributedPct {
		t.Errorf("%.2f%% unattributed (limit %.1f%%)", share, maxUnattributedPct)
	}
	for _, l := range []string{"checksum", "tcp", "xenvirt", "sim.sender"} {
		if cpu[l] <= 0 {
			t.Errorf("layer %s has no samples", l)
		}
	}
}
