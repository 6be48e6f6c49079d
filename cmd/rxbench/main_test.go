package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"log"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// setFlags sets rxbench flags (name, value pairs) for one test, clears
// the state a previous run left behind, and restores both afterwards.
func setFlags(t *testing.T, kv ...string) {
	t.Helper()
	for i := 0; i < len(kv); i += 2 {
		name := kv[i]
		if err := flag.Set(name, kv[i+1]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, flag.Lookup(name).DefValue) })
	}
	reset := func() { curExperiment, records, pointFailures, traceSpans = "", nil, 0, nil }
	reset()
	t.Cleanup(reset)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// TestFailedPointDoesNotAbortTheExperiment runs an rss sweep in which one
// point is invalid: the other points still run and report, the JSON
// carries an error record for the invalid one, and exactly one failure
// makes the exit status 1.
func TestFailedPointDoesNotAbortTheExperiment(t *testing.T) {
	setFlags(t, "json", "true", "queues", "1,2", "duration", "20ms", "warmup", "10ms", "parallel", "2")
	rss, _ := experiments.Lookup("rss")
	const bad = 1
	broken := rss
	broken.Points = func(p experiments.Params) []experiments.Point {
		pts := rss.Points(p)
		pts[bad].Stream.RegisteredFlows = sim.MaxRegisteredFlows + 1
		return pts
	}
	var stdout, stderr bytes.Buffer
	log.SetOutput(&stderr)
	if code := run([]experiments.Entry{broken}, &stdout, &stderr); code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if pointFailures != 1 {
		t.Errorf("%d failures counted, want 1", pointFailures)
	}
	var recs []runRecord
	if err := json.Unmarshal(stdout.Bytes(), &recs); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d records, want 4 (2 paths × 2 queue counts)", len(recs))
	}
	for i, r := range recs {
		switch {
		case i == bad && !strings.Contains(r.Error, "RegisteredFlows"):
			t.Errorf("record %d: error %q, want the RegisteredFlows validation error", i, r.Error)
		case i != bad && (r.Error != "" || r.Mbps <= 0):
			t.Errorf("record %d: error %q at %.0f Mb/s, want a completed run", i, r.Error, r.Mbps)
		}
	}
	if n := strings.Count(stderr.String(), "FAILED"); n != 1 {
		t.Errorf("table reports %d FAILED rows, want 1:\n%s", n, stderr.String())
	}
}

// TestTable1JSON checks that Table 1's request/response runs reach the
// -json report: one record per system and receive path.
func TestTable1JSON(t *testing.T) {
	setFlags(t, "json", "true")
	table1, _ := experiments.Lookup("table1")
	var stdout, stderr bytes.Buffer
	if code := run([]experiments.Entry{table1}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d:\n%s", code, stderr.String())
	}
	var recs []rrRecord
	if err := json.Unmarshal(stdout.Bytes(), &recs); err != nil {
		t.Fatalf("decoding -json output: %v", err)
	}
	var got []string
	for _, r := range recs {
		if r.Experiment != "table1" || r.RequestsPerSec <= 0 || r.Error != "" {
			t.Errorf("record %+v: want a completed table1 run", r)
		}
		got = append(got, r.System+"/"+r.Opt)
	}
	want := []string{"Linux UP/Original", "Linux UP/Optimized", "Linux SMP/Original",
		"Linux SMP/Optimized", "Xen/Original", "Xen/Optimized"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records for %q, want %q", got, want)
	}
}
