package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// smokeParams are short windows: enough for every point to reach steady
// state, short enough that the whole registry stays a tier-1 test.
func smokeParams(sys sim.SystemKind) Params {
	return Params{System: sys, Queues: []int{1, 2, 4, 8}, WarmupNs: 10_000_000, DurationNs: 20_000_000}
}

// TestRegistrySmoke runs every entry on UP, and each entry that reads the
// system on SMP and Xen as well: every point must complete without error,
// labels must be unique within their entry and usable as metric names,
// and every table must print.
func TestRegistrySmoke(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.Name] {
			t.Errorf("entry name %q is registered twice", e.Name)
		}
		seen[e.Name] = true
		systems := []sim.SystemKind{sim.SystemNativeUP}
		if e.ReadsSystem {
			systems = append(systems, sim.SystemNativeSMP, sim.SystemXen)
		}
		for _, sys := range systems {
			t.Run(e.Name+"/"+sysLabel(sys), func(t *testing.T) {
				t.Parallel()
				pts := e.Points(smokeParams(sys))
				if len(pts) == 0 {
					t.Fatal("no points")
				}
				labels := make(map[string]bool)
				res := make([]Result, len(pts))
				for i, pt := range pts {
					if labels[pt.Label] || pt.Label == "" || strings.ContainsAny(pt.Label, " \t\n") {
						t.Errorf("point %d: label %q is empty, repeated or has whitespace", i, pt.Label)
					}
					labels[pt.Label] = true
					if (pt.Stream == nil) == (pt.RR == nil) {
						t.Fatalf("point %s: want exactly one of Stream and RR", pt.Label)
					}
					if res[i] = pt.Run(); res[i].Err != nil {
						t.Errorf("point %s: %v", pt.Label, res[i].Err)
					}
				}
				var buf bytes.Buffer
				e.Table(&buf, pts, res)
				if buf.Len() == 0 {
					t.Error("empty table")
				}
			})
		}
	}
}

// TestReadsSystemDeclared checks each entry's ReadsSystem flag against
// what its Points do: an entry that declares it must build different runs
// per system, and one that does not must ignore Params.System.
func TestReadsSystemDeclared(t *testing.T) {
	for _, e := range All() {
		up := e.Points(smokeParams(sim.SystemNativeUP))
		xen := e.Points(smokeParams(sim.SystemXen))
		if same := reflect.DeepEqual(up, xen); same == e.ReadsSystem {
			t.Errorf("%s: ReadsSystem is %v, but points on up and xen are equal: %v", e.Name, e.ReadsSystem, same)
		}
	}
}

// TestTablesReportFailures feeds every table all-failed results: each
// must name the failure instead of printing zeros or panicking.
func TestTablesReportFailures(t *testing.T) {
	for _, e := range All() {
		pts := e.Points(smokeParams(sim.SystemNativeUP))
		res := make([]Result, len(pts))
		for i := range res {
			res[i].Err = errors.New("injected")
		}
		var buf bytes.Buffer
		e.Table(&buf, pts, res)
		if !strings.Contains(buf.String(), "FAILED: injected") {
			t.Errorf("%s: table does not report the failed points:\n%s", e.Name, buf.String())
		}
	}
}
