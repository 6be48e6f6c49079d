package repro

import (
	"flag"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestMain runs this package's tests with a poison frame pool in every
// run: a frame read or written after its release corrupts the run or
// panics instead of passing silently. A benchmark invocation keeps the
// ordinary pool, so BenchmarkHarness_WallClock measures the harness as
// it ships.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		sim.PoisonFramesForTests()
	}
	os.Exit(m.Run())
}
