package sim

import (
	"bytes"
	"testing"

	"repro/internal/tcp"
)

// TestPatternPayloadPeriod pins the two properties the byte-exact
// delivery checks rely on. The pattern's period exceeds every receive
// window the simulator advertises (RcvWnd << WScale, taken over the
// endpoints of a spread of topologies after they have run, so churned and
// reconnected flows count too). And a segment-sized read differs from
// the read at every shift up to four windows away, so a segment delivered
// at any offset the window could reach fails the checks.
func TestPatternPayloadPeriod(t *testing.T) {
	maxWnd := 0
	note := func(c tcp.Config) {
		if w := c.RcvWnd << c.WScale; w > maxWnd {
			maxWnd = w
		}
	}
	// Table 1's request/response endpoints are the defaults.
	note(tcp.DefaultConfig())

	shapes := map[string]StreamConfig{}
	for _, sys := range []SystemKind{SystemNativeUP, SystemNativeSMP, SystemXen} {
		shapes["bulk/"+sys.String()] = DefaultStreamConfig(sys, OptFull)
	}
	sack := DefaultStreamConfig(SystemNativeSMP, OptFull)
	sack.Queues = 2
	sack.SACK = true
	sack.NoTimestamps = true
	sack.Loss = LossConfig{OneIn: 200, Seed: 1}
	shapes["loss/sack-nots"] = sack
	churn := DefaultStreamConfig(SystemNativeSMP, OptFull)
	churn.Queues = 2
	churn.Connections = 32
	churn.ChurnIntervalNs = 2_000_000
	churn.RegisteredFlows = 1000
	churn.MessageSize = 256
	shapes["churn/connscale"] = churn
	storm := DefaultStreamConfig(SystemNativeSMP, OptFull)
	storm.Connections = 16
	storm.RestartStorm = RestartStormConfig{AtNs: 10_000_000, PrefillTimeWait: 100}
	storm.TimeWaitReuse = true
	shapes["storm"] = storm
	rpc := DefaultStreamConfig(SystemNativeSMP, OptFull)
	rpc.Connections = 8
	rpc.RPC = RPCConfig{Enabled: true}
	shapes["rpc"] = rpc

	for name, cfg := range shapes {
		top, err := buildStream(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		top.sim.RunUntil(15_000_000)
		for _, ep := range top.machine.Endpoints() {
			note(ep.Config())
		}
		for _, snd := range top.senders {
			for _, c := range snd.conns {
				note(c.ep.Config())
			}
		}
	}
	if patternPeriod <= 4*maxWnd+1448 {
		t.Fatalf("pattern period %d does not exceed four windows of %d bytes", patternPeriod, maxWnd)
	}

	const seg = 1448
	span := 4 * maxWnd
	for _, s := range []uint32{1, 1 << 20, 0xffffffff - 3000} {
		ref := make([]byte, seg)
		PatternPayload(s, ref)
		stream := make([]byte, span+seg)
		PatternPayload(s, stream)
		if !bytes.Equal(stream[:seg], ref) {
			t.Fatalf("seq %d: chunked and single reads differ", s)
		}
		for d := 1; d <= span; d++ {
			if bytes.Equal(stream[d:d+seg], ref) {
				t.Fatalf("seq %d: the %d-byte read repeats at shift %d", s, seg, d)
			}
		}
	}
}
