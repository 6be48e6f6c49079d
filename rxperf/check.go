package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro"
)

// goldenEntry is one recorded RunStream output, keyed in golden.json by
// its config digest.
type goldenEntry struct {
	Label  string `json:"label"`
	Result string `json:"result"`
	// Mbps and CyclesPerByte are the headline numbers behind Result, kept
	// so that a mismatch can be read without rerunning the parent.
	Mbps          float64 `json:"mbps"`
	CyclesPerByte float64 `json:"cycles_per_byte"`
}

//go:embed golden.json
var goldenJSON []byte

// gate checks every RunStream call of a benchmark run. Each call is one
// operation; it fails on an error from RunStream, a result that differs
// from an earlier run of the same config (replay), a result that differs
// from the one recorded for that config, or a broken accounting identity.
// Telemetry must not perturb modeled output, so a run with telemetry on
// must match the same config's run with it off in every field but Latency.
type gate struct {
	golden    map[string]goldenEntry
	recording bool
	seen      map[string]string // config digest -> result digest
	seenCore  map[string]string // telemetry-free config digest -> Latency-free result digest
	attempted int
	failed    int
	failures  []string
}

func newGate(recording bool) (*gate, error) {
	g := &gate{
		golden:    map[string]goldenEntry{},
		recording: recording,
		seen:      map[string]string{},
		seenCore:  map[string]string{},
	}
	if err := json.Unmarshal(goldenJSON, &g.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// check records one RunStream outcome.
func (g *gate) check(phase, label string, cfg repro.StreamConfig, res repro.StreamResult, err error) {
	g.attempted++
	var bad []string
	if err != nil {
		bad = append(bad, "RunStream: "+err.Error())
	} else {
		bad = append(bad, identityViolations(res)...)
		bad = append(bad, g.compare(label, cfg, res)...)
	}
	if len(bad) == 0 {
		return
	}
	g.failed++
	for _, b := range bad {
		g.fail(phase + " " + label + ": " + b)
	}
}

// fail records a failed check. Any failure makes the run incorrect.
func (g *gate) fail(msg string) { g.failures = append(g.failures, msg) }

// compare applies the replay, zero-perturbation and recorded-value checks.
func (g *gate) compare(label string, cfg repro.StreamConfig, res repro.StreamResult) []string {
	var bad []string
	key := configDigest(cfg)
	sum, err := resultDigest(res)
	if err != nil {
		return []string{"result does not encode: " + err.Error()}
	}
	if prev, ok := g.seen[key]; ok && prev != sum {
		bad = append(bad, "replay: result differs from an earlier run of the same config")
	}
	g.seen[key] = sum

	coreCfg, coreRes := cfg, res
	coreCfg.Telemetry, coreRes.Latency = repro.TelemetryConfig{}, repro.LatencyReport{}
	coreKey := configDigest(coreCfg)
	coreSum, _ := resultDigest(coreRes) // encodes whenever res did
	if prev, ok := g.seenCore[coreKey]; ok && prev != coreSum {
		bad = append(bad, "telemetry perturbed the modeled result")
	}
	g.seenCore[coreKey] = coreSum

	entry := goldenEntry{Label: label, Result: sum, Mbps: res.ThroughputMbps, CyclesPerByte: res.CyclesPerByte()}
	if g.recording {
		g.golden[key] = entry
	} else if want, ok := g.golden[key]; ok && want.Result != sum {
		bad = append(bad, fmt.Sprintf("differs from the recorded result (%.4f Mb/s, %.4f cycles/byte recorded; %.4f, %.4f now)",
			want.Mbps, want.CyclesPerByte, entry.Mbps, entry.CyclesPerByte))
	}
	return bad
}

// writeGolden rewrites golden.json with the recorded entries.
func (g *gate) writeGolden(path string) error {
	b, err := json.MarshalIndent(g.golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// identityViolations checks the accounting identities visible in a
// StreamResult.
func identityViolations(r repro.StreamResult) []string {
	var bad []string
	aggIdentity := func(who string, s repro.AggStats) {
		if s.FramesIn != s.HostOut+s.Coalesced {
			bad = append(bad, fmt.Sprintf("%s: FramesIn %d != HostOut %d + Coalesced %d",
				who, s.FramesIn, s.HostOut, s.Coalesced))
		}
	}
	var sum repro.AggStats
	for i, e := range r.EngineAgg {
		aggIdentity(fmt.Sprintf("engine %d", i), e)
		sum = sum.Add(e)
	}
	aggIdentity("AggStats", r.AggStats)
	if sum != r.AggStats {
		bad = append(bad, "AggStats is not the sum of EngineAgg")
	}
	tw := r.TimeWait
	if tw.Entered != tw.Reaped+tw.Reused+tw.Evicted+uint64(tw.Len) {
		bad = append(bad, fmt.Sprintf("TIME_WAIT: Entered %d != Reaped %d + Reused %d + Evicted %d + Len %d",
			tw.Entered, tw.Reaped, tw.Reused, tw.Evicted, tw.Len))
	}
	for i, s := range r.ShardStats {
		if s.Steals != 0 {
			bad = append(bad, fmt.Sprintf("shard %d: %d steals", i, s.Steals))
		}
	}
	if r.Frames < r.HostPackets {
		bad = append(bad, fmt.Sprintf("Frames %d < HostPackets %d", r.Frames, r.HostPackets))
	}
	return bad
}

// configDigest identifies a config by its Go-syntax rendering, which names
// every field (the config holds no non-nil pointers or funcs here).
func configDigest(cfg repro.StreamConfig) string {
	return digest([]byte(fmt.Sprintf("%#v", cfg)))
}

// resultDigest identifies a result by its JSON encoding, which renders
// every float in its shortest exact form.
func resultDigest(res repro.StreamResult) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}
