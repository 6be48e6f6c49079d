package sim

import (
	"testing"

	"repro/internal/netstack"
	"repro/internal/rss"
)

// TestLossRecoveryProperty is the loss-realism property test: uniform
// frame loss *combined with* link reordering and repeated mid-burst
// steering migrations — on the native and the paravirtual machine — must
// never corrupt the delivered stream. Every flow delivers the pattern
// byte-exact and in order, the resequencing-window accounting balances at
// every migration checkpoint, and the sender scoreboards (rtx tiling,
// sacked-byte sums) balance at the same checkpoints via CheckAccounting.
func TestLossRecoveryProperty(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) { runLossPropertyCase(t, sys) })
	}
}

func runLossPropertyCase(t *testing.T, sys SystemKind) {
	cfg := DefaultStreamConfig(sys, OptFull)
	cfg.NICs = 2
	cfg.Connections = 8
	cfg.Queues = 2
	cfg.ReorderWindow = 4
	cfg.Reorder = ReorderConfig{OneIn: 16, Distance: 2}
	cfg.Loss = LossConfig{OneIn: 200, Seed: 5}
	cfg.SACK = true
	cfg.DurationNs = 20_000_000
	cfg.WarmupNs = 10_000_000
	top, err := buildStream(&cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-exact in-order verification of every flow's delivered stream.
	type verify struct {
		pos uint32
		bad int
	}
	states := make([]*verify, len(top.machine.Endpoints()))
	for i, ep := range top.machine.Endpoints() {
		v := &verify{pos: ep.RcvNxt()}
		states[i] = v
		ep.AppSink = func(b []byte) {
			want := make([]byte, len(b))
			PatternPayload(v.pos, want)
			for j := range b {
				if b[j] != want[j] {
					v.bad++
				}
			}
			v.pos += uint32(len(b))
		}
	}

	// Checkpoint invariant: every sender connection's retransmission
	// bookkeeping must balance — the rtx list tiles [sndUna, sndNxt)
	// and sackedBytes equals the scoreboard sum.
	checkSenders := func(when string) {
		for i, sm := range top.senders {
			for j, c := range sm.conns {
				if msg := c.ep.CheckAccounting(); msg != "" {
					t.Errorf("%s: sender %d conn %d: %s", when, i, j, msg)
				}
			}
		}
	}

	// Mid-burst, repeatedly migrate the first flow's bucket between CPUs,
	// so recovery runs concurrently with FlushWhere window handoffs.
	victim := netstack.FlowKey{
		Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
		SrcPort: 5001, DstPort: 44000,
	}
	hash := rss.HashTCP4(victim.Src, victim.Dst, victim.SrcPort, victim.DstPort)
	bucket := rss.Bucket(hash)
	m := top.machine
	migrations := 0
	var migrate func()
	migrate = func() {
		owner := m.FlowTable().OwnerOf(victim, hash)
		m.SteerBucket(bucket, (owner+1)%m.CPUs())
		migrations++
		agg := engineAggSum(m)
		if held := uint64(heldFramesOf(m.ReceivePaths())); agg.Held != agg.Stitched+agg.WindowTimeout+held {
			t.Errorf("window accounting broken after migration %d: held=%d stitched=%d drained=%d parked=%d",
				migrations, agg.Held, agg.Stitched, agg.WindowTimeout, held)
		}
		checkSenders("mid-run")
		if top.sim.Now() < 18_000_000 {
			top.sim.After(400_000, migrate)
		}
	}
	top.sim.After(11_000_000, migrate)
	top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

	if migrations == 0 {
		t.Fatal("no migration ever fired")
	}
	var lost, reordered uint64
	for _, l := range top.links {
		lost += l.Stats().Lost
		reordered += l.Stats().Reordered
	}
	if lost == 0 {
		t.Fatal("injector never dropped a frame: property is vacuous")
	}
	if reordered == 0 {
		t.Fatal("injector never displaced a frame: property is vacuous")
	}
	loss := senderLossStats(top.senders)
	if loss.FastRetransmits+loss.SACKRetransmits+loss.RTOs == 0 {
		t.Fatal("no recovery activity despite dropped frames")
	}
	checkSenders("end")

	for i := range states {
		if states[i].bad != 0 {
			t.Errorf("endpoint %d: %d bytes deviated from the in-order pattern", i, states[i].bad)
		}
		if states[i].pos == 1 {
			t.Errorf("endpoint %d delivered nothing", i)
		}
	}

	// After a final drain, every held frame is accounted for: loss must
	// not strand frames in resequencing windows (the wire-idle release
	// discipline) nor leak them through migrations.
	for _, rp := range m.ReceivePaths() {
		rp.Flush()
	}
	agg := engineAggSum(m)
	if agg.Held != agg.Stitched+agg.WindowTimeout {
		t.Errorf("held frames leaked: held=%d stitched=%d drained=%d",
			agg.Held, agg.Stitched, agg.WindowTimeout)
	}
	if got := heldFramesOf(m.ReceivePaths()); got != 0 {
		t.Errorf("%d frames still parked after full flush", got)
	}
}

// TestOOOQueueRelease drives the receivers' out-of-order queues through
// both of their release points under the poison frame pool this
// package's tests run with: heavy SACK loss plus reordering makes the
// queue drain (each copy goes back to the pool once delivered) and makes
// senders retransmit segments the receiver already holds out of order
// (SACK blocks beyond the three an ACK carries are forgotten), whose
// copies are released undelivered. A queued copy read after its release
// would deliver 0xA5 bytes instead of the pattern; releasing one twice
// panics.
func TestOOOQueueRelease(t *testing.T) {
	for _, sys := range []SystemKind{SystemNativeUP, SystemXen} {
		t.Run(sys.String(), func(t *testing.T) {
			cfg := DefaultStreamConfig(sys, OptFull)
			cfg.NICs = 2
			cfg.Connections = 4
			cfg.SACK = true
			cfg.Loss = LossConfig{OneIn: 10, Seed: 3}
			cfg.Reorder = ReorderConfig{OneIn: 8, Distance: 3}
			cfg.DurationNs = 40_000_000
			cfg.WarmupNs = 10_000_000
			top, err := buildStream(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			eps := top.machine.Endpoints()
			pos := make([]uint32, len(eps))
			bad := make([]int, len(eps))
			for i, ep := range eps {
				pos[i] = ep.RcvNxt()
				ep.AppSink = func(b []byte) {
					want := make([]byte, len(b))
					PatternPayload(pos[i], want)
					for j := range b {
						if b[j] != want[j] {
							bad[i]++
						}
					}
					pos[i] += uint32(len(b))
				}
			}
			top.sim.RunUntil(cfg.WarmupNs + cfg.DurationNs)

			var queued, dups uint64
			for i, ep := range eps {
				queued += ep.Stats().OOOSegs
				dups += ep.Stats().OOODups
				if bad[i] != 0 {
					t.Errorf("endpoint %d: %d bytes deviated from the in-order pattern", i, bad[i])
				}
				if pos[i] == ep.Config().IRS {
					t.Errorf("endpoint %d delivered nothing", i)
				}
			}
			if queued == 0 {
				t.Fatal("no segment was queued out of order: the drain release is not exercised")
			}
			if dups == 0 {
				t.Fatal("no out-of-order copy was released as a duplicate: that release is not exercised")
			}
		})
	}
}
