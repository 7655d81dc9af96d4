package chaos_test

import (
	"fmt"
	"slices"
	"testing"

	"dss/internal/transport"
	"dss/internal/transport/chaos"
	"dss/internal/transport/conformance"
	"dss/internal/transport/local"
	"dss/internal/transport/tcp"
)

// TestConformanceUnderChaos runs the full transport conformance suite over
// both built-in backends decorated with every chaos severity level: the
// substrate contract — non-overtaking per-(pair, tag) streams, tag
// selectivity, RecvAny earliest-arrival semantics with plausible stamps —
// must hold while frames are delayed, reordered across streams, and (over
// tcp) connections are killed and resumed mid-traffic.
func TestConformanceUnderChaos(t *testing.T) {
	backends := []struct {
		name string
		make func(tb testing.TB, p int) transport.Fabric
	}{
		{"local", func(tb testing.TB, p int) transport.Fabric { return local.New(p) }},
		{"tcp", func(tb testing.TB, p int) transport.Fabric {
			f, err := tcp.NewLoopback(p)
			if err != nil {
				tb.Fatalf("loopback fabric: %v", err)
			}
			return f
		}},
	}
	for _, level := range chaos.Names() {
		cfg, err := chaos.Parse(level)
		if err != nil {
			t.Fatalf("Parse(%q): %v", level, err)
		}
		cfg.Seed = 0xC5A0 + uint64(len(level))
		for _, b := range backends {
			t.Run(fmt.Sprintf("%s-%s", b.name, level), func(t *testing.T) {
				mk := b.make
				conformance.Run(t, func(tb testing.TB, p int) transport.Fabric {
					return chaos.WrapFabric(mk(tb, p), cfg)
				})
			})
		}
	}
}

// TestScheduleDeterminism pins the decorator's core promise: the fault
// schedule is a pure function of (seed, rank, send sequence). Two
// endpoints wrapped with the same seed over identical send sequences must
// inject the same drops — the same (peer, afterBytes) points, compared
// directly — and the wrapped tcp endpoint must recover from each of them
// the same number of times. The resent-frame count is only checked to be
// positive: how many frames are still unacknowledged when a drop fires
// depends on ack timing, not on the schedule.
func TestScheduleDeterminism(t *testing.T) {
	type outcome struct {
		reconnects, resent int64
		drops              []chaos.DropPoint
	}
	run := func(seed uint64) outcome {
		f, err := tcp.NewLoopback(2)
		if err != nil {
			t.Fatalf("loopback fabric: %v", err)
		}
		cfg, err := chaos.Parse("drop")
		if err != nil {
			t.Fatalf("Parse(drop): %v", err)
		}
		cfg.Seed = seed
		cfg.MaxDelay = 0
		cfg.DelayProb = 0 // timing out of the picture: drops only
		cf := chaos.WrapFabric(f, cfg)
		a, b := cf.Endpoint(0), cf.Endpoint(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 120; i++ {
				buf := b.Recv(0, 3)
				if len(buf) != 32 || buf[0] != byte(i) {
					panic(fmt.Sprintf("frame %d corrupted: % x", i, buf[:2]))
				}
				b.Release(buf)
			}
		}()
		payload := make([]byte, 32)
		for i := 0; i < 120; i++ {
			payload[0] = byte(i)
			a.Send(1, 3, payload)
		}
		<-done
		rc, rf, _ := a.(interface {
			NetStats() (int64, int64, int64)
		}).NetStats()
		drops := a.(*chaos.Endpoint).Drops()
		if err := cf.Close(); err != nil {
			t.Fatalf("Close after recovered drops: %v", err)
		}
		return outcome{reconnects: rc, resent: rf, drops: drops}
	}

	o1, o2 := run(42), run(42)
	if o1.reconnects < 1 || len(o1.drops) < 1 {
		t.Fatalf("drop schedule injected no drops over 120 frames (reconnects = %d, drops = %v)", o1.reconnects, o1.drops)
	}
	if o1.reconnects != o2.reconnects {
		t.Fatalf("same seed, different recovery: %d vs %d reconnects", o1.reconnects, o2.reconnects)
	}
	if !slices.Equal(o1.drops, o2.drops) {
		t.Fatalf("same seed, different drop schedule: %v vs %v", o1.drops, o2.drops)
	}
	if o1.resent < 1 || o2.resent < 1 {
		t.Fatalf("a torn frame was never resent (resent frames %d and %d)", o1.resent, o2.resent)
	}
}

// TestDropsRequireCapability pins the graceful degradation: over the local
// backend (no transport.ConnDropper) the drop level must inject nothing
// and report zero reconnects, while still delivering everything.
func TestDropsRequireCapability(t *testing.T) {
	cfg, err := chaos.Parse("drop")
	if err != nil {
		t.Fatalf("Parse(drop): %v", err)
	}
	cfg.Seed = 7
	f := chaos.WrapFabric(local.New(2), cfg)
	a, b := f.Endpoint(0), f.Endpoint(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			buf := b.Recv(0, 1)
			if len(buf) != 1 || buf[0] != byte(i) {
				panic(fmt.Sprintf("frame %d: % x", i, buf))
			}
			b.Release(buf)
		}
	}()
	for i := 0; i < 100; i++ {
		a.Send(1, 1, []byte{byte(i)})
	}
	<-done
	rc, rf, rb := a.(interface {
		NetStats() (int64, int64, int64)
	}).NetStats()
	if rc != 0 || rf != 0 || rb != 0 {
		t.Fatalf("local backend reported net stats (%d, %d, %d), want zeros", rc, rf, rb)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestParseRejectsUnknownLevel pins the flag-parsing contract.
func TestParseRejectsUnknownLevel(t *testing.T) {
	if _, err := chaos.Parse("tsunami"); err == nil {
		t.Fatalf("Parse(tsunami) accepted an unknown severity level")
	}
	for _, name := range chaos.Names() {
		if _, err := chaos.Parse(name); err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
	}
}
