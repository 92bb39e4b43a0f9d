package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hybridcap/internal/delay"
	"hybridcap/internal/geom"
	"hybridcap/internal/mobility"
	"hybridcap/internal/network"
	"hybridcap/internal/rng"
	"hybridcap/internal/traffic"
)

// The mobility stage hands the slot loop, slot by slot, the positions a
// serial Step+MSPositions loop would produce, for slot counts on and
// off the block size, with and without warmup, and for one node; the
// network is left where the same number of serial steps leaves it.
func TestStageMatchesSerialSteps(t *testing.T) {
	for _, n := range []int{1, 37} {
		for _, warmup := range []int{0, 5} {
			for _, slots := range []int{1, 7, blockSlots, blockSlots + 1, 3*blockSlots - 1, 5*blockSlots + 3} {
				// Networks need two nodes; one node is a two-node network
				// cut down, on both sides alike.
				nw := simNet(t, infraParams(max(n, 2)), 11, network.IID)
				twin := simNet(t, infraParams(max(n, 2)), 11, network.IID)
				nw.MSProcs, twin.MSProcs = nw.MSProcs[:n], twin.MSProcs[:n]
				var got [][]geom.Point
				var measured []bool
				loop := slotLoop{nw: nw, slots: slots, warmup: warmup}
				if err := loop.check(0, -1); err != nil {
					t.Fatal(err)
				}
				if err := loop.run(nil, func(pos []geom.Point) {
					if loop.slot != len(got) {
						t.Fatalf("slot %d handed over after %d slots", loop.slot, len(got))
					}
					got = append(got, slices.Clone(pos))
					measured = append(measured, loop.measuring)
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != warmup+slots {
					t.Fatalf("n=%d warmup=%d slots=%d: ran %d slots", n, warmup, slots, len(got))
				}
				for s := range got {
					twin.Step()
					if want := twin.MSPositions(nil); !slices.Equal(got[s], want) {
						t.Fatalf("n=%d warmup=%d slots=%d: slot %d positions differ from the serial loop", n, warmup, slots, s)
					}
					if measured[s] != (s >= warmup) {
						t.Fatalf("n=%d warmup=%d: slot %d measuring=%v", n, warmup, s, measured[s])
					}
				}
				if !slices.Equal(nw.MSPositions(nil), twin.MSPositions(nil)) {
					t.Fatalf("n=%d warmup=%d slots=%d: network state after the run differs from %d serial steps", n, warmup, slots, warmup+slots)
				}
			}
		}
	}
}

// panicAt is a mobility process whose Step panics once it has been
// stepped `left` times.
type panicAt struct {
	mobility.Process
	left int
}

func (p *panicAt) Step(r *rand.Rand) {
	if p.left--; p.left < 0 {
		panic("mobility process failed")
	}
	p.Process.Step(r)
}

// runAll runs every simulator on a fresh network of the infrastructure
// point, after fix has edited it, and returns each one's error.
func runAll(t *testing.T, fix func(nw *network.Network)) map[string]error {
	t.Helper()
	p := infraParams(64)
	tr, err := traffic.NewPermutation(p.N, rng.New(12).Rand())
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *network.Network {
		nw := simNet(t, p, 12, network.IID)
		fix(nw)
		return nw
	}
	errs := map[string]error{}
	_, errs["RunTwoHop"] = RunTwoHop(fresh(), tr, PacketConfig{Lambda: 0.05, Slots: 40, Warmup: 3, Seed: 1})
	_, errs["RunMultihop"] = RunMultihop(fresh(), tr, MultihopConfig{Lambda: 0.05, Slots: 40, Warmup: 3, Seed: 1})
	_, errs["RunInfrastructure"] = RunInfrastructure(fresh(), tr, InfraConfig{Lambda: 0.05, Slots: 40, Warmup: 3, Seed: 1})
	_, errs["RunInfrastructure/assoc"] = RunInfrastructure(fresh(), tr, InfraConfig{Lambda: 0.05, Slots: 40, Warmup: 3, Seed: 1,
		Assoc: &delay.AssocConfig{HandoverMargin: 0.02, TimeToTrigger: 2}})
	_, errs["MeasureContacts"] = MeasureContacts(fresh(), ContactConfig{Slots: 40, Warmup: 3})
	return errs
}

// A mobility process that panics inside the stage makes every
// simulator return an error instead of crashing the process, at the
// first slot and in a later block.
func TestStagePanicReturnsError(t *testing.T) {
	for _, left := range []int{0, 2*blockSlots + 3} {
		errs := runAll(t, func(nw *network.Network) {
			nw.MSProcs[5] = &panicAt{Process: nw.MSProcs[5], left: left}
		})
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "mobility process failed") {
				t.Errorf("panic after %d steps: %s returned %v", left, name, err)
			}
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall
// back to base: a stage that has signalled its group may still be
// unwinding for a moment.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running, %d before", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Every run joins its mobility stage, whether it succeeds, fails in
// the stage, or unwinds from a panic in its own forwarding step.
func TestStageLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for name, err := range runAll(t, func(*network.Network) {}) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	waitGoroutines(t, base, "successful runs")
	runAll(t, func(nw *network.Network) {
		nw.MSProcs[0] = &panicAt{Process: nw.MSProcs[0], left: blockSlots}
	})
	waitGoroutines(t, base, "runs whose stage panicked")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("forwarding panic did not propagate")
			}
		}()
		loop := slotLoop{nw: simNet(t, infraParams(64), 13, network.IID), slots: 100}
		loop.run(nil, func([]geom.Point) {
			if loop.slot == blockSlots+2 {
				panic("forwarding failed")
			}
		})
	}()
	waitGoroutines(t, base, "a run whose forwarding panicked")
}

// Every run rejects a negative warmup: it would run fewer slots than
// the report divides by, or none at all.
func TestRejectsNegativeWarmup(t *testing.T) {
	p := infraParams(64)
	nw := simNet(t, p, 14, network.IID)
	tr, _ := traffic.NewPermutation(p.N, rng.New(14).Rand())
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"RunTwoHop", func() error {
			_, err := RunTwoHop(nw, tr, PacketConfig{Lambda: 0.1, Slots: 10, Warmup: -5})
			return err
		}},
		{"RunMultihop", func() error {
			_, err := RunMultihop(nw, tr, MultihopConfig{Lambda: 0.1, Slots: 10, Warmup: -5})
			return err
		}},
		{"RunInfrastructure", func() error {
			_, err := RunInfrastructure(nw, tr, InfraConfig{Lambda: 0.1, Slots: 10, Warmup: -5})
			return err
		}},
		{"MeasureContacts", func() error {
			_, err := MeasureContacts(nw, ContactConfig{Slots: 10, Warmup: -20})
			return err
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "warmup") {
			t.Errorf("%s: negative warmup gave %v", c.name, err)
		}
	}
}
