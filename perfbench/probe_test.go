package main

import (
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
)

// The layer probe's host times describe the traffic core.Run issues only if
// the probe replays the same traffic. Its simulated counts must match the
// core.Result of the same config exactly: tolerance 0 on cache hits and
// misses, erases, copied blocks, spin-ups and SRAM flushes and stalls. The
// measured gap on every config below is 0.
func TestProbeTrafficMatchesCore(t *testing.T) {
	dos, _, err := generate("dos", 1, newSpanLog(false), -1)
	if err != nil {
		t.Fatal(err)
	}
	hp, _, err := generate("hp", 1, newSpanLog(false), -1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan(fleetPlans[1])
	if err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]core.Config{
		"dos card 95% greedy":       cardConfig("dos", dos, 0.95, "greedy"),
		"dos card 80% cost-benefit": cardConfig("dos", dos, 0.80, "cost-benefit"),
		"hp card 95% uncached":      cardConfig("hp", hp, 0.95, "greedy"),
		"dos cu140 sram": {Trace: dos.t, DRAMBytes: 2 * units.MB, Kind: core.MagneticDisk,
			Disk: device.CU140Datasheet(), SpinDown: 5 * units.Second, SRAMBytes: 32 * units.KB},
		"hp kh uncached": {Trace: hp.t, Kind: core.MagneticDisk,
			Disk: device.KittyhawkDatasheet(), SpinDown: units.Second},
		"dos sdp5": {Trace: dos.t, DRAMBytes: 2 * units.MB, Kind: core.FlashDisk,
			FlashDiskParams: device.SDP5Datasheet(), FlashUtilization: 0.9},
		"dos card faults": {Trace: dos.t, DRAMBytes: 2 * units.MB, Kind: core.FlashCard,
			FlashCardParams: device.IntelSeries2Datasheet(), FlashUtilization: 0.9,
			Faults: plan, FaultSeed: 7},
		"dos cu140 sram faults": {Trace: dos.t, DRAMBytes: 2 * units.MB, Kind: core.MagneticDisk,
			Disk: device.CU140Datasheet(), SpinDown: 5 * units.Second, SRAMBytes: 32 * units.KB,
			Faults: plan, FaultSeed: 7},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ls layerStats
			if err := ls.replay(cfg); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what        string
				probe, core int64
			}{
				{"cache hits", ls.hits, res.CacheHits},
				{"cache misses", ls.misses, res.CacheMisses},
				{"erases", ls.erases, res.Erases},
				{"copied blocks", ls.copied, res.CopiedBlocks},
				{"spin-ups", ls.spinUps, res.SpinUps},
				{"sram flushes", ls.flushes, res.SRAMFlushes},
				{"sram stalled writes", ls.stalled, res.SRAMStalledWrites},
			} {
				if c.probe != c.core {
					t.Errorf("%s: probe %d, core.Run %d", c.what, c.probe, c.core)
				}
			}
		})
	}
}
