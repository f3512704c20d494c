package difftest

import (
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/units"
)

// matrixDevices covers every storage architecture the simulator models,
// with the paper's measured parameter sets and the stack variants (SRAM
// write buffer on disk, async erase on the flash disk) that exercise the
// devirtualized dispatch paths.
func matrixDevices() []matrixDevice {
	return []matrixDevice{
		{"disk-sram", func(c *core.Config) {
			c.Kind = core.MagneticDisk
			c.Disk = device.CU140Measured()
			c.SpinDown = 5 * units.Second
			c.SRAMBytes = 32 * units.KB
		}},
		{"flashdisk-async", func(c *core.Config) {
			c.Kind = core.FlashDisk
			c.FlashDiskParams = device.SDP5Datasheet()
			c.AsyncErase = true
		}},
		{"flashcard", func(c *core.Config) {
			c.Kind = core.FlashCard
			c.FlashCardParams = device.IntelSeries2Measured()
		}},
		{"flashcard-ondemand", func(c *core.Config) {
			// On-demand cleaning defers all cleaning work to the write
			// path, so writes hit the cleaner-threshold check with
			// maximal pressure.
			c.Kind = core.FlashCard
			c.FlashCardParams = device.IntelSeries2Measured()
			c.OnDemandCleaning = true
		}},
		{"flashcache", func(c *core.Config) {
			c.Kind = core.FlashCache
			c.Disk = device.CU140Measured()
			c.SpinDown = 5 * units.Second
			c.FlashCardParams = device.IntelSeries2Measured()
			c.FlashCacheBytes = 2 * units.MB
		}},
	}
}

// matrixFault is the fault-plan axis: fault-free, transient errors with
// retry, wear-out with spare provisioning, and scheduled power failures.
type matrixFault struct {
	name string
	plan *fault.Plan
}

func matrixFaults() []matrixFault {
	return []matrixFault{
		{"nofault", nil},
		{"transient", &fault.Plan{ReadErrorRate: 0.02, WriteErrorRate: 0.02, EraseErrorRate: 0.05}},
		{"wearout", &fault.Plan{WearOutAfter: 25, SpareSegments: 2}},
		{"powerfail", &fault.Plan{PowerFailAtUs: []int64{5_000_000, 20_000_000}}},
	}
}

// TestRunEquivalence is the tentpole contract: the full matrix of traces ×
// devices × cache configurations × fault plans replayed through the frozen
// reference loop and the optimized loop, requiring byte-identical results,
// event streams, and observer logs. Sampler timelines are diffed on the
// flashcard leg of the matrix (the device with the richest background
// activity) by enabling simulated-time sampling there.
func TestRunEquivalence(t *testing.T) {
	for _, mt := range matrixTraces() {
		tr := mt.build(t)
		prep := core.PrepareTrace(tr)
		for _, md := range matrixDevices() {
			for _, mc := range matrixCaches() {
				for _, mf := range matrixFaults() {
					name := mt.name + "/" + md.name + "/" + mc.name + "/" + mf.name
					t.Run(name, func(t *testing.T) {
						cfg := core.Config{
							Trace:     tr,
							Prep:      prep,
							DRAMBytes: mc.dramBytes,
							WriteBack: mc.writeBack,
							Faults:    mf.plan,
							FaultSeed: 11,
						}
						md.apply(&cfg)
						if cfg.Kind == core.FlashCard {
							cfg.SampleEvery = 30 * units.Second
						}
						ref, fast := runBoth(t, cfg)
						requireIdentical(t, ref, fast)
					})
				}
			}
		}
	}
}

// TestPrepEquivalence pins the prepared-statement path: supplying a shared
// TracePrep must leave every run byte-identical to recomputing the
// preprocessing from scratch, on both replay loops.
func TestPrepEquivalence(t *testing.T) {
	for _, mt := range matrixTraces() {
		tr := mt.build(t)
		prep := core.PrepareTrace(tr)
		for _, md := range matrixDevices() {
			name := mt.name + "/" + md.name
			t.Run(name, func(t *testing.T) {
				cfg := core.Config{Trace: tr, DRAMBytes: 512 * units.KB}
				md.apply(&cfg)
				without := runInstrumented(t, cfg)
				cfg.Prep = prep
				with := runInstrumented(t, cfg)
				requireIdentical(t, without, with)
			})
		}
	}
}

// TestEquivalenceWithWrongPrep checks the guard against a stale prep: a
// TracePrep built from a different trace must be ignored, not applied.
func TestEquivalenceWithWrongPrep(t *testing.T) {
	traces := matrixTraces()
	trA := traces[0].build(t)
	trB := traces[1].build(t)
	cfg := core.Config{
		Trace:     trA,
		DRAMBytes: 512 * units.KB,
		Kind:      core.FlashCard,
	}
	cfg.FlashCardParams = device.IntelSeries2Measured()
	clean := runInstrumented(t, cfg)
	cfg.Prep = core.PrepareTrace(trB) // prep for the wrong trace
	stale := runInstrumented(t, cfg)
	requireIdentical(t, clean, stale)
}
