// Package fleet turns the single-run simulator into a simulation service:
// a job API accepts a config or parameter grid, a bounded sharded worker
// pool fans the runs out in-process, and fleet-level aggregates (percentile
// latency, energy, wear, cleaning, faults) stream out through mergeable
// report builders as shards complete — constant memory in the number of
// runs, with live progress over Server-Sent Events and per-report SVG
// figures. See docs/SERVICE.md.
package fleet

import (
	"errors"
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

// catalog maps each device name to the setters for its measured and
// datasheet parameters. A nil measured setter means the paper reports no
// measurements for the device.
var catalog = map[string]struct{ measured, datasheet func(*core.Config) }{
	"cu140": {
		func(c *core.Config) { c.Kind, c.Disk = core.MagneticDisk, device.CU140Measured() },
		func(c *core.Config) { c.Kind, c.Disk = core.MagneticDisk, device.CU140Datasheet() },
	},
	"kh": {nil, func(c *core.Config) { c.Kind, c.Disk = core.MagneticDisk, device.KittyhawkDatasheet() }},
	"sdp10": {
		func(c *core.Config) { c.Kind, c.FlashDiskParams = core.FlashDisk, device.SDP10Measured() },
		func(c *core.Config) { c.Kind, c.FlashDiskParams = core.FlashDisk, device.SDP10Datasheet() },
	},
	"sdp5": {nil, func(c *core.Config) { c.Kind, c.FlashDiskParams = core.FlashDisk, device.SDP5Datasheet() }},
	"intel": {
		func(c *core.Config) { c.Kind, c.FlashCardParams = core.FlashCard, device.IntelSeries2Measured() },
		func(c *core.Config) { c.Kind, c.FlashCardParams = core.FlashCard, device.IntelSeries2Datasheet() },
	},
	"intel2+": {nil, func(c *core.Config) { c.Kind, c.FlashCardParams = core.FlashCard, device.IntelSeries2PlusDatasheet() }},
}

// SelectDevice fills cfg's storage kind and parameters for a catalog device
// name. source picks the parameter provenance: "measured", "datasheet", or
// "" for the best available (measured when the paper reports it, datasheet
// otherwise). This is the one device-name resolver shared by the storagesim
// CLI, the fleet job API and the experiments.
func SelectDevice(cfg *core.Config, name, source string) error {
	d, ok := catalog[name]
	switch {
	case !ok:
		return fmt.Errorf("unknown device %q", name)
	case source != "" && source != "measured" && source != "datasheet":
		return fmt.Errorf("unknown source %q (want measured or datasheet)", source)
	case source == "measured" && d.measured == nil:
		return fmt.Errorf("no measured parameters for %q", name)
	case source == "datasheet" || d.measured == nil:
		d.datasheet(cfg)
	default:
		d.measured(cfg)
	}
	return nil
}

// maxMemoryKB bounds DRAM and SRAM sizes (1 TiB) so the KB-to-bytes product
// cannot overflow.
const maxMemoryKB = 1 << 30

// SetMemory sizes cfg's DRAM cache and SRAM write buffer from KB counts,
// where -1 means the paper's default: a 2 MB DRAM cache, except for the hp
// trace, which was captured below the buffer cache and runs uncached
// (§4.1); and a 32 KB SRAM buffer in front of a single disk only. Call it
// after the trace and device are set.
func SetMemory(cfg *core.Config, dramKB, sramKB int64) error {
	if err := errors.Join(checkMemoryKB("DRAM", dramKB), checkMemoryKB("SRAM", sramKB)); err != nil {
		return err
	}
	switch {
	case dramKB >= 0:
		cfg.DRAMBytes = units.Bytes(dramKB) * units.KB
	case cfg.Trace.Name == "hp":
		cfg.DRAMBytes = 0
	default:
		cfg.DRAMBytes = 2 * units.MB
	}
	switch {
	case sramKB >= 0:
		cfg.SRAMBytes = units.Bytes(sramKB) * units.KB
	case cfg.Array == nil && cfg.Kind == core.MagneticDisk:
		cfg.SRAMBytes = 32 * units.KB
	}
	return nil
}

// checkMemoryKB rejects memory sizes outside [-1, maxMemoryKB] KB.
func checkMemoryKB(what string, kbs ...int64) error {
	for _, kb := range kbs {
		if kb < -1 || kb > maxMemoryKB {
			return fmt.Errorf("%s size %d KB out of [-1, %d]", what, kb, maxMemoryKB)
		}
	}
	return nil
}
