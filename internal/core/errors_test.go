package core

import (
	"reflect"
	"strings"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

func TestBuildStackErrors(t *testing.T) {
	tr := smallTrace()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad disk params", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.DiskParams{Name: "junk"}
		}, "non-physical"},
		{"bad flashdisk params", func(c *Config) {
			c.Kind = FlashDisk
			c.FlashDiskParams = device.FlashDiskParams{Name: "junk"}
		}, "non-physical"},
		{"bad flashcard params", func(c *Config) {
			c.Kind = FlashCard
			c.FlashCardParams = device.FlashCardParams{Name: "junk"}
		}, "non-physical"},
		{"bad spin policy", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.CU140Datasheet()
			c.SpinPolicy = "psychic"
		}, "unknown spin policy"},
		{"bad sram size", func(c *Config) {
			c.Kind = MagneticDisk
			c.Disk = device.CU140Datasheet()
			c.SRAMBytes = 1 // below one block
		}, "below one"},
		{"undersized hybrid cache", func(c *Config) {
			c.Kind = FlashCache
			c.Disk = device.CU140Datasheet()
			c.FlashCardParams = device.IntelSeries2Datasheet()
			c.FlashCacheBytes = units.KB
		}, "holds under"},
	}
	for _, c := range cases {
		cfg := Config{Trace: tr}
		c.mut(&cfg)
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestArrayRejectsUnreadSystemPlanFields pins that an array run consumes
// only power_fail_at_us from the system fault plan and rejects every other
// field instead of silently dropping it: device faults belong in each
// member's plan.
func TestArrayRejectsUnreadSystemPlanFields(t *testing.T) {
	cases := []struct {
		field string
		plan  fault.Plan
	}{
		{"read_error_rate", fault.Plan{ReadErrorRate: 0.2}},
		{"write_error_rate", fault.Plan{WriteErrorRate: 0.2}},
		{"erase_error_rate", fault.Plan{EraseErrorRate: 0.2}},
		{"max_retries", fault.Plan{MaxRetries: 3}},
		{"backoff_us", fault.Plan{BackoffUs: 200}},
		{"max_backoff_us", fault.Plan{MaxBackoffUs: 5_000}},
		{"wear_out_after", fault.Plan{WearOutAfter: 100}},
		{"spare_segments", fault.Plan{SpareSegments: 2}},
		{"die_at_us", fault.Plan{DieAtUs: 1_000}},
		{"die_after_erases", fault.Plan{DieAfterErases: 10}},
		{"latent_error_rate", fault.Plan{LatentErrorRate: 0.01}},
		{"carry_cleaning_backlog", fault.Plan{CarryCleaningBacklog: true}},
	}
	// Every Plan field but power_fail_at_us must have a row.
	if want := reflect.TypeOf(fault.Plan{}).NumField() - 1; len(cases) != want {
		t.Fatalf("table covers %d plan fields, want %d", len(cases), want)
	}
	spec, err := array.ParseSpec("mirror:2xflashcard")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Trace:            smallTrace(),
		Array:            spec,
		FlashCardParams:  device.IntelSeries2Datasheet(),
		FlashUtilization: 0.8,
	}
	for _, c := range cases {
		t.Run(c.field, func(t *testing.T) {
			cfg := base
			plan := c.plan
			plan.PowerFailAtUs = []int64{1_000}
			cfg.Faults = &plan
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name %s", err, c.field)
			}
			// The single-device path reads every field but the die_*
			// pair, so the rejection is specific to arrays.
			if plan.DieAtUs == 0 && plan.DieAfterErases == 0 {
				single := cfg
				single.Array = nil
				single.Kind = FlashCard
				if _, err := Run(single); err != nil {
					t.Errorf("single-card run rejected the plan: %v", err)
				}
			}
		})
	}
	t.Run("power_fail_at_us only", func(t *testing.T) {
		cfg := base
		cfg.Faults = &fault.Plan{PowerFailAtUs: []int64{1_000}}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRunInvalidTrace(t *testing.T) {
	bad := &trace.Trace{Name: "bad", BlockSize: units.KB, Records: []trace.Record{
		{Time: 10, Op: trace.Read, Size: units.KB},
		{Time: 5, Op: trace.Read, Size: units.KB}, // out of order
	}}
	_, err := Run(Config{Trace: bad, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()})
	if err == nil {
		t.Error("unsorted trace accepted")
	}
}

func TestDeleteOfUntouchedFile(t *testing.T) {
	// A trace that deletes a file it never read or wrote must be harmless.
	tr := &trace.Trace{Name: "del", BlockSize: units.KB, Records: []trace.Record{
		{Time: 0, Op: trace.Write, File: 1, Size: units.KB},
		{Time: units.Second, Op: trace.Delete, File: 99, Size: units.KB},
		{Time: 2 * units.Second, Op: trace.Read, File: 1, Size: units.KB},
	}}
	res, err := Run(Config{Trace: tr, WarmFraction: -1, Kind: FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredOps != 2 {
		t.Errorf("measured %d ops, want 2", res.MeasuredOps)
	}
}

func TestObserverSeesEveryOp(t *testing.T) {
	tr := smallTrace()
	var seen int
	var hits int
	cfg := Config{
		Trace: tr, WarmFraction: -1, DRAMBytes: 64 * units.KB,
		Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(),
		Observer: func(o OpObservation) {
			seen++
			if o.Response < 0 {
				t.Errorf("op %d: negative response", o.Index)
			}
			if o.CacheHit {
				hits++
			}
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.MeasuredOps {
		t.Errorf("observer saw %d ops, result measured %d", seen, res.MeasuredOps)
	}
	if int64(hits) != res.CacheHits {
		t.Errorf("observer hits %d ≠ result hits %d", hits, res.CacheHits)
	}
}

func TestSRAMOnFlash(t *testing.T) {
	// The §7 extension path: SRAM in front of a flash device builds and
	// absorbs writes.
	tr := smallTrace()
	res, err := Run(Config{
		Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet(),
		SRAMBytes: 32 * units.KB,
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Run(Config{Trace: tr, Kind: FlashDisk, FlashDiskParams: device.SDP5Datasheet()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.Mean() >= bare.Write.Mean() {
		t.Errorf("SRAM did not improve flash writes: %.2f vs %.2f", res.Write.Mean(), bare.Write.Mean())
	}
	if res.EnergyByComponent["sram"] <= 0 {
		t.Error("no SRAM energy accounted")
	}
}

// TestRejectsUnreadKnobs pins that a device knob no layer of the built
// stack reads fails validation instead of being dropped, that unknown
// policy names fail on every stack, and that the knobs parameter grids
// cross with every device (utilization, cleaning policy, spin-down) stay
// accepted where they are ignored.
func TestRejectsUnreadKnobs(t *testing.T) {
	stacks := map[string]func(*Config){
		"disk": func(c *Config) { c.Kind, c.Disk = MagneticDisk, device.CU140Datasheet() },
		"flashdisk": func(c *Config) {
			c.Kind, c.FlashDiskParams = FlashDisk, device.SDP5Datasheet()
		},
		"flashcard": func(c *Config) {
			c.Kind, c.FlashCardParams = FlashCard, device.IntelSeries2Datasheet()
		},
		"hybrid": func(c *Config) {
			c.Kind, c.Disk, c.FlashCardParams = FlashCache, device.CU140Datasheet(), device.IntelSeries2Datasheet()
			c.FlashCacheBytes = 256 * units.KB
		},
	}
	for _, spec := range []string{"mirror:2xflashcard", "mirror:2xdisk", "mirror:flashcard+disk"} {
		sp, err := array.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		stacks[spec] = func(c *Config) {
			c.Array, c.Disk, c.FlashCardParams = sp, device.CU140Datasheet(), device.IntelSeries2Datasheet()
		}
	}
	cases := []struct {
		stack string
		mut   func(*Config)
		want  string // "" = accepted
	}{
		{"disk", func(c *Config) { c.AsyncErase = true }, "AsyncErase"},
		{"flashcard", func(c *Config) { c.AsyncErase = true }, "AsyncErase"},
		{"hybrid", func(c *Config) { c.AsyncErase = true }, "AsyncErase"},
		{"mirror:2xflashcard", func(c *Config) { c.AsyncErase = true }, "AsyncErase"},
		{"flashdisk", func(c *Config) { c.AsyncErase = true }, ""},
		{"disk", func(c *Config) { c.OnDemandCleaning = true }, "OnDemandCleaning"},
		{"flashdisk", func(c *Config) { c.OnDemandCleaning = true }, "OnDemandCleaning"},
		{"hybrid", func(c *Config) { c.OnDemandCleaning = true }, "OnDemandCleaning"},
		{"mirror:2xdisk", func(c *Config) { c.OnDemandCleaning = true }, "OnDemandCleaning"},
		{"mirror:flashcard+disk", func(c *Config) { c.OnDemandCleaning = true }, ""},
		{"disk", func(c *Config) { c.WearLeveling = 4 }, "WearLeveling"},
		{"hybrid", func(c *Config) { c.WearLeveling = 4 }, "WearLeveling"},
		{"flashcard", func(c *Config) { c.WearLeveling = -1 }, "wear-leveling"},
		{"mirror:2xflashcard", func(c *Config) { c.WearLeveling = 4 }, ""},
		{"flashcard", func(c *Config) { c.SpinPolicy = "adaptive" }, "SpinPolicy"},
		{"flashdisk", func(c *Config) { c.SpinPolicy = "immediate" }, "SpinPolicy"},
		{"hybrid", func(c *Config) { c.SpinPolicy = "adaptive" }, "SpinPolicy"},
		{"mirror:2xflashcard", func(c *Config) { c.SpinPolicy = "always-on" }, "SpinPolicy"},
		{"mirror:flashcard+disk", func(c *Config) { c.SpinPolicy = "adaptive" }, ""},
		{"disk", func(c *Config) { c.CleaningPolicy = "bogus" }, "unknown cleaning policy"},
		{"hybrid", func(c *Config) { c.CleaningPolicy = "bogus" }, "unknown cleaning policy"},
		{"flashcard", func(c *Config) { c.SpinPolicy = "psychic" }, "unknown spin policy"},
		{"flashdisk", func(c *Config) { c.FlashCapacity = -units.MB }, "negative"},
		{"flashcard", func(c *Config) { c.StoredData = -units.MB }, "negative"},
		{"disk", func(c *Config) { c.SpinDown = -3 * units.Second }, "spin-down"},
		// Grid axes cross these with every device; they stay accepted.
		{"disk", func(c *Config) { c.CleaningPolicy, c.FlashUtilization = "fifo", 0.5 }, ""},
		{"flashcard", func(c *Config) { c.SpinDown = units.Second }, ""},
		{"flashdisk", func(c *Config) { c.CleaningPolicy = "cost-benefit" }, ""},
	}
	for _, c := range cases {
		cfg := Config{Trace: smallTrace()}
		stacks[c.stack](&cfg)
		c.mut(&cfg)
		_, err := Run(cfg)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.stack, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: %s accepted", c.stack, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.stack, err, c.want)
		}
	}
}
