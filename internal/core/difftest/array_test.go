package difftest

import (
	"fmt"
	"testing"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// arraySpec parses a topology string or fails the test.
func arraySpec(tb testing.TB, s string) *array.Spec {
	tb.Helper()
	spec, err := array.ParseSpec(s)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// TestArrayEquivalence extends the differential contract to composite
// devices: mirrored and striped arrays, healthy and under per-member fault
// domains (a scheduled member death plus latent faults and backlog
// carryover across a system power failure), must replay byte-identically
// through the reference and fast loops. The healthy topologies also run
// over every matrix trace with and without a DRAM cache: uncached, every
// read reaches the array, so each idle interval the members integrate
// must match the reference loop's record by record.
func TestArrayEquivalence(t *testing.T) {
	tr := matrixTraces()[0].build(t)
	prep := core.PrepareTrace(tr)
	degraded := fault.PlanSet{
		"m0": {DieAtUs: int64(tr.Duration()) / 2, MaxRetries: 2, BackoffUs: 200, MaxBackoffUs: 5_000},
		"*":  {LatentErrorRate: 0.002, CarryCleaningBacklog: true},
	}
	sysFail := &fault.Plan{PowerFailAtUs: []int64{int64(tr.Duration()) / 3}}
	cases := []struct {
		name    string
		topo    string
		members fault.PlanSet
		sys     *fault.Plan
	}{
		{"mirror-healthy", "mirror:2xflashcard", nil, nil},
		{"mirror-degraded", "mirror:2xflashcard", degraded, sysFail},
		{"stripe-healthy", "stripe:2xflashcard", nil, nil},
		{"stripe-degraded", "stripe:2xflashcard", degraded, sysFail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := arrayConfig(t, tr, prep, tc.topo, 512*units.KB)
			cfg.MemberFaults = tc.members
			cfg.Faults = tc.sys
			cfg.FaultSeed = 11
			ref, fast := runBoth(t, cfg)
			requireIdentical(t, ref, fast)
		})
	}

	for _, mt := range matrixTraces() {
		tr := mt.build(t)
		prep := core.PrepareTrace(tr)
		for _, topo := range []string{"mirror:2xflashcard", "mirror:3xflashcard", "stripe:2xflashcard"} {
			for _, dram := range []units.Bytes{0, 512 * units.KB} {
				t.Run(fmt.Sprintf("healthy/%s/%s/dram=%dKB", topo, mt.name, dram/units.KB), func(t *testing.T) {
					ref, fast := runBoth(t, arrayConfig(t, tr, prep, topo, dram))
					requireIdentical(t, ref, fast)
				})
			}
		}
	}
}

// arrayConfig is the flash-card array base config the array differential
// tests share.
func arrayConfig(tb testing.TB, tr *trace.Trace, prep *core.TracePrep, topo string, dram units.Bytes) core.Config {
	return core.Config{
		Trace:            tr,
		Prep:             prep,
		DRAMBytes:        dram,
		Array:            arraySpec(tb, topo),
		FlashCardParams:  device.IntelSeries2Measured(),
		FlashUtilization: 0.80,
	}
}

// TestArrayMirrorMatchesSingle pins the mirror's read semantics: a healthy
// two-way mirror serves every read with exactly the response time of a
// single flash card, because reads go to the primary member and that member
// sees the identical request sequence the single-device stack would. Writes
// are only bounded below — the array completes at the slowest member, and
// the secondary's cleaning schedule differs since it never serves reads.
// Any read divergence means the mirror's geometry or primary-member state
// drifted from the single-device stack it replicates.
func TestArrayMirrorMatchesSingle(t *testing.T) {
	tr := matrixTraces()[0].build(t)
	prep := core.PrepareTrace(tr)
	base := core.Config{
		Trace:            tr,
		Prep:             prep,
		DRAMBytes:        512 * units.KB,
		FlashCardParams:  device.IntelSeries2Measured(),
		FlashUtilization: 0.80,
	}
	single := base
	single.Kind = core.FlashCard
	mirror := base
	mirror.Array = arraySpec(t, "mirror:2xflashcard")

	sRun := runInstrumented(t, single)
	mRun := runInstrumented(t, mirror)
	if len(sRun.obs) != len(mRun.obs) {
		t.Fatalf("op counts differ: single %d, mirror %d", len(sRun.obs), len(mRun.obs))
	}
	for i := range sRun.obs {
		s, m := sRun.obs[i], mRun.obs[i]
		if s.Op == trace.Read && s != m {
			t.Fatalf("read op %d diverged:\nsingle %+v\nmirror %+v", i, s, m)
		}
		if s.CacheHit != m.CacheHit {
			t.Fatalf("op %d cache behavior diverged:\nsingle %+v\nmirror %+v", i, s, m)
		}
	}
	if sRun.res.Read.Mean() != mRun.res.Read.Mean() {
		t.Errorf("read summaries diverged: single %.4f ms, mirror %.4f ms",
			sRun.res.Read.Mean(), mRun.res.Read.Mean())
	}
	if mRun.res.Write.Mean() < sRun.res.Write.Mean() {
		t.Errorf("mirror writes faster than the single card: %.4f ms vs %.4f ms",
			mRun.res.Write.Mean(), sRun.res.Write.Mean())
	}
	// The mirror holds two full copies, so it pays roughly double the
	// erases of the single card — replication is not free, just invisible
	// to read latency while healthy.
	if mRun.res.Erases < 2*sRun.res.Erases*95/100 {
		t.Errorf("mirror erases %d, want about double the single card's %d", mRun.res.Erases, sRun.res.Erases)
	}
}
