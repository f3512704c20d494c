package core

import (
	"fmt"

	"mobilestorage/internal/array"
	"mobilestorage/internal/cache"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/hybrid"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/sram"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// stack is the composed storage hierarchy for one run, with typed handles
// to each component for statistics extraction.
type stack struct {
	top    device.Device
	disk   *disk.Disk
	fdisk  *flashdisk.FlashDisk
	fcard  *flashcard.Card
	hyb    *hybrid.Cache
	arr    *array.Array
	buffer *sram.Buffer
}

// meters returns every energy meter in the stack. Each populated component
// is checked independently: buildStack only ever sets one base device, but a
// hand-assembled stack (tests, future composites) must report every meter
// exactly once rather than just the first match. The SRAM buffer's meter
// comes last; fillEnergy relies on that.
func (s *stack) meters() []*energy.Meter {
	var ms []*energy.Meter
	if s.disk != nil {
		ms = append(ms, s.disk.Meter())
	}
	if s.fdisk != nil {
		ms = append(ms, s.fdisk.Meter())
	}
	if s.fcard != nil {
		ms = append(ms, s.fcard.Meter())
	}
	if s.hyb != nil {
		ms = append(ms, s.hyb.Meter())
	}
	if s.arr != nil {
		ms = append(ms, s.arr.Meters()...)
	}
	if s.buffer != nil {
		ms = append(ms, s.buffer.Meter())
	}
	return ms
}

// access dispatches a request to the top of the stack through a concrete
// type where one is known. Run calls this once per record (plus once per
// dirty eviction); the devirtualized calls save the itab dispatch and let
// the compiler see the callee. The order puts the SRAM buffer first — when
// present it wraps the base device and is the top — then the base devices.
func (s *stack) access(req device.Request) units.Time {
	switch {
	case s.buffer != nil:
		return s.buffer.Access(req)
	case s.fcard != nil:
		return s.fcard.Access(req)
	case s.disk != nil:
		return s.disk.Access(req)
	case s.fdisk != nil:
		return s.fdisk.Access(req)
	case s.hyb != nil:
		return s.hyb.Access(req)
	case s.arr != nil:
		return s.arr.Access(req)
	default:
		return s.top.Access(req)
	}
}

// idle is the devirtualized counterpart of access for the per-record
// top-of-stack Idle call.
func (s *stack) idle(now units.Time) {
	switch {
	case s.buffer != nil:
		s.buffer.Idle(now)
	case s.fcard != nil:
		s.fcard.Idle(now)
	case s.disk != nil:
		s.disk.Idle(now)
	case s.fdisk != nil:
		s.fdisk.Idle(now)
	case s.hyb != nil:
		s.hyb.Idle(now)
	case s.arr != nil:
		s.arr.Idle(now)
	default:
		s.top.Idle(now)
	}
}

// dramCache is the buffer-cache surface the simulator's setup, teardown,
// and crash helpers need. Both the fast cache.Cache and the frozen
// cache.RefCache satisfy it, so the helpers are shared between Run's hot
// path (which holds the concrete *cache.Cache) and runReference.
type dramCache interface {
	Meter() *energy.Meter
	AccessTime(size units.Bytes) units.Time
	AccrueStandby(now units.Time)
	Contains(addr, size units.Bytes) bool
	Insert(addr, size units.Bytes, dirty bool) []cache.Extent
	Invalidate(addr, size units.Bytes)
	DirtyExtents() []cache.Extent
	Crash() int
	Hits() int64
	Misses() int64
}

// TracePrep is the cached per-trace preprocessing Run performs before
// replay: validation, per-file maximum extents (placement hints), and the
// storage footprint. It is immutable once built and safe to share across
// concurrent runs, which is exactly what parameter sweeps over one trace
// want — build it once with PrepareTrace and put it in Config.Prep.
type TracePrep struct {
	trace     *trace.Trace
	err       error
	hints     *trace.FileSizes
	footprint units.Bytes
	// placements[i] is record i's device byte address. Placement is a pure
	// function of the record sequence — the layout evolves identically
	// regardless of device or cache configuration — so it is computed once
	// per trace and shared by every run in a sweep instead of being replayed
	// through a fresh Layout per run. Delete records (which need the whole
	// extent, and may be no-ops) live in the deletions side table; their
	// placements entry is unused.
	placements []units.Bytes
	deletions  map[int]delExtent
}

// delExtent is the extent a Delete record releases.
type delExtent struct {
	off, size units.Bytes
}

// placeRecords replays the layout over the trace once, recording each
// record's placement, and returns the high-water footprint of the same
// replay (block-rounded by construction). Deletes of never-placed files are
// simply absent from the deletions table.
func placeRecords(t *trace.Trace, blockSize units.Bytes, hints *trace.FileSizes) ([]units.Bytes, map[int]delExtent, units.Bytes) {
	l := trace.NewLayout(blockSize)
	out := make([]units.Bytes, len(t.Records))
	var dels map[int]delExtent
	for i, rec := range t.Records {
		switch rec.Op {
		case trace.Delete:
			off, size, ok := l.Extent(rec.File)
			if !ok {
				continue
			}
			if dels == nil {
				dels = make(map[int]delExtent)
			}
			dels[i] = delExtent{off: off, size: size}
			l.Delete(rec.File)
		default:
			out[i] = l.Place(rec.File, rec.Offset, hints.Get(rec.File))
		}
	}
	return out, dels, l.HighWater()
}

// PrepareTrace validates the trace and precomputes the placement hints and
// footprint Run needs. The result is tied to this exact *Trace; mutating
// the trace afterwards invalidates it.
func PrepareTrace(t *trace.Trace) *TracePrep {
	p := &TracePrep{trace: t}
	if err := t.Validate(); err != nil {
		p.err = err
		return p
	}
	p.hints = t.MaxFileExtents()
	p.placements, p.deletions, p.footprint = placeRecords(t, t.BlockSize, p.hints)
	return p
}

// Footprint returns the trace's storage footprint (0 for an invalid trace).
func (p *TracePrep) Footprint() units.Bytes { return p.footprint }

// Err returns the trace validation error, if any.
func (p *TracePrep) Err() error { return p.err }

// Run replays the configured trace through the configured storage hierarchy
// and returns the paper-style result.
func Run(cfg Config) (*Result, error) {
	if cfg.Reference {
		return runReference(cfg)
	}
	cfg = cfg.withDefaults()
	if cfg.Trace == nil {
		return nil, fmt.Errorf("core: no trace configured")
	}
	prep := cfg.Prep
	if prep == nil || prep.trace != cfg.Trace {
		prep = PrepareTrace(cfg.Trace)
	}
	if prep.err != nil {
		return nil, prep.err
	}
	if err := cfg.validateNonTrace(); err != nil {
		return nil, err
	}
	t := cfg.Trace
	blockSize := t.BlockSize

	// Preprocessing (footprint sizes the flash devices; per-record placements
	// replace the per-run layout replay) comes from the prep — shared across
	// a sweep's runs or computed fresh above.
	placements := prep.placements
	deletions := prep.deletions
	footprint := prep.footprint

	// Nil when the plan injects nothing: the fault-free path stays
	// byte-identical to a build without fault injection.
	inj := fault.NewInjector(cfg.Faults, cfg.FaultSeed, cfg.Scope)

	st, err := buildStack(cfg, blockSize, footprint, inj)
	if err != nil {
		return nil, err
	}
	var dram *cache.Cache
	if cfg.DRAMBytes > 0 {
		dram, err = cache.New(*cfg.DRAM, cfg.DRAMBytes, blockSize, cfg.WriteBack, cache.WithScope(cfg.Scope))
		if err != nil {
			return nil, err
		}
	}
	// dc is the nil-safe interface view of dram for the shared helpers: a
	// typed nil *cache.Cache inside the interface would defeat their
	// dram != nil checks.
	var dc dramCache
	if dram != nil {
		dc = dram
	}
	sc := cfg.Scope
	tracing := sc.Tracing()
	smp := newSampler(cfg, sc, st, dc)

	res := &Result{
		TraceName:         t.Name,
		Device:            st.top.Name(),
		EnergyByComponent: make(map[string]float64),
		ReadHist:          stats.NewLatencyHistogram(),
		WriteHist:         stats.NewLatencyHistogram(),
	}

	warmIdx := t.WarmSplit(cfg.WarmFraction)
	var warmSnapshot float64
	snapshotTaken := warmIdx == 0

	crashes := inj.PowerFailSchedule()
	ci := 0

	observer := cfg.Observer
	var lastCompletion units.Time
	recs := t.Records
	for i := range recs {
		rec := &recs[i]
		for ci < len(crashes) && crashes[ci] <= rec.Time {
			crashAndRecover(st, dc, inj, cfg, crashes[ci])
			ci++
		}
		st.idle(rec.Time)
		smp.Tick(int64(rec.Time))
		if !snapshotTaken && i >= warmIdx {
			if dram != nil {
				dram.AccrueStandby(rec.Time)
			}
			warmSnapshot = totalEnergy(st, dc)
			snapshotTaken = true
		}

		if rec.Op == trace.Delete {
			if pl, ok := deletions[i]; ok {
				if dram != nil {
					dram.Invalidate(pl.off, pl.size)
				}
				st.access(device.Request{Time: rec.Time, Op: trace.Delete, File: rec.File, Addr: pl.off, Size: pl.size})
			}
			continue
		}

		addr := placements[i]
		var resp units.Time
		hit := false
		if rec.Op == trace.Read {
			if dram != nil && dram.Contains(addr, rec.Size) {
				hit = true
				if tracing {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheHit, Size: int64(rec.Size)})
				}
				resp = dram.AccessTime(rec.Size)
			} else {
				if tracing && dram != nil {
					sc.Emit(obs.Event{T: int64(rec.Time), Kind: obs.EvCacheMiss, Size: int64(rec.Size)})
				}
				completion := st.access(device.Request{
					Time: rec.Time, Op: trace.Read, File: rec.File, Addr: addr, Size: rec.Size,
				})
				if completion > lastCompletion {
					lastCompletion = completion
				}
				if dram != nil {
					writeEvicted(st, dram.Insert(addr, rec.Size, false), completion)
				}
				resp = completion - rec.Time
			}
			if i >= warmIdx {
				res.Read.AddTime(resp)
				res.ReadHist.Add(resp.Milliseconds())
				res.Overall.AddTime(resp)
				res.MeasuredOps++
			}
			if observer != nil {
				observer(OpObservation{Index: i, Arrival: rec.Time, Response: resp,
					Op: trace.Read, CacheHit: hit, Size: rec.Size})
			}
		} else {
			if cfg.WriteBack && dram != nil {
				resp = dram.AccessTime(rec.Size)
				writeEvicted(st, dram.Insert(addr, rec.Size, true), rec.Time+resp)
			} else {
				completion := st.access(device.Request{
					Time: rec.Time, Op: trace.Write, File: rec.File, Addr: addr, Size: rec.Size,
				})
				if completion > lastCompletion {
					lastCompletion = completion
				}
				if dram != nil {
					dram.AccessTime(rec.Size) // parallel cache update energy
					writeEvicted(st, dram.Insert(addr, rec.Size, false), completion)
				}
				resp = completion - rec.Time
			}
			if i >= warmIdx {
				res.Write.AddTime(resp)
				res.WriteHist.Add(resp.Milliseconds())
				res.Overall.AddTime(resp)
				res.MeasuredOps++
			}
			if observer != nil {
				observer(OpObservation{Index: i, Arrival: rec.Time, Response: resp,
					Op: trace.Write, Size: rec.Size})
			}
		}
	}

	end := units.Max(t.Duration(), lastCompletion)
	// Power failures scheduled after the last record but within the run
	// still fire (the trace's tail idle period).
	for ; ci < len(crashes) && crashes[ci] <= end; ci++ {
		crashAndRecover(st, dc, inj, cfg, crashes[ci])
	}
	// Final write-back flush happens off the books: it is an artifact of
	// ending the simulation, not of the workload.
	if cfg.WriteBack && dram != nil {
		writeEvicted(st, dram.DirtyExtents(), end)
	}
	st.top.Finish(end)
	if dram != nil {
		dram.AccrueStandby(end)
	}

	// The final sample lands after the device and cache wind-down above, so
	// the timeline's last point carries the run's complete counter and
	// energy state.
	smp.Finish(int64(end))
	res.Timeline = smp.Timeline()

	res.EndTime = end
	fillEnergy(res, st, dc, warmSnapshot)
	fillDeviceStats(res, st, dc)
	res.Faults = inj.Report()
	if st.arr != nil {
		if ar := st.arr.FaultReport(); ar != nil {
			if res.Faults == nil {
				res.Faults = ar
			} else {
				res.Faults.Merge(ar)
			}
		}
	}
	if reg := sc.Registry(); reg != nil {
		res.Metrics = reg.Counters()
	}
	return res, nil
}

// crashAndRecover injects one power failure at the given instant and runs
// the recovery pass, checking the stack-level recovery invariants:
//
//   - a write-through DRAM cache never loses acknowledged writes (it holds
//     no dirty data); only the write-back ablation may report lost writes;
//   - the flash card's cleaner never loses live blocks to a crash;
//   - the battery-backed SRAM buffer is empty after its recovery replay.
//
// Violations are recorded on the injector's report — tests fail on any.
func crashAndRecover(st *stack, dram dramCache, inj *fault.Injector, cfg Config, at units.Time) {
	st.top.Idle(at)
	inj.RecordPowerFail(at)

	var card *flashcard.Card
	switch {
	case st.fcard != nil:
		card = st.fcard
	case st.hyb != nil:
		card = st.hyb.Card()
	}
	var preLive int64
	if card != nil {
		preLive = card.LiveBlocks()
	}

	if dram != nil {
		if lost := dram.Crash(); lost > 0 {
			inj.RecordLostWrites(int64(lost), at)
			if !cfg.WriteBack {
				inj.Violatef("core: write-through DRAM cache lost %d dirty blocks at power failure t=%dµs", lost, int64(at))
			}
		}
	}
	if cr, ok := st.top.(device.Crasher); ok {
		cr.Crash(at)
		cr.Recover(at)
	}

	if card != nil {
		if post := card.LiveBlocks(); post < preLive {
			inj.Violatef("core: flash card lost %d live blocks across power failure t=%dµs", preLive-post, int64(at))
		}
	}
	if st.buffer != nil && st.buffer.BufferedBytes() != 0 {
		inj.Violatef("core: SRAM buffer holds %v after recovery at t=%dµs", st.buffer.BufferedBytes(), int64(at))
	}
}

// writeEvicted flushes dirty cache evictions to the device at the given
// time (asynchronous with respect to the response being measured).
func writeEvicted(st *stack, extents []cache.Extent, at units.Time) {
	for _, e := range extents {
		st.access(device.Request{
			Time: at, Op: trace.Write, File: ^uint32(0), Addr: e.Addr, Size: e.Size,
		})
	}
}

// totalEnergy sums all component meters.
func totalEnergy(st *stack, dram dramCache) float64 {
	var j float64
	for _, m := range st.meters() {
		j += m.TotalJ()
	}
	if dram != nil {
		j += dram.Meter().TotalJ()
	}
	return j
}

// fillEnergy computes post-warm-start energy totals and the component
// breakdown.
func fillEnergy(res *Result, st *stack, dram dramCache, warmSnapshot float64) {
	ms := st.meters()
	if st.buffer != nil {
		res.EnergyByComponent["sram"] = st.buffer.Meter().TotalJ()
		ms = ms[:len(ms)-1] // meters lists the buffer last
	}
	var storageJ float64
	for _, m := range ms {
		storageJ += m.TotalJ()
	}
	res.EnergyByComponent["storage"] = storageJ
	if dram != nil {
		res.EnergyByComponent["dram"] = dram.Meter().TotalJ()
	}
	res.EnergyJ = totalEnergy(st, dram) - warmSnapshot
}

// fillDeviceStats extracts device-specific counters.
func fillDeviceStats(res *Result, st *stack, dram dramCache) {
	if dram != nil {
		res.CacheHits = dram.Hits()
		res.CacheMisses = dram.Misses()
	}
	if st.disk != nil {
		res.SpinUps = st.disk.SpinUps()
		res.SpinDowns = st.disk.SpinDowns()
	}
	if st.buffer != nil {
		res.SRAMFlushes = st.buffer.Flushes()
		res.SRAMStalledWrites = st.buffer.StalledWrites()
	}
	if st.hyb != nil {
		res.SpinUps = st.hyb.Disk().SpinUps()
		res.SpinDowns = st.hyb.Disk().SpinDowns()
		card := st.hyb.Card()
		res.Erases = card.TotalErases()
		res.CopiedBlocks = card.CopiedBlocks()
		res.HostBlocks = card.HostBlocks()
		res.WriteStalls = card.Stalls()
	}
	var wear device.WearReporter
	if st.fdisk != nil {
		wear = st.fdisk
	}
	if st.hyb != nil {
		wear = st.hyb.Card()
	}
	if st.fcard != nil {
		wear = st.fcard
		res.Erases = st.fcard.TotalErases()
		res.CopiedBlocks = st.fcard.CopiedBlocks()
		res.HostBlocks = st.fcard.HostBlocks()
		res.WriteStalls = st.fcard.Stalls()
		res.CleaningTime = st.fcard.CleaningTime()
		res.HostTime = st.fcard.HostTime()
	}
	if st.arr != nil {
		wear = st.arr
		res.Erases = st.arr.TotalErases()
		res.CopiedBlocks = st.arr.CopiedBlocks()
		res.HostBlocks = st.arr.HostBlocks()
		res.WriteStalls = st.arr.Stalls()
		res.CleaningTime = st.arr.CleaningTime()
		res.HostTime = st.arr.HostTime()
	}
	if wear != nil {
		counts := wear.EraseCounts()
		var sum, max int64
		for _, c := range counts {
			sum += c
			if c > max {
				max = c
			}
		}
		res.MaxEraseCount = max
		if len(counts) > 0 {
			res.MeanEraseCount = float64(sum) / float64(len(counts))
		}
		if res.Erases == 0 {
			res.Erases = sum
		}
	}
}

// Footprint returns the storage footprint of a trace: the maximum
// concurrent bytes placed over its lifetime. Experiments use it to size
// flash devices relative to the workload.
func Footprint(t *trace.Trace) units.Bytes {
	_, _, footprint := placeRecords(t, t.BlockSize, t.MaxFileExtents())
	return footprint
}

// buildStack constructs the configured storage hierarchy: one base device
// (an array, a disk, a flash disk, a flash card, or the hybrid), wrapped in
// the SRAM write buffer when one is configured. The fault injector (nil =
// fault injection off) is threaded into every device layer.
func buildStack(cfg Config, blockSize, footprint units.Bytes, inj *fault.Injector) (*stack, error) {
	st := &stack{}
	stored := max(cfg.StoredData, footprint)
	var base device.Device
	var err error
	switch {
	case cfg.Array != nil:
		st.arr, err = buildArray(cfg, blockSize, stored, inj)
		base = st.arr
	case cfg.Kind == MagneticDisk:
		st.disk, err = buildDisk(cfg, inj)
		base = st.disk
	case cfg.Kind == FlashDisk:
		st.fdisk, err = buildFlashDisk(cfg, stored, inj)
		base = st.fdisk
	case cfg.Kind == FlashCard:
		st.fcard, err = buildCard(cfg, blockSize, stored, inj)
		base = st.fcard
	case cfg.Kind == FlashCache:
		st.hyb, err = buildHybrid(cfg, blockSize, inj)
		base = st.hyb
	default:
		err = fmt.Errorf("core: unknown storage kind %d", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	if cfg.SRAMBytes > 0 {
		st.buffer, err = sram.New(*cfg.SRAM, cfg.SRAMBytes, blockSize, base, sram.WithScope(cfg.Scope), sram.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		base = st.buffer
	}
	st.top = base
	return st, nil
}

// buildArray constructs a composite array from cfg.Array. Members are built
// by the same constructors as single devices, but each carries its own
// fault injector — its fault domain — seeded independently per slot. The
// system injector keeps power failures and the shared violation ledger; it
// never injects member-level faults.
func buildArray(cfg Config, blockSize, stored units.Bytes, inj *fault.Injector) (*array.Array, error) {
	spec := cfg.Array
	n := len(spec.Members)
	// Mirror members each hold the full data set; stripe members hold a 1/N
	// round-robin share of the block address space (one extra block covers
	// the uneven remainder slot).
	if spec.Mode == array.Stripe {
		stored = units.CeilDiv(stored, units.Bytes(n)) + blockSize
	}
	members := make([]array.Member, n)
	for i, kind := range spec.Members {
		var build func(*fault.Injector) (device.Device, error)
		switch kind {
		case "flashcard":
			build = func(minj *fault.Injector) (device.Device, error) { return buildCard(cfg, blockSize, stored, minj) }
		case "disk":
			build = func(minj *fault.Injector) (device.Device, error) { return buildDisk(cfg, minj) }
		default:
			return nil, fmt.Errorf("core: array member %d: unknown kind %q", i, kind)
		}
		minj := fault.NewInjector(cfg.MemberFaults.Member(i), fault.MemberSeed(cfg.FaultSeed, i), cfg.Scope)
		dev, err := build(minj)
		if err != nil {
			return nil, fmt.Errorf("core: array member %d: %w", i, err)
		}
		// Replacements are fresh fault-free devices: the dead slot's plan
		// already fired, and a rebuilt card starts unworn.
		members[i] = array.Member{Dev: dev, Inj: minj, Replace: func() (device.Device, error) { return build(nil) }}
	}
	return array.New(array.Config{
		Mode:      spec.Mode,
		BlockSize: blockSize,
		Scope:     cfg.Scope,
		SysInj:    inj,
	}, members)
}

// buildDisk constructs a magnetic disk, single or as an array member.
func buildDisk(cfg Config, inj *fault.Injector) (*disk.Disk, error) {
	policy, err := spinPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return disk.New(cfg.Disk, disk.WithPolicy(policy), disk.WithScope(cfg.Scope), disk.WithFaults(inj))
}

// buildFlashDisk constructs a flash disk sized for the stored data.
func buildFlashDisk(cfg Config, stored units.Bytes, inj *fault.Injector) (*flashdisk.FlashDisk, error) {
	if err := cfg.FlashDiskParams.Validate(); err != nil {
		return nil, err
	}
	opts := []flashdisk.Option{flashdisk.WithScope(cfg.Scope), flashdisk.WithFaults(inj)}
	if cfg.AsyncErase {
		opts = append(opts, flashdisk.WithAsyncErase())
	}
	return flashdisk.New(cfg.FlashDiskParams, flashCapacity(cfg, stored, cfg.FlashDiskParams.SectorSize), opts...)
}

// buildCard constructs a flash card, single or as an array member, holding
// stored bytes of live data. A nil injector builds the fault-free
// replacement card used by mirror rebuilds.
func buildCard(cfg Config, blockSize, stored units.Bytes, inj *fault.Injector) (*flashcard.Card, error) {
	if err := cfg.FlashCardParams.Validate(); err != nil {
		return nil, err
	}
	seg := cfg.FlashCardParams.SegmentSize
	capacity := flashCapacity(cfg, stored, seg)
	if cfg.FlashCapacity == 0 {
		// Guarantee the cleaning reserve above the stored data and the
		// card's structural minimum of four segments. An explicit capacity
		// is taken as-is and rejected downstream if too small.
		if capacity < stored+3*seg {
			capacity = units.CeilDiv(stored, seg)*seg + 3*seg
		}
		// Spare segments are extra physical flash provisioned beyond the
		// nominal capacity; wear-out retirements consume them before any
		// usable capacity is lost.
		capacity += units.Bytes(inj.SpareUnits()) * seg
	}
	opts := []flashcard.Option{flashcard.WithScope(cfg.Scope), flashcard.WithFaults(inj)}
	if cfg.OnDemandCleaning {
		opts = append(opts, flashcard.WithOnDemandCleaning())
	}
	if cfg.WearLeveling > 0 {
		opts = append(opts, flashcard.WithWearLeveling(cfg.WearLeveling))
	}
	// validateNonTrace has rejected unknown names; "" keeps the card's
	// default.
	if p, ok := flashcard.Policies()[cfg.CleaningPolicy]; ok {
		opts = append(opts, flashcard.WithPolicy(p))
	}
	c, err := flashcard.New(cfg.FlashCardParams, capacity, blockSize, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.Prefill(stored); err != nil {
		return nil, err
	}
	return c, nil
}

// buildHybrid constructs the flash-as-disk-cache hybrid.
func buildHybrid(cfg Config, blockSize units.Bytes, inj *fault.Injector) (*hybrid.Cache, error) {
	cacheBytes := cfg.FlashCacheBytes
	if cacheBytes == 0 {
		cacheBytes = 4 * units.MB
	}
	return hybrid.New(hybrid.Config{
		Disk:      cfg.Disk,
		SpinDown:  cfg.SpinDown,
		Card:      cfg.FlashCardParams,
		CacheSize: cacheBytes,
		BlockSize: blockSize,
		Scope:     cfg.Scope,
		Faults:    inj,
	})
}

// spinPolicy resolves the configured spin-down policy.
func spinPolicy(cfg Config) (disk.SpinPolicy, error) {
	switch cfg.SpinPolicy {
	case "":
		return disk.FixedThreshold{Threshold: cfg.SpinDown}, nil
	case "always-on":
		return disk.FixedThreshold{}, nil
	case "immediate":
		return disk.Immediate{}, nil
	case "adaptive":
		return disk.NewAdaptive(), nil
	default:
		return nil, fmt.Errorf("core: unknown spin policy %q", cfg.SpinPolicy)
	}
}

// flashCapacity derives a flash device's capacity: an explicit capacity
// wins; otherwise the stored data ÷ utilization, rounded up to the erase
// unit.
func flashCapacity(cfg Config, stored, unit units.Bytes) units.Bytes {
	if cfg.FlashCapacity != 0 {
		return cfg.FlashCapacity
	}
	return units.CeilDiv(units.Bytes(float64(stored)/cfg.FlashUtilization), unit) * unit
}
