package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mobilestorage/internal/cache"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/sram"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// layerMetrics derives the per-layer metrics that the traced loop's spans
// and the expected (simulated) results give: set-up time by module, replay
// self time by stack shape, and the simulated work counts of one pass.
func layerMetrics(m map[string]metric, in *inputs, spans []span, setupSpans [][]span, tr loopStats) {
	for _, k := range []struct{ metric, span string }{
		{"workload.generate_s", "workload.Generate"},
		{"index.generate_s", "index.GenerateTrace"},
		{"core.prepare_s", "core.PrepareTrace"},
	} {
		var reps []float64
		for _, ss := range setupSpans {
			reps = append(reps, selfSeconds(ss, selfTimes(ss), k.span))
		}
		m[k.metric] = metric{median(reps), "s"}
	}
	var logical, written units.Bytes
	for _, s := range in.index {
		logical += s.LogicalBytes
		written += s.WrittenBytes
	}
	m["index.write_amp"] = metric{ratio(float64(written), float64(logical)), "ratio"}

	self := selfTimes(spans)
	passes := float64(tr.passes)
	for _, shape := range []string{"card", "mirror", "disk", "disk_sram", "hybrid"} {
		m["core.run_s."+shape] = metric{selfSeconds(spans, self, "core.Run."+shape) / passes, "s"}
	}

	// Simulated work of one pass, from the expected results: exact counts
	// that a performance-only change leaves identical.
	var c simCounts
	for _, u := range in.units {
		if u.want != nil {
			c.addResult(u.want)
		}
	}
	if f := in.fleet; f != nil {
		c.addReport(f.wantReport)
		m["fleet.worker_busy_frac"] = metric{ratio(f.busySum, f.busyN), "ratio"}
	} else {
		m["fleet.worker_busy_frac"] = metric{0, "ratio"}
	}
	m["cache.hit_ratio"] = metric{ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio"}
	m["flashcard.erases"] = metric{float64(c.erases), "count"}
	m["flashcard.copied_blocks"] = metric{float64(c.copied), "count"}
	m["flashcard.useful_write_ratio"] = metric{ratio(float64(c.host), float64(c.host+c.copied)), "ratio"}
	m["flashcard.write_stalls"] = metric{float64(c.stalls), "count"}
	m["disk.spin_ups"] = metric{float64(c.spinUps), "count"}
	m["sram.flushes"] = metric{float64(c.flushes), "count"}
	m["sram.stalled_writes"] = metric{float64(c.stalled), "count"}
	m["fault.retries"] = metric{float64(c.retries), "count"}
	m["fault.injected"] = metric{float64(c.injected), "count"}
}

// simCounts sums simulated statistics over results.
type simCounts struct {
	hits, misses, erases, copied, host, stalls   int64
	spinUps, flushes, stalled, retries, injected int64
}

func (c *simCounts) addResult(r *core.Result) {
	c.hits += r.CacheHits
	c.misses += r.CacheMisses
	c.erases += r.Erases
	c.copied += r.CopiedBlocks
	c.host += r.HostBlocks
	c.stalls += r.WriteStalls
	c.spinUps += r.SpinUps
	c.flushes += r.SRAMFlushes
	c.stalled += r.SRAMStalledWrites
	if f := r.Faults; f != nil {
		c.retries += f.Retries
		c.injected += f.ReadFaults + f.WriteFaults + f.EraseFaults
	}
}

func (c *simCounts) addReport(r *fleet.Report) {
	c.hits += r.Cache.Hits
	c.misses += r.Cache.Misses
	c.erases += r.Flash.Erases
	c.copied += r.Flash.CopiedBlocks
	c.host += r.Flash.HostBlocks
	c.stalls += r.Flash.WriteStalls
	c.spinUps += r.Spin.Ups
	c.flushes += r.Cache.SRAMFlushes
	c.stalled += r.Cache.SRAMStalled
	if f := r.Faults; f != nil {
		c.retries += f.Retries
		c.injected += f.ReadFaults + f.WriteFaults + f.EraseFaults
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergeReps repeats each Aggregator.Add so the merge timing covers more
// than a timer tick.
const mergeReps = 20

// probeMetrics runs the layer probe over the workload's replay configs
// (for fleet-grid, the grid's cells at the base seed) and reports host time
// per call of each layer. A metric whose layer the workload never calls
// reads 0.
func probeMetrics(m map[string]metric, in *inputs) error {
	cfgs, err := probeConfigs(in, m)
	if err != nil {
		return err
	}
	var ls layerStats
	var emitNs, events, decodeNs, decodeBytes, reportNs, mergeNs, merges int64
	var buf bytes.Buffer
	agg := fleet.NewAggregator()
	for _, cfg := range cfgs {
		plain := cfg
		plain.SampleEvery = 0
		t0 := time.Now()
		if _, err := core.Run(plain); err != nil {
			return err
		}
		nilNs := int64(time.Since(t0))
		ls.plain.add(time.Duration(nilNs), len(cfg.Trace.Records))
		t0 = time.Now()
		res, err := emitEvents(cfg, &buf)
		if err != nil {
			return err
		}
		emitNs += int64(time.Since(t0)) - nilNs
		events += int64(bytes.Count(buf.Bytes(), []byte{'\n'}))

		t0 = time.Now()
		evs, err := obsreport.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		decodeNs += int64(time.Since(t0))
		decodeBytes += int64(buf.Len())
		t0 = time.Now()
		if _, err := buildReports(evs); err != nil {
			return err
		}
		reportNs += int64(time.Since(t0))

		figs := obsreport.NewFigureSet()
		for _, e := range evs {
			figs.Observe(e)
		}
		t0 = time.Now()
		for i := 0; i < mergeReps; i++ {
			agg.Add(res, figs)
		}
		mergeNs += int64(time.Since(t0))
		merges += mergeReps

		if err := ls.observe(cfg); err != nil {
			return err
		}
		if err := ls.replay(cfg); err != nil && !errors.Is(err, errNotProbed) {
			return err
		}
	}
	m["obs.events"] = metric{float64(events), "count"}
	m["obs.emit_ns_per_event"] = metric{ratio(float64(emitNs), float64(events)), "ns"}
	m["obsreport.decode_mb_per_s"] = metric{ratio(float64(decodeBytes)/1e6, float64(decodeNs)/1e9), "MB/s"}
	m["obsreport.report_s"] = metric{float64(reportNs) / 1e9, "s"}
	m["fleet.merge_ns_per_run"] = metric{ratio(float64(mergeNs), float64(merges)), "ns"}
	m["core.ns_per_record"] = metric{ls.plain.perCall(), "ns"}
	m["cache.ns_per_call"] = metric{ls.cache.perCall(), "ns"}
	m["flashcard.ns_per_access"] = metric{ls.card.perCall(), "ns"}
	m["disk.ns_per_access"] = metric{ls.disk.perCall(), "ns"}
	m["flashdisk.ns_per_access"] = metric{ls.fdisk.perCall(), "ns"}
	m["sram.ns_per_access"] = metric{ls.sram.perCall(), "ns"}
	m["energy.ns_per_accrue"] = metric{ls.energy.perCall(), "ns"}
	m["stats.ns_per_add"] = metric{ls.stats.perCall(), "ns"}
	return nil
}

// probeConfigs lists the configs the probe replays: the first sub-seed's
// replay units, or for the fleet grid one replica of its cells at the base seed, built
// with the service's defaults (DRAM 2 MB, SRAM 32 KB on disks, 5 s
// spin-down). The service generates and prepares its traces internally,
// so for the fleet grid the probe's own generation times stand in for the
// set-up spans.
func probeConfigs(in *inputs, m map[string]metric) ([]core.Config, error) {
	if in.fleet == nil {
		var cfgs []core.Config
		for _, u := range in.units[:in.probeN] {
			cfgs = append(cfgs, u.cfg)
		}
		return cfgs, nil
	}
	spec := in.fleet.spec
	var cfgs []core.Config
	var genNs, prepNs time.Duration
	for _, name := range spec.Traces {
		var t *trace.Trace
		var err error
		t0 := time.Now()
		if name == "synth" {
			t, err = workload.Synth(workload.SynthConfig{Seed: spec.Seed, Ops: spec.SynthOps})
		} else {
			t, err = workload.GenerateByName(name, spec.Seed)
		}
		genNs += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		prep := core.PrepareTrace(t)
		prepNs += time.Since(t0)
		for _, dev := range spec.Devices {
			for _, util := range spec.Utilizations {
				for _, raw := range spec.FaultPlans {
					plan, err := fault.ParsePlan(raw)
					if err != nil {
						return nil, err
					}
					cfg := core.Config{Trace: t, Prep: prep, DRAMBytes: 2 * units.MB, SpinDown: 5 * units.Second,
						CleaningPolicy: "greedy", FlashUtilization: util, Faults: plan, FaultSeed: spec.Seed}
					if err := fleet.SelectDevice(&cfg, dev, spec.Source); err != nil {
						return nil, err
					}
					if cfg.Kind == core.MagneticDisk {
						cfg.SRAMBytes = 32 * units.KB
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	m["workload.generate_s"] = metric{genNs.Seconds(), "s"}
	m["core.prepare_s"] = metric{prepNs.Seconds(), "s"}
	return cfgs, nil
}

// clock aggregates host time and calls for one layer.
type clock struct {
	ns, calls int64
}

func (c *clock) add(d time.Duration, calls int) {
	c.ns += int64(d)
	c.calls += int64(calls)
}

func (c clock) perCall() float64 { return ratio(float64(c.ns), float64(c.calls)) }

// layerStats accumulates the probe's host timings and simulated counts.
type layerStats struct {
	cache, card, disk, fdisk, sram, energy, stats clock
	// plain times nil-scope core.Run calls per trace record.
	plain clock

	// Simulated counts of the replayed traffic.
	hits, misses, erases, copied, spinUps, flushes, stalled int64
}

// observe runs cfg once with an op observer and feeds the reported arrival
// gaps and responses through an energy meter and the response-time
// summaries, timing each loop as a whole.
func (ls *layerStats) observe(cfg core.Config) error {
	var gaps, resps []units.Time
	var last units.Time
	cfg.SampleEvery = 0
	cfg.Observer = func(o core.OpObservation) {
		gaps = append(gaps, o.Arrival-last)
		resps = append(resps, o.Response)
		last = o.Arrival
	}
	if _, err := core.Run(cfg); err != nil {
		return err
	}
	meter := energy.NewMeter()
	t0 := time.Now()
	for i := range gaps {
		meter.AccrueSlot(energy.SlotIdle, 0.5, gaps[i])
		meter.AccrueSlot(energy.SlotActive, 2.0, resps[i])
	}
	ls.energy.add(time.Since(t0), 2*len(gaps))

	var sum stats.Summary
	hist := stats.NewLatencyHistogram()
	t0 = time.Now()
	for _, r := range resps {
		ms := r.Milliseconds()
		sum.Add(ms)
		hist.Add(ms)
	}
	ls.stats.add(time.Since(t0), 2*len(resps))
	return nil
}

// errNotProbed marks a stack the layer replay does not model: arrays, the
// hybrid, write-back caching, and SRAM in front of a flash device.
var errNotProbed = errors.New("stack not modelled by the layer probe")

// Call kinds of the recorded layer traffic.
const (
	callIdle uint8 = iota
	callAccess
	callBackground
	callFinish
	callContains
	callInsert
	callInvalidate
)

// devCall is one recorded call into a device; Idle and Finish use req.Time.
type devCall struct {
	kind uint8
	req  device.Request
}

// cacheCall is one recorded call into the DRAM cache.
type cacheCall struct {
	kind       uint8
	addr, size units.Bytes
}

// replay drives the config's layers directly through their public
// constructors and Access/Idle/Contains/Insert calls, in core.Run's order:
// trace.Layout placement, the DRAM cache, the SRAM buffer, and the disk,
// flash card or flash disk. The first pass records each layer's call
// sequence and its simulated counts; each sequence is then replayed alone
// on a freshly built layer and timed as a whole, so per-call times carry
// no timer overhead and exclude the layers above.
func (ls *layerStats) replay(cfg core.Config) error {
	st, err := buildLayers(cfg, true)
	if err != nil {
		return err
	}
	t := cfg.Trace
	hints := t.MaxFileExtents()
	l := trace.NewLayout(t.BlockSize)
	var devLog []devCall
	var cacheLog []cacheCall
	var last units.Time
	access := func(req device.Request) units.Time {
		devLog = append(devLog, devCall{callAccess, req})
		return st.top.Access(req)
	}
	for _, rec := range t.Records {
		devLog = append(devLog, devCall{callIdle, device.Request{Time: rec.Time}})
		st.top.Idle(rec.Time)
		switch rec.Op {
		case trace.Delete:
			off, size, ok := l.Extent(rec.File)
			if !ok {
				continue
			}
			l.Delete(rec.File)
			if st.dram != nil {
				cacheLog = append(cacheLog, cacheCall{callInvalidate, off, size})
				st.dram.Invalidate(off, size)
			}
			access(device.Request{Time: rec.Time, Op: trace.Delete, File: rec.File, Addr: off, Size: size})
		default:
			addr := l.Place(rec.File, rec.Offset, hints.Get(rec.File))
			if rec.Op == trace.Read && st.dram != nil {
				cacheLog = append(cacheLog, cacheCall{callContains, addr, rec.Size})
				if st.dram.Contains(addr, rec.Size) {
					continue
				}
			}
			c := access(device.Request{Time: rec.Time, Op: rec.Op, File: rec.File, Addr: addr, Size: rec.Size})
			last = max(last, c)
			if st.dram != nil {
				cacheLog = append(cacheLog, cacheCall{callInsert, addr, rec.Size})
				for _, e := range st.dram.Insert(addr, rec.Size, false) {
					access(device.Request{Time: c, Op: trace.Write, File: ^uint32(0), Addr: e.Addr, Size: e.Size})
				}
			}
		}
	}
	end := max(t.Duration(), last)
	devLog = append(devLog, devCall{callFinish, device.Request{Time: end}})
	st.top.Finish(end)
	ls.count(st)

	fresh, err := buildLayers(cfg, false)
	if err != nil {
		return err
	}
	d, calls := play(fresh.top, devLog)
	switch {
	case fresh.buf != nil:
		bare := cfg
		bare.SRAMBytes = 0
		disk, err := buildLayers(bare, false)
		if err != nil {
			return err
		}
		dd, dcalls := play(disk.top, st.rec.log)
		ls.disk.add(dd, dcalls)
		ls.sram.add(d-dd, calls)
	case fresh.card != nil:
		ls.card.add(d, calls)
	case fresh.disk != nil:
		ls.disk.add(d, calls)
	case fresh.fdisk != nil:
		ls.fdisk.add(d, calls)
	}
	if fresh.dram != nil {
		t0 := time.Now()
		for _, c := range cacheLog {
			switch c.kind {
			case callContains:
				fresh.dram.Contains(c.addr, c.size)
			case callInsert:
				fresh.dram.Insert(c.addr, c.size, false)
			case callInvalidate:
				fresh.dram.Invalidate(c.addr, c.size)
			}
		}
		ls.cache.add(time.Since(t0), len(cacheLog))
	}
	return nil
}

// count adds a replayed stack's simulated counts.
func (ls *layerStats) count(st *layers) {
	if st.dram != nil {
		ls.hits += st.dram.Hits()
		ls.misses += st.dram.Misses()
	}
	if st.card != nil {
		ls.erases += st.card.TotalErases()
		ls.copied += st.card.CopiedBlocks()
	}
	if st.fdisk != nil {
		for _, n := range st.fdisk.EraseCounts() {
			ls.erases += n
		}
	}
	if st.disk != nil {
		ls.spinUps += st.disk.SpinUps()
	}
	if st.buf != nil {
		ls.flushes += st.buf.Flushes()
		ls.stalled += st.buf.StalledWrites()
	}
}

// play replays a recorded call sequence on dev and returns the time it
// took and the number of Access and Background calls.
func play(dev device.Device, log []devCall) (time.Duration, int) {
	bg, _ := dev.(interface {
		Background(device.Request) units.Time
	})
	calls := 0
	t0 := time.Now()
	for i := range log {
		c := &log[i]
		switch c.kind {
		case callIdle:
			dev.Idle(c.req.Time)
		case callAccess:
			dev.Access(c.req)
			calls++
		case callBackground:
			bg.Background(c.req)
			calls++
		case callFinish:
			dev.Finish(c.req.Time)
		}
	}
	return time.Since(t0), calls
}

// layers is one probe stack; top is the SRAM buffer when there is one,
// else the device. rec, when recording, sits between the buffer and the
// disk and logs the calls the buffer makes.
type layers struct {
	top   device.Device
	rec   *recDisk
	dram  *cache.Cache
	buf   *sram.Buffer
	card  *flashcard.Card
	disk  *disk.Disk
	fdisk *flashdisk.FlashDisk
}

// buildLayers constructs the config's stack the way core.Run sizes it: the
// paper's defaults, flash capacity from the stored data and utilization
// (plus fault-plan spares), and the stored data prefilled on the card.
func buildLayers(cfg core.Config, record bool) (*layers, error) {
	if cfg.Array != nil || cfg.WriteBack || cfg.Kind == core.FlashCache ||
		(cfg.SRAMBytes > 0 && cfg.Kind != core.MagneticDisk) {
		return nil, errNotProbed
	}
	util := cfg.FlashUtilization
	if util == 0 {
		util = 0.80
	}
	policy := cfg.CleaningPolicy
	if policy == "" {
		policy = "greedy"
	}
	t := cfg.Trace
	bs := t.BlockSize
	stored := max(cfg.StoredData, core.Footprint(t))
	inj := fault.NewInjector(cfg.Faults, cfg.FaultSeed, nil)
	st := &layers{}
	switch cfg.Kind {
	case core.FlashCard:
		seg := cfg.FlashCardParams.SegmentSize
		capacity := cfg.FlashCapacity
		if capacity == 0 {
			capacity = units.CeilDiv(units.Bytes(float64(stored)/util), seg) * seg
			if capacity < stored+3*seg {
				capacity = units.CeilDiv(stored, seg)*seg + 3*seg
			}
			capacity += units.Bytes(inj.SpareUnits()) * seg
		}
		pol, ok := flashcard.Policies()[policy]
		if !ok {
			return nil, fmt.Errorf("probe: unknown cleaning policy %q", policy)
		}
		c, err := flashcard.New(cfg.FlashCardParams, capacity, bs, flashcard.WithFaults(inj), flashcard.WithPolicy(pol))
		if err != nil {
			return nil, err
		}
		if err := c.Prefill(stored); err != nil {
			return nil, err
		}
		st.card, st.top = c, c
	case core.MagneticDisk:
		d, err := disk.New(cfg.Disk, disk.WithPolicy(disk.FixedThreshold{Threshold: cfg.SpinDown}), disk.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.disk, st.top = d, d
	case core.FlashDisk:
		sector := cfg.FlashDiskParams.SectorSize
		capacity := cfg.FlashCapacity
		if capacity == 0 {
			capacity = units.CeilDiv(units.Bytes(float64(stored)/util), sector) * sector
		}
		opts := []flashdisk.Option{flashdisk.WithFaults(inj)}
		if cfg.AsyncErase {
			opts = append(opts, flashdisk.WithAsyncErase())
		}
		f, err := flashdisk.New(cfg.FlashDiskParams, capacity, opts...)
		if err != nil {
			return nil, err
		}
		st.fdisk, st.top = f, f
	default:
		return nil, errNotProbed
	}
	if cfg.SRAMBytes > 0 {
		var inner device.Device = st.disk
		if record {
			st.rec = &recDisk{Disk: st.disk}
			inner = st.rec
		}
		b, err := sram.New(device.NECSRAM(), cfg.SRAMBytes, bs, inner, sram.WithFaults(inj))
		if err != nil {
			return nil, err
		}
		st.buf, st.top = b, b
	}
	if cfg.DRAMBytes > 0 {
		c, err := cache.New(device.NECDRAM(), cfg.DRAMBytes, bs, false)
		if err != nil {
			return nil, err
		}
		st.dram = c
	}
	return st, nil
}

// recDisk records the calls an SRAM buffer makes into the disk behind it.
// Embedding the disk keeps Spinning and Background visible to the buffer,
// so it drains exactly as it does in front of the bare disk.
type recDisk struct {
	*disk.Disk
	log []devCall
}

func (r *recDisk) Access(req device.Request) units.Time {
	r.log = append(r.log, devCall{callAccess, req})
	return r.Disk.Access(req)
}

func (r *recDisk) Background(req device.Request) units.Time {
	r.log = append(r.log, devCall{callBackground, req})
	return r.Disk.Background(req)
}

func (r *recDisk) Idle(now units.Time) {
	r.log = append(r.log, devCall{callIdle, device.Request{Time: now}})
	r.Disk.Idle(now)
}

func (r *recDisk) Finish(now units.Time) {
	r.log = append(r.log, devCall{callFinish, device.Request{Time: now}})
	r.Disk.Finish(now)
}
