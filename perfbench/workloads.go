package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"mobilestorage/internal/array"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/index"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// unit is one closed-loop request: a single core.Run, one run of the
// events → obsreport pipeline, or one fleet job. Its expected output is
// computed before the timed section and checked after every execution.
type unit struct {
	name  string
	shape string // card, mirror, disk, disk_sram, hybrid, events or fleet
	cfg   core.Config

	records int64 // simulated trace records replayed per execution
	runs    int64 // core.Run calls per execution

	want       *core.Result
	wantEvents [32]byte // events: digest of the NDJSON stream
	wantReport [32]byte // events: digest of the obsreport reports
	buf        *bytes.Buffer

	fleet *fleetBench
}

// inputs is what one set-up builds from the seed.
type inputs struct {
	units  []*unit
	digest [32]byte // of every generated trace, to check set-up is deterministic
	index  []index.Stats
	// probeN is how many leading units the layer probe replays: those of
	// the first sub-seed.
	probeN int
	// fleet is set for the fleet-grid workload, whose traces the service
	// generates itself.
	fleet *fleetBench
}

// markProbe ends the probe's share of the units at the first sub-seed.
func (in *inputs) markProbe() {
	if in.probeN == 0 {
		in.probeN = len(in.units)
	}
}

// setupFunc builds a workload's inputs and closed-loop units from the seed.
type setupFunc func(seed int64, sp *spanLog) (*inputs, error)

// workloads maps each workload to its set-up; README.md records why each
// was chosen and which layers it exercises.
var workloads = map[string]setupFunc{
	"card-sweep":    setupCardSweep,
	"disk-sweep":    setupDiskSweep,
	"fleet-grid":    setupFleetGrid,
	"events-report": setupEventsReport,
}

// fsTraces and cardUtils are the card-sweep axes. dos-seq is the Figure 2
// sequential variant whose long contiguous runs exercise the extent path
// that the real traces (mean run length ~1.2) barely use.
//
// Mirror cells run only the traces replayed behind the 2 MB DRAM cache: an
// uncached mirror:2xflashcard run does not reproduce the reference path's
// EnergyJ to the last bit (see "Known defect" in README.md), so it cannot
// pass the output check until the simulator is fixed.
var (
	fsTraces     = []string{"mac", "dos", "hp", "dos-seq"}
	cardUtils    = []float64{0.40, 0.60, 0.80, 0.95}
	mirrorTraces = []string{"mac", "dos"}
	mirrorUtils  = []float64{0.80, 0.95}
	policies     = []string{"greedy", "cost-benefit"}
)

// prepared is one generated trace with its preprocessing.
type prepared struct {
	t    *trace.Trace
	prep *core.TracePrep
}

// generate builds the named trace from the seed inside a span, then
// prepares it inside another. Index traces also return the engine stats.
func generate(name string, seed int64, sp *spanLog, parent int) (prepared, *index.Stats, error) {
	var t *trace.Trace
	var st *index.Stats
	var err error
	switch name {
	case "index-btree", "index-lsm":
		id := sp.begin("index.GenerateTrace", parent, -1)
		var s index.Stats
		t, s, err = index.GenerateTrace(index.BenchTraceConfig(index.EngineKind(name[len("index-"):]), seed))
		sp.end(id)
		st = &s
	case "dos-seq":
		wc := workload.Dos(seed)
		wc.Name = "dos-seq"
		wc.SequentialFraction = 0.95
		wc.WriteBurstStickiness = 0.90
		id := sp.begin("workload.Generate", parent, -1)
		t, err = workload.Generate(wc)
		sp.end(id)
	default:
		id := sp.begin("workload.Generate", parent, -1)
		t, err = workload.GenerateByName(name, seed)
		sp.end(id)
	}
	if err != nil {
		return prepared{}, nil, fmt.Errorf("generate %s: %w", name, err)
	}
	id := sp.begin("core.PrepareTrace", parent, -1)
	prep := core.PrepareTrace(t)
	sp.end(id)
	if prep.Err() != nil {
		return prepared{}, nil, fmt.Errorf("prepare %s: %w", name, prep.Err())
	}
	return prepared{t: t, prep: prep}, st, nil
}

// traceSet is the traces generated from one sub-seed.
type traceSet struct {
	seed   int64
	traces map[string]prepared
}

// subSeeds derives n input seeds from the benchmark seed. A run replays the
// traces of every sub-seed, so one seed's trace lengths and footprints
// weigh less on its metrics; seeds that differ give disjoint sub-seeds.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = seed*int64(n) + int64(k)
	}
	return out
}

// generateAll builds every named trace for each seed and digests them in
// order.
func generateAll(names []string, seeds []int64, sp *spanLog) ([]traceSet, *inputs, error) {
	root := sp.begin("setup", -1, -1)
	defer sp.end(root)
	in := &inputs{}
	h := sha256.New()
	var sets []traceSet
	for _, seed := range seeds {
		set := traceSet{seed: seed, traces: make(map[string]prepared, len(names))}
		for _, n := range names {
			p, st, err := generate(n, seed, sp, root)
			if err != nil {
				return nil, nil, err
			}
			if st != nil {
				in.index = append(in.index, *st)
			}
			d := traceDigest(p.t)
			h.Write(d[:])
			set.traces[n] = p
		}
		sets = append(sets, set)
	}
	copy(in.digest[:], h.Sum(nil))
	return sets, in, nil
}

// traceDigest hashes a trace's name, block size and every record.
func traceDigest(t *trace.Trace) [32]byte {
	h := sha256.New()
	io.WriteString(h, t.Name)
	var b [8 * 5]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(t.BlockSize))
	h.Write(b[:8])
	for _, r := range t.Records {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.Op))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.File))
		binary.LittleEndian.PutUint64(b[24:], uint64(r.Offset))
		binary.LittleEndian.PutUint64(b[32:], uint64(r.Size))
		h.Write(b[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// dramFor is the paper's DRAM default: 2 MB, except the hp trace, which was
// captured below the buffer cache. Index traces also run uncached, as in
// the indexbench experiment: the engine's buffer pool is their cache.
func dramFor(name string) units.Bytes {
	switch name {
	case "hp", "index-btree", "index-lsm":
		return 0
	}
	return 2 * units.MB
}

// cardCapacity follows the Figure 2 idiom: the card is sized so the lowest
// swept utilization still holds the trace footprint, and utilization is set
// by filler. Small index footprints are raised to the capacity whose prefill
// at 95% still leaves the card's two reserve segments.
func cardCapacity(p prepared) units.Bytes {
	seg := device.IntelSeries2Datasheet().SegmentSize
	capacity := units.CeilDiv(units.Bytes(float64(p.prep.Footprint())/cardUtils[0]), seg) * seg
	maxUtil := cardUtils[len(cardUtils)-1]
	if minCap := units.CeilDiv(2*seg, units.Bytes(float64(seg)*(1-maxUtil))) * seg; capacity < minCap {
		capacity = minCap
	}
	return capacity
}

// cardConfig is one card-sweep cell on the Intel Series 2 datasheet card.
func cardConfig(name string, p prepared, util float64, policy string) core.Config {
	capacity := cardCapacity(p)
	return core.Config{
		Trace:           p.t,
		Prep:            p.prep,
		DRAMBytes:       dramFor(name),
		Kind:            core.FlashCard,
		FlashCardParams: device.IntelSeries2Datasheet(),
		FlashCapacity:   capacity,
		StoredData:      units.Bytes(float64(capacity) * util),
		CleaningPolicy:  policy,
	}
}

func replayUnit(name, shape string, cfg core.Config) *unit {
	return &unit{name: name, shape: shape, cfg: cfg, records: int64(len(cfg.Trace.Records)), runs: 1}
}

func setupCardSweep(seed int64, sp *spanLog) (*inputs, error) {
	names := append(append([]string(nil), fsTraces...), "index-btree", "index-lsm")
	sets, in, err := generateAll(names, subSeeds(seed, cardSubSeeds), sp)
	if err != nil {
		return nil, err
	}
	mirror, err := array.ParseSpec("mirror:2xflashcard")
	if err != nil {
		return nil, err
	}
	for _, set := range sets {
		for _, n := range names {
			for _, u := range cardUtils {
				for _, pol := range policies {
					cfg := cardConfig(n, set.traces[n], u, pol)
					in.units = append(in.units, replayUnit(fmt.Sprintf("%s@%d/u%.2f/%s", n, set.seed, u, pol), "card", cfg))
				}
			}
		}
		for _, n := range mirrorTraces {
			for _, u := range mirrorUtils {
				cfg := cardConfig(n, set.traces[n], u, "greedy")
				cfg.Array = mirror
				in.units = append(in.units, replayUnit(fmt.Sprintf("%s@%d/u%.2f/mirror", n, set.seed, u), "mirror", cfg))
			}
		}
		in.markProbe()
	}
	return in, nil
}

// Sub-seeds per run, chosen so one pass over a workload's units takes two
// to three seconds.
const (
	cardSubSeeds   = 4
	diskSubSeeds   = 4
	eventsSubSeeds = 4
)

// Disk-sweep axes: both disks, three spin-down thresholds around the
// paper's 5 s default, and SRAM off or at the paper's 32 KB.
var (
	diskSpinDowns = []float64{1, 5, 30}
	sramSizes     = []units.Bytes{0, 32 * units.KB}
)

func setupDiskSweep(seed int64, sp *spanLog) (*inputs, error) {
	names := []string{"mac", "dos", "hp"}
	sets, in, err := generateAll(names, subSeeds(seed, diskSubSeeds), sp)
	if err != nil {
		return nil, err
	}
	disks := []struct {
		name string
		p    device.DiskParams
	}{{"cu140", device.CU140Datasheet()}, {"kh", device.KittyhawkDatasheet()}}
	for _, set := range sets {
		for _, n := range names {
			p := set.traces[n]
			for _, d := range disks {
				for _, s := range diskSpinDowns {
					for _, sram := range sramSizes {
						cfg := core.Config{
							Trace: p.t, Prep: p.prep, DRAMBytes: dramFor(n),
							Kind: core.MagneticDisk, Disk: d.p, SpinDown: units.FromSeconds(s),
							SRAMBytes: sram,
						}
						shape := "disk"
						if sram > 0 {
							shape = "disk_sram"
						}
						name := fmt.Sprintf("%s@%d/%s/spin%gs/sram%dKB", n, set.seed, d.name, s, sram/units.KB)
						in.units = append(in.units, replayUnit(name, shape, cfg))
					}
				}
			}
			cfg := core.Config{
				Trace: p.t, Prep: p.prep, DRAMBytes: dramFor(n),
				Kind: core.FlashCache, Disk: device.CU140Datasheet(), SpinDown: 5 * units.Second,
				FlashCardParams: device.IntelSeries2Datasheet(),
			}
			in.units = append(in.units, replayUnit(fmt.Sprintf("%s@%d/hybrid", n, set.seed), "hybrid", cfg))
		}
		in.markProbe()
	}
	return in, nil
}

// eventsSampleEvery spaces the sample.energy events the energy report reads.
const eventsSampleEvery = 300 * units.Second

func setupEventsReport(seed int64, sp *spanLog) (*inputs, error) {
	names := []string{"mac", "dos", "hp"}
	sets, in, err := generateAll(names, subSeeds(seed, eventsSubSeeds), sp)
	if err != nil {
		return nil, err
	}
	// Units run one at a time, so they share one stream buffer.
	buf := new(bytes.Buffer)
	for _, set := range sets {
		for _, n := range names {
			for _, u := range []float64{0.80, 0.95} {
				cfg := cardConfig(n, set.traces[n], u, "greedy")
				cfg.SampleEvery = eventsSampleEvery
				un := replayUnit(fmt.Sprintf("%s@%d/u%.2f/events", n, set.seed, u), "events", cfg)
				un.buf = buf
				in.units = append(in.units, un)
			}
		}
		in.markProbe()
	}
	return in, nil
}

// exec performs the unit once and checks its output.
func (u *unit) exec(sp *spanLog, parent, run int) error {
	switch u.shape {
	case "fleet":
		return u.fleet.exec(sp, parent, run)
	case "events":
		id := sp.begin("events", parent, run)
		defer sp.end(id)
		res, ev, rep, err := eventsPipeline(u.cfg, u.buf, sp, id, run)
		if err != nil {
			return err
		}
		if ev != u.wantEvents {
			return fmt.Errorf("%s: event stream differs from the reference path", u.name)
		}
		if rep != u.wantReport {
			return fmt.Errorf("%s: obsreport reports differ from the reference path", u.name)
		}
		return checkResult(u.name, res, u.want)
	default:
		id := sp.begin("core.Run."+u.shape, parent, run)
		res, err := core.Run(u.cfg)
		sp.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", u.name, err)
		}
		return checkResult(u.name, res, u.want)
	}
}

// expect computes the unit's expected output through the frozen reference
// replay path (Config.Reference), outside any timed section.
func (u *unit) expect() error {
	cfg := u.cfg
	cfg.Reference = true
	var err error
	switch u.shape {
	case "fleet":
		return u.fleet.expect()
	case "events":
		u.want, u.wantEvents, u.wantReport, err = eventsPipeline(cfg, new(bytes.Buffer), newSpanLog(false), -1, -1)
	default:
		u.want, err = core.Run(cfg)
	}
	if err != nil {
		return fmt.Errorf("%s (reference): %w", u.name, err)
	}
	if tl := u.want.Timeline; tl != nil {
		// The returned Timeline points into the run's sampler, which keeps
		// the whole device stack reachable; keep a copy instead.
		c := *tl
		u.want.Timeline = &c
	}
	return nil
}

// checkResult requires the simulated Result to equal the reference one in
// every field, bit for bit on floats — the differential harness's rule. A
// mismatch names the top-level fields that differ.
func checkResult(name string, got, want *core.Result) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	var diff []string
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			diff = append(diff, g.Type().Field(i).Name)
		}
	}
	return fmt.Errorf("%s: result differs from the reference path in %v", name, diff)
}

// eventsPipeline is storagesim -events followed by obsreport, in process:
// the run streams NDJSON into buf, then the decoder feeds the timeline,
// latency, wear, energy and cleaning reporters, whose JSON reports are
// digested. It returns the Result and the stream and report digests.
func eventsPipeline(cfg core.Config, buf *bytes.Buffer, sp *spanLog, parent, run int) (*core.Result, [32]byte, [32]byte, error) {
	var evSum, repSum [32]byte
	id := sp.begin("core.Run.card", parent, run)
	res, err := emitEvents(cfg, buf)
	sp.end(id)
	if err != nil {
		return nil, evSum, repSum, err
	}
	evSum = sha256.Sum256(buf.Bytes())

	id = sp.begin("obsreport.decode", parent, run)
	events, err := obsreport.ReadEvents(bytes.NewReader(buf.Bytes()))
	sp.end(id)
	if err != nil {
		return nil, evSum, repSum, err
	}
	id = sp.begin("obsreport.report", parent, run)
	repSum, err = buildReports(events)
	sp.end(id)
	return res, evSum, repSum, err
}

// emitEvents runs cfg with a metrics registry and an NDJSON sink writing
// into buf.
func emitEvents(cfg core.Config, buf *bytes.Buffer) (*core.Result, error) {
	buf.Reset()
	sink := obs.NewNDJSONSink(buf)
	cfg.Scope = obs.NewScope(obs.NewRegistry(), sink)
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	return res, sink.Flush()
}

// buildReports feeds the five reporters and digests their JSON.
func buildReports(events []obs.Event) ([32]byte, error) {
	tl, lat, wear := obsreport.NewTimelineBuilder(), obsreport.NewLatencyBuilder(), obsreport.NewWearBuilder()
	en, cl := obsreport.NewEnergyBuilder(), obsreport.NewCleaningBuilder()
	for _, e := range events {
		tl.Observe(e)
		lat.Observe(e)
		wear.Observe(e)
		en.Observe(e)
		cl.Observe(e)
	}
	h := sha256.New()
	err := obsreport.WriteTimelines(h, tl.Finish(), obsreport.JSON)
	if err == nil {
		err = obsreport.WriteLatency(h, lat.Finish(), obsreport.JSON)
	}
	if err == nil {
		err = obsreport.WriteWear(h, wear.Finish(), obsreport.JSON)
	}
	if err == nil {
		err = obsreport.WriteEnergy(h, en.Finish(), obsreport.JSON)
	}
	if err == nil {
		err = obsreport.WriteCleaning(h, cl.Finish(), obsreport.JSON)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, err
}

// jsonDigest hashes v's JSON encoding.
func jsonDigest(v any) ([32]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
