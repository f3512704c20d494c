package sram

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// devCall is one call a recDevice received.
type devCall struct {
	kind string // access, background, idle, finish, crash, recover
	req  device.Request
}

// recDevice is the inner device of the equivalence fuzz: it logs every call
// and serves each request in a fixed time, one at a time. It counts as
// spinning until spinWindow after its last busy instant.
type recDevice struct {
	meter      *energy.Meter
	service    units.Time
	spinWindow units.Time
	busyUntil  units.Time
	log        []devCall
}

func (d *recDevice) Access(req device.Request) units.Time {
	d.log = append(d.log, devCall{"access", req})
	if req.Op == trace.Delete {
		return req.Time
	}
	d.busyUntil = units.Max(req.Time, d.busyUntil) + d.service
	return d.busyUntil
}

func (d *recDevice) Idle(now units.Time) {
	d.log = append(d.log, devCall{"idle", device.Request{Time: now}})
}

func (d *recDevice) Finish(now units.Time) {
	d.log = append(d.log, devCall{"finish", device.Request{Time: now}})
}

func (d *recDevice) Meter() *energy.Meter { return d.meter }
func (d *recDevice) Name() string         { return "rec" }

func (d *recDevice) spinning(now units.Time) bool { return now < d.busyUntil+d.spinWindow }

func (d *recDevice) background(req device.Request) units.Time {
	d.log = append(d.log, devCall{"background", req})
	return d.Access(req)
}

func (d *recDevice) crash(at units.Time) {
	d.log = append(d.log, devCall{"crash", device.Request{Time: at}})
	d.busyUntil = units.Min(d.busyUntil, at)
}

func (d *recDevice) recover(at units.Time) units.Time {
	d.log = append(d.log, devCall{"recover", device.Request{Time: at}})
	d.busyUntil = at + d.service
	return d.busyUntil
}

// The recDevice variants expose the optional interfaces the buffer probes
// for: spin state with a background write path (the disk) and crash
// recovery.
type (
	spinRec      struct{ *recDevice }
	crashRec     struct{ *recDevice }
	spinCrashRec struct{ *recDevice }
)

func (d spinRec) Spinning(now units.Time) bool                  { return d.spinning(now) }
func (d spinRec) Background(req device.Request) units.Time      { return d.background(req) }
func (d crashRec) Crash(at units.Time)                          { d.crash(at) }
func (d crashRec) Recover(at units.Time) units.Time             { return d.recover(at) }
func (d spinCrashRec) Spinning(now units.Time) bool             { return d.spinning(now) }
func (d spinCrashRec) Background(req device.Request) units.Time { return d.background(req) }
func (d spinCrashRec) Crash(at units.Time)                      { d.crash(at) }
func (d spinCrashRec) Recover(at units.Time) units.Time         { return d.recover(at) }

// Ops of the equivalence fuzz's byte encoding.
const (
	opWrite = iota
	opWrite2
	opRead
	opRead2
	opDelete
	opOversized
	opIdle
	opCrash
	numOps
)

// bufferModel is what the fuzz drives on both the Buffer and refBuffer.
type bufferModel interface {
	device.Device
	device.Crasher
	Flushes() int64
	StalledWrites() int64
	OverflowStall() units.Time
	BufferedBytes() units.Bytes
}

// sramRun is one side of an equivalence run: a buffer, its inner device
// and the observability it reports through.
type sramRun struct {
	buf    bufferModel
	dev    *recDevice
	reg    *obs.Registry
	events *obs.Collector
	inj    *fault.Injector
	// out records each op's completion time and the buffered bytes after it.
	out []string
}

// sramCase is the decoded header of a fuzz input.
type sramCase struct {
	variant    int
	capBlocks  int
	blockSize  units.Bytes
	service    units.Time
	spinWindow units.Time
}

// decodeCase is total: any three bytes (missing ones read as zero) name a
// valid buffer geometry and inner device.
func decodeCase(data []byte) (sramCase, []byte) {
	var h [3]byte
	n := copy(h[:], data)
	blockSizes := [...]units.Bytes{512, units.KB, 4 * units.KB, 8 * units.KB}
	return sramCase{
		variant:    int(h[0] % 4),
		capBlocks:  int(h[1]%32) + 1,
		blockSize:  blockSizes[h[1]>>5%4],
		service:    units.Time(h[2]%64+1) * units.Millisecond,
		spinWindow: units.Time(h[2]>>6) * 2 * units.Second,
	}, data[n:]
}

// newSRAMRun builds one side: the new Buffer, or the reference one.
func newSRAMRun(t *testing.T, c sramCase, ref bool) *sramRun {
	r := &sramRun{
		dev:    &recDevice{meter: energy.NewMeter(), service: c.service, spinWindow: c.spinWindow},
		reg:    obs.NewRegistry(),
		events: obs.NewCollector(nil),
	}
	sc := obs.NewScope(r.reg, r.events)
	r.inj = fault.NewInjector(&fault.Plan{PowerFailAtUs: []int64{1}}, 1, sc)
	var inner device.Device = r.dev
	switch c.variant {
	case 1:
		inner = spinRec{r.dev}
	case 2:
		inner = crashRec{r.dev}
	case 3:
		inner = spinCrashRec{r.dev}
	}
	size := units.Bytes(c.capBlocks) * c.blockSize
	var err error
	if ref {
		r.buf, err = newRef(device.NECSRAM(), size, c.blockSize, inner, sc, r.inj)
	} else {
		r.buf, err = New(device.NECSRAM(), size, c.blockSize, inner, WithScope(sc), WithFaults(r.inj))
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// step applies one op at time now to the request range starting at addr;
// s is the op's size byte. Reads and writes move (s+1) eighths of a block,
// deletes s eighths (so zero-size deletes occur), and oversized writes
// that much more than the whole buffer.
func (r *sramRun) step(c sramCase, op int, now units.Time, addr units.Bytes, s byte) {
	eighth := c.blockSize / 8
	req := device.Request{Time: now, Op: trace.Write, File: 1, Addr: addr, Size: (units.Bytes(s) + 1) * eighth}
	var done units.Time
	switch op {
	case opWrite, opWrite2:
		done = r.buf.Access(req)
	case opRead, opRead2:
		req.Op = trace.Read
		done = r.buf.Access(req)
	case opDelete:
		req.Op, req.Size = trace.Delete, units.Bytes(s)*eighth
		done = r.buf.Access(req)
	case opOversized:
		req.Size += units.Bytes(c.capBlocks) * c.blockSize
		done = r.buf.Access(req)
	case opIdle:
		r.buf.Idle(now)
	case opCrash:
		r.buf.Crash(now)
		done = r.buf.Recover(now)
	}
	r.out = append(r.out, fmt.Sprintf("%d %d", done, r.buf.BufferedBytes()))
}

// replaySRAM decodes ops from data and applies them to r. Each op is three
// bytes: kind and arrival gap, start address, size. Arrivals are open-loop,
// so requests may land while the device is still busy with a drain.
func replaySRAM(r *sramRun, c sramCase, ops []byte) {
	const maxOps = 512
	var now units.Time
	for i := 0; i+3 <= len(ops) && i < 3*maxOps; i += 3 {
		kind, a, s := ops[i], ops[i+1], ops[i+2]
		gap := units.Time(kind >> 3)
		now += gap * gap * 5 * units.Millisecond
		// 64 blocks of address space, at quarter-block offsets.
		addr := units.Bytes(a&63)*c.blockSize + units.Bytes(a>>6)*c.blockSize/4
		r.step(c, int(kind%numOps), now, addr, s)
	}
	r.buf.Finish(now + units.Second)
}

// FuzzBufferEquivalence diffs the sorted-slice Buffer against refBuffer,
// the original map-and-sort dirty set, on arbitrary op sequences over every
// inner-device variant: the inner device must see the same calls in the
// same order, and every completion time, counter, event, energy total and
// recovery replay count must match.
func FuzzBufferEquivalence(f *testing.F) {
	for _, s := range sramSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkEquivalence)
}

// TestBufferEquivalenceRandom runs the fuzz's check on a fixed set of
// pseudo-random inputs, so the plain test run covers more than the seeds.
func TestBufferEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		data := make([]byte, 3+rng.Intn(600))
		rng.Read(data)
		checkEquivalence(t, data)
		if t.Failed() {
			t.Fatalf("input %x", data)
		}
	}
}

// checkEquivalence replays the ops data encodes through a Buffer and a
// refBuffer over identical inner devices and fails on any difference.
func checkEquivalence(t *testing.T, data []byte) {
	c, ops := decodeCase(data)
	got, want := newSRAMRun(t, c, false), newSRAMRun(t, c, true)
	replaySRAM(got, c, ops)
	replaySRAM(want, c, ops)
	for i := range want.out {
		if got.out[i] != want.out[i] {
			t.Errorf("%+v op %d: completion, buffered = %s, reference %s", c, i, got.out[i], want.out[i])
			return
		}
	}
	if !reflect.DeepEqual(got.dev.log, want.dev.log) {
		t.Errorf("%+v: inner device calls differ\n got %v\nwant %v", c, got.dev.log, want.dev.log)
		return
	}
	type stats struct {
		Flushes, Stalled int64
		Stall            units.Time
		Buffered         units.Bytes
		EnergyJ          float64
		Energy           map[energy.State]float64
	}
	statsOf := func(b bufferModel) stats {
		return stats{b.Flushes(), b.StalledWrites(), b.OverflowStall(), b.BufferedBytes(),
			b.Meter().TotalJ(), b.Meter().ByState()}
	}
	if g, w := statsOf(got.buf), statsOf(want.buf); !reflect.DeepEqual(g, w) {
		t.Errorf("%+v: stats %+v, reference %+v", c, g, w)
	}
	if g, w := got.reg.Counters(), want.reg.Counters(); !reflect.DeepEqual(g, w) {
		t.Errorf("%+v: counters %v, reference %v", c, g, w)
	}
	if g, w := got.events.Events(), want.events.Events(); !reflect.DeepEqual(g, w) {
		t.Errorf("%+v: %d events, reference %d", c, len(g), len(w))
	}
	if g, w := got.inj.Report(), want.inj.Report(); !reflect.DeepEqual(g, w) {
		t.Errorf("%+v: fault report %+v, reference %+v", c, g, w)
	}
}

// sramOp encodes one fuzz op: kind, arrival gap index (0-31; the gap is
// gap²·5 ms), start block (0-63) plus quarter-block offset, and size in
// eighths of a block (1-256; a delete's is one less).
func sramOp(kind, gap, block, quarter, eighths int) []byte {
	return []byte{byte(gap<<3 | kind), byte(quarter<<6 | block), byte(eighths - 1)}
}

// sramSeeds mirrors the scenarios of the unit tests in this package, all
// on 1 KB blocks (header byte 1 = 1<<5 | capBlocks-1).
func sramSeeds() [][]byte {
	seed := func(variant, capBlocks, serviceMs int, ops ...[]byte) []byte {
		b := []byte{byte(variant), byte(1<<5 | (capBlocks - 1)), byte(serviceMs - 1)}
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	const kb = 8 // eighths of a 1 KB block
	var overflow, hammer, highWater, belowHigh, coalesce []byte
	for i := range 5 {
		overflow = append(overflow, sramOp(opWrite, 0, i, 0, kb)...)
	}
	for i := range 8 {
		hammer = append(hammer, sramOp(opWrite, 0, i, 0, kb)...)
	}
	for i := range 3 {
		highWater = append(highWater, sramOp(opWrite, 14, i, 0, kb)...)
	}
	for i := range 6 {
		belowHigh = append(belowHigh, sramOp(opWrite, 14, i, 0, kb)...)
	}
	for i := range 4 {
		coalesce = append(coalesce, sramOp(opWrite, 0, i, 0, kb)...)
	}
	var crashDrain []byte
	for i := range 6 {
		crashDrain = append(crashDrain, sramOp(opWrite, 0, i, 0, kb)...)
	}
	return [][]byte{
		seed(0, 32, 50, sramOp(opWrite, 0, 0, 0, kb)),                                   // small write absorbed
		seed(0, 32, 50, sramOp(opWrite, 0, 0, 0, 2*kb), sramOp(opRead, 14, 0, 0, 2*kb)), // read from buffer
		seed(0, 32, 10, sramOp(opWrite, 0, 0, 0, kb), sramOp(opRead, 14, 0, 0, 2*kb)),   // partial overlap
		seed(0, 32, 10, sramOp(opWrite, 0, 0, 0, kb), sramOp(opOversized, 0, 0, 0, kb)), // oversized bypass
		seed(0, 4, 10, overflow),
		seed(0, 2, 64, hammer),
		seed(1, 8, 5, highWater),
		seed(1, 32, 5, belowHigh),
		seed(1, 32, 5, sramOp(opWrite, 0, 0, 0, kb), sramOp(opRead, 14, 40, 0, kb)), // spin-up read drains
		seed(0, 32, 5, sramOp(opWrite, 0, 0, 0, 2*kb), sramOp(opDelete, 0, 0, 0, 2*kb+1)),
		seed(0, 16, 5, coalesce),
		seed(2, 32, 10, sramOp(opWrite, 0, 0, 0, kb), sramOp(opWrite, 0, 1, 0, kb),
			sramOp(opWrite, 0, 2, 0, kb), sramOp(opCrash, 14, 0, 0, 1)), // recovery replay
		seed(3, 8, 64, append(crashDrain, sramOp(opCrash, 0, 0, 0, 1)...)), // crash mid-drain
		seed(3, 8, 20, sramOp(opWrite, 0, 5, 2, 20), sramOp(opWrite, 0, 1, 1, 9),
			sramOp(opRead, 1, 5, 0, 8), sramOp(opIdle, 31, 0, 0, 1), sramOp(opRead, 3, 0, 0, 256)),
	}
}
