package sram

import (
	"fmt"
	"sort"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// refBuffer is the original map-and-sort SRAM write buffer, kept only as
// the oracle FuzzBufferEquivalence diffs Buffer against: its dirty set is a
// hash map, copied and sorted before every flush. It must stay observably
// identical to Buffer — same device requests in the same order, completion
// times, counters, events and energy. Do not optimize this type; its value
// is being the slow, obviously-correct path.
type refBuffer struct {
	params    device.MemoryParams
	size      units.Bytes
	blockSize units.Bytes
	capBlocks int
	inner     device.Device
	meter     *energy.Meter

	dirty       map[int64]struct{}
	drainDoneAt units.Time
	lastUpdate  units.Time

	flushes       int64
	overflowStall units.Time
	stalledWrites int64

	sc           *obs.Scope
	evName       string
	cFlushes     *obs.Counter
	cFlushedBlks *obs.Counter
	cStalls      *obs.Counter

	inj *fault.Injector
}

// newRef builds a reference buffer with the construction rules of New and
// the effect of WithScope(sc) and WithFaults(inj); both may be nil.
func newRef(params device.MemoryParams, size, blockSize units.Bytes, inner device.Device, sc *obs.Scope, inj *fault.Injector) (*refBuffer, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sram: block size must be positive")
	}
	if size < blockSize {
		return nil, fmt.Errorf("sram: buffer size %v below one %v block", size, blockSize)
	}
	return &refBuffer{
		params:       params,
		size:         size,
		blockSize:    blockSize,
		capBlocks:    int(size / blockSize),
		inner:        inner,
		meter:        energy.NewMeter(),
		dirty:        make(map[int64]struct{}),
		sc:           sc,
		evName:       fmt.Sprintf("%s+sram%v", inner.Name(), size),
		cFlushes:     sc.Counter("sram.flushes"),
		cFlushedBlks: sc.Counter("sram.flushed_blocks"),
		cStalls:      sc.Counter("sram.stalled_writes"),
		inj:          inj,
	}, nil
}

func (b *refBuffer) Name() string              { return b.evName }
func (b *refBuffer) Meter() *energy.Meter      { return b.meter }
func (b *refBuffer) Flushes() int64            { return b.flushes }
func (b *refBuffer) StalledWrites() int64      { return b.stalledWrites }
func (b *refBuffer) OverflowStall() units.Time { return b.overflowStall }

func (b *refBuffer) BufferedBytes() units.Bytes {
	return units.Bytes(len(b.dirty)) * b.blockSize
}

func (b *refBuffer) Idle(now units.Time) {
	b.accrueStandby(now)
	b.inner.Idle(now)
}

func (b *refBuffer) Finish(now units.Time) {
	b.accrueStandby(now)
	b.inner.Finish(now)
}

func (b *refBuffer) Access(req device.Request) units.Time {
	switch req.Op {
	case trace.Delete:
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	case trace.Read:
		return b.read(req)
	case trace.Write:
		return b.write(req)
	default:
		panic(fmt.Sprintf("sram: unknown op %v", req.Op))
	}
}

// read serves fully-buffered reads from SRAM; otherwise it flushes any
// overlapping dirty blocks (the device copy must be current before the
// device services the read) and forwards to the device. A read that forced
// a spin-up drains the rest of the buffer afterwards, off the critical
// path, while the platters turn.
func (b *refBuffer) read(req device.Request) units.Time {
	first, last := b.blockRange(req.Addr, req.Size)
	allBuffered := len(b.dirty) > 0
	anyBuffered := false
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; ok {
			anyBuffered = true
		} else {
			allBuffered = false
		}
	}
	if allBuffered {
		return req.Time + b.accessTime(req.Size)
	}
	start := req.Time
	if anyBuffered {
		start = b.flushRange(start, first, last)
	}
	wasSpinning := true
	if ss, ok := b.inner.(spinStater); ok {
		wasSpinning = ss.Spinning(start)
	}
	req.Time = start
	completion := b.inner.Access(req)
	if !wasSpinning && len(b.dirty) > 0 {
		b.drain(completion)
	}
	return completion
}

// write buffers the data, draining in the background per the deferred
// spin-up policy; writes larger than the whole buffer bypass it.
func (b *refBuffer) write(req device.Request) units.Time {
	if req.Size > b.size {
		// Oversized write: drop overlapping buffered blocks (superseded)
		// and write through.
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	}
	first, last := b.blockRange(req.Addr, req.Size)
	newBlocks := 0
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; !ok {
			newBlocks++
		}
	}
	start := req.Time
	if len(b.dirty)+newBlocks > b.capBlocks {
		if b.drainDoneAt <= start {
			// Full with no drain in flight: kick one off in the background;
			// the freed space is available immediately in model state.
			b.drain(start)
		} else {
			// Full while a drain is already running (writes arriving
			// faster than the device absorbs them): the write must wait.
			b.overflowStall += b.drainDoneAt - start
			b.stalledWrites++
			b.cStalls.Inc()
			if b.sc.Tracing() {
				b.sc.Emit(obs.Event{T: int64(start), Kind: obs.EvSRAMStall, Dev: b.evName,
					Dur: int64(b.drainDoneAt - start)})
			}
			start = b.drainDoneAt
		}
	}
	for blk := first; blk <= last; blk++ {
		b.dirty[blk] = struct{}{}
	}
	completion := start + b.accessTime(req.Size)

	// High-water background drain: once the buffer is half full, spin the
	// device up (if needed) and drain without delaying the host. Runs of
	// writes smaller than the high-water mark still complete without ever
	// waking a sleeping disk — the deferred spin-up benefit.
	if len(b.dirty) >= int(highWaterFraction*float64(b.capBlocks)) && b.drainDoneAt <= completion {
		b.drain(completion)
	}
	return completion
}

// drain writes the whole buffer back in the background starting at now.
// The buffer empties immediately in model state (new writes can land) while
// the device stays busy until drainDoneAt. Returns the completion time of
// the first flushed extent (when the first freed space is truly available).
func (b *refBuffer) drain(now units.Time) units.Time {
	blocks := make([]int64, 0, len(b.dirty))
	for blk := range b.dirty {
		blocks = append(blocks, blk)
	}
	firstDone := b.flushBlocks(now, blocks)
	return firstDone
}

// flushRange writes back buffered blocks overlapping [first, last],
// returning the completion time.
func (b *refBuffer) flushRange(now units.Time, first, last int64) units.Time {
	var blocks []int64
	for blk := first; blk <= last; blk++ {
		if _, ok := b.dirty[blk]; ok {
			blocks = append(blocks, blk)
		}
	}
	return b.flushBlocks(now, blocks)
}

// flushBlocks writes the given buffered blocks to the device as coalesced
// extents and removes them from the buffer. It returns the completion time
// of the first extent; the completion of the whole flush is recorded in
// drainDoneAt.
func (b *refBuffer) flushBlocks(now units.Time, blocks []int64) units.Time {
	if len(blocks) == 0 {
		return now
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	write := b.inner.Access
	if bg, ok := b.inner.(backgrounder); ok {
		write = bg.Background
	}
	completion := now
	var firstDone units.Time
	runStart := blocks[0]
	runLen := int64(1)
	emit := func() {
		completion = write(device.Request{
			Time: completion,
			Op:   trace.Write,
			File: flushFile,
			Addr: units.Bytes(runStart) * b.blockSize,
			Size: units.Bytes(runLen) * b.blockSize,
		})
		if firstDone == 0 {
			firstDone = completion
		}
	}
	for _, blk := range blocks[1:] {
		if blk == runStart+runLen {
			runLen++
			continue
		}
		emit()
		runStart, runLen = blk, 1
	}
	emit()
	for _, blk := range blocks {
		delete(b.dirty, blk)
	}
	b.flushes++
	b.cFlushes.Inc()
	b.cFlushedBlks.Add(int64(len(blocks)))
	if b.sc.Tracing() {
		b.sc.Emit(obs.Event{T: int64(now), Kind: obs.EvSRAMFlush, Dev: b.evName,
			Size: int64(units.Bytes(len(blocks)) * b.blockSize), Dur: int64(completion - now)})
	}
	if completion > b.drainDoneAt {
		b.drainDoneAt = completion
	}
	return firstDone
}

// drop removes buffered blocks overlapping [addr, addr+size) without
// writing them back (deletion or supersession).
func (b *refBuffer) drop(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	first, last := b.blockRange(addr, size)
	for blk := first; blk <= last; blk++ {
		delete(b.dirty, blk)
	}
}

// accessTime charges active energy for an SRAM transfer and returns its
// duration.
func (b *refBuffer) accessTime(size units.Bytes) units.Time {
	t := b.params.AccessTime(size)
	b.meter.AccrueSlot(energy.SlotActive, b.params.ActiveW, t)
	return t
}

func (b *refBuffer) accrueStandby(now units.Time) {
	if now <= b.lastUpdate {
		return
	}
	b.meter.AccrueSlot(energy.SlotStandby, b.params.StandbyWPerMB*b.size.MBytes(), now-b.lastUpdate)
	b.lastUpdate = now
}

func (b *refBuffer) blockRange(addr, size units.Bytes) (first, last int64) {
	return int64(addr / b.blockSize), int64((addr + size - 1) / b.blockSize)
}

// Crash implements device.Crasher. The SRAM is battery-backed, so the dirty
// set survives; only the in-flight drain's timing state is discarded (the
// blocks a drain removes from the dirty set have already been applied to the
// wrapped device's model state, so nothing acknowledged is lost). The crash
// propagates to the wrapped device.
func (b *refBuffer) Crash(at units.Time) {
	b.accrueStandby(at)
	if b.drainDoneAt > at {
		b.drainDoneAt = at
	}
	if cr, ok := b.inner.(device.Crasher); ok {
		cr.Crash(at)
	}
}

// Recover implements device.Crasher: after the wrapped device recovers, the
// surviving dirty blocks are replayed to it — the battery-backed guarantee
// that makes buffering synchronous writes safe (§5.5). Returns when the
// replay completes; the buffer is empty afterwards.
func (b *refBuffer) Recover(at units.Time) units.Time {
	done := at
	if cr, ok := b.inner.(device.Crasher); ok {
		done = cr.Recover(at)
	}
	if len(b.dirty) == 0 {
		return done
	}
	blocks := int64(len(b.dirty))
	b.drain(done)
	if b.drainDoneAt > done {
		done = b.drainDoneAt
	}
	b.inj.RecordReplay(b.evName, blocks, at, done-at)
	if len(b.dirty) != 0 {
		b.inj.Violatef("sram %s: %d dirty blocks remain after recovery replay", b.evName, len(b.dirty))
	}
	return done
}
