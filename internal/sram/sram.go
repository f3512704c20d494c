// Package sram models a battery-backed SRAM write buffer in front of a
// storage device (§2, §5.5): small synchronous writes complete at SRAM
// speed and are held while the device is unavailable (a spun-down disk
// stays spun down), draining in the background once the device is active
// anyway or the buffer fills — the Quantum Daytona's "deferred spin-up"
// policy.
//
// Writes to SRAM are assumed recoverable after a crash, so buffering a
// synchronous write is safe (§5.5). A write waits only when the buffer is
// full and the drain has not finished ("if writes are large or are
// clustered in time, such that the write buffer frequently fills, then many
// writes will be delayed as they wait for the disk").
//
// The buffer wraps any device.Device, which also supports the paper's
// suggested extension of putting SRAM in front of flash (§5.1, §7).
package sram

import (
	"fmt"
	"slices"

	"mobilestorage/internal/device"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// flushFile is the file ID used for flush writes. It is outside any trace's
// file ID space, so the device charges a full seek for the first flush
// write of a batch.
const flushFile = ^uint32(0)

// highWaterFraction is the fill level at which the buffer starts a
// background drain. Runs of writes below this mark never wake a sleeping
// disk at all (the deferred spin-up benefit).
const highWaterFraction = 0.25

// spinStater is implemented by devices with a spin state (the magnetic
// disk); the buffer uses it to decide when draining is cheap.
type spinStater interface {
	Spinning(now units.Time) bool
}

// backgrounder is implemented by devices that can absorb writes off the
// host's critical path (the magnetic disk services host requests ahead of
// writeback). Drains prefer it; devices without it are drained through the
// normal access path.
type backgrounder interface {
	Background(req device.Request) units.Time
}

// Buffer is a battery-backed SRAM write buffer wrapping a storage device.
type Buffer struct {
	params    device.MemoryParams
	size      units.Bytes
	blockSize units.Bytes
	capBlocks int
	inner     device.Device
	meter     *energy.Meter

	// dirty holds the buffered block indices in ascending order, so the
	// buffered blocks of any block range are one contiguous sub-slice and a
	// drain flushes them in order without sorting.
	dirty []int64
	// drainDoneAt is when the in-flight background drain completes; writes
	// that find the buffer full wait for it.
	drainDoneAt units.Time

	lastUpdate units.Time

	flushes       int64
	overflowStall units.Time
	stalledWrites int64

	// Observability (nil-safe no-ops without a scope).
	sc           *obs.Scope
	evName       string
	cFlushes     *obs.Counter
	cFlushedBlks *obs.Counter
	cStalls      *obs.Counter

	// inj records recovery activity after injected power failures (nil when
	// fault injection is off).
	inj *fault.Injector
}

// Option configures a Buffer.
type Option func(*Buffer)

// WithScope attaches an observability scope: flush/stall counters and
// events. A nil scope is free.
func WithScope(sc *obs.Scope) Option {
	return func(b *Buffer) {
		b.sc = sc
		b.cFlushes = sc.Counter("sram.flushes")
		b.cFlushedBlks = sc.Counter("sram.flushed_blocks")
		b.cStalls = sc.Counter("sram.stalled_writes")
	}
}

// WithFaults attaches a fault injector so power-failure recovery can record
// the blocks it replays from the battery-backed buffer. A nil injector is
// free.
func WithFaults(in *fault.Injector) Option {
	return func(b *Buffer) { b.inj = in }
}

// New wraps inner with an SRAM write buffer of the given size.
func New(params device.MemoryParams, size, blockSize units.Bytes, inner device.Device, opts ...Option) (*Buffer, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sram: block size must be positive")
	}
	if size < blockSize {
		return nil, fmt.Errorf("sram: buffer size %v below one %v block", size, blockSize)
	}
	b := &Buffer{
		params:    params,
		size:      size,
		blockSize: blockSize,
		capBlocks: int(size / blockSize),
		inner:     inner,
		meter:     energy.NewMeter(),
	}
	for _, o := range opts {
		o(b)
	}
	b.evName = b.Name()
	return b, nil
}

// Name implements device.Device.
func (b *Buffer) Name() string {
	return fmt.Sprintf("%s+sram%v", b.inner.Name(), b.size)
}

// Meter implements device.Device and returns the SRAM's own meter; the
// wrapped device keeps its own accounting.
func (b *Buffer) Meter() *energy.Meter { return b.meter }

// Inner returns the wrapped device.
func (b *Buffer) Inner() device.Device { return b.inner }

// Flushes returns how many drains were performed.
func (b *Buffer) Flushes() int64 { return b.flushes }

// StalledWrites returns how many writes waited for a drain.
func (b *Buffer) StalledWrites() int64 { return b.stalledWrites }

// OverflowStall returns the cumulative time writes spent waiting for space.
func (b *Buffer) OverflowStall() units.Time { return b.overflowStall }

// BufferedBytes returns the amount of dirty data currently held.
func (b *Buffer) BufferedBytes() units.Bytes {
	return units.Bytes(len(b.dirty)) * b.blockSize
}

// Idle implements device.Device.
func (b *Buffer) Idle(now units.Time) {
	b.accrueStandby(now)
	b.inner.Idle(now)
}

// Finish implements device.Device. Buffered data stays in SRAM (it is
// battery-backed); spinning the disk up at the end of the simulation just
// to flush would distort the energy accounting.
func (b *Buffer) Finish(now units.Time) {
	b.accrueStandby(now)
	b.inner.Finish(now)
}

// Access implements device.Device.
func (b *Buffer) Access(req device.Request) units.Time {
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
func (b *Buffer) read(req device.Request) units.Time {
	first, last := b.blockRange(req.Addr, req.Size)
	lo, hi := b.span(first, last)
	if hi > lo && int64(hi-lo) == last-first+1 {
		return req.Time + b.accessTime(req.Size)
	}
	start := req.Time
	if hi > lo {
		start = b.flushRange(start, lo, hi)
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
func (b *Buffer) write(req device.Request) units.Time {
	if req.Size > b.size {
		// Oversized write: drop overlapping buffered blocks (superseded)
		// and write through.
		b.drop(req.Addr, req.Size)
		return b.inner.Access(req)
	}
	first, last := b.blockRange(req.Addr, req.Size)
	lo, hi := b.span(first, last)
	newBlocks := int(last-first+1) - (hi - lo)
	start := req.Time
	if len(b.dirty)+newBlocks > b.capBlocks {
		if b.drainDoneAt <= start {
			// Full with no drain in flight: kick one off in the background;
			// the freed space is available immediately in model state.
			b.drain(start)
			lo, hi = 0, 0
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
	b.insert(lo, hi, first, last)
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
func (b *Buffer) drain(now units.Time) units.Time {
	firstDone := b.flushBlocks(now, b.dirty)
	b.dirty = b.dirty[:0]
	return firstDone
}

// flushRange writes back the buffered blocks dirty[lo:hi] and removes them
// from the buffer, returning the completion time.
func (b *Buffer) flushRange(now units.Time, lo, hi int) units.Time {
	done := b.flushBlocks(now, b.dirty[lo:hi])
	b.dirty = slices.Delete(b.dirty, lo, hi)
	return done
}

// flushBlocks writes the given ascending buffered blocks to the device as
// coalesced extents; the caller removes them from the buffer. It returns
// the completion time of the first extent; the completion of the whole
// flush is recorded in drainDoneAt.
func (b *Buffer) flushBlocks(now units.Time, blocks []int64) units.Time {
	if len(blocks) == 0 {
		return now
	}
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
func (b *Buffer) drop(addr, size units.Bytes) {
	if size <= 0 {
		return
	}
	lo, hi := b.span(b.blockRange(addr, size))
	b.dirty = slices.Delete(b.dirty, lo, hi)
}

// span returns the bounds of the buffered blocks in [first, last]: they are
// dirty[lo:hi].
func (b *Buffer) span(first, last int64) (lo, hi int) {
	lo, _ = slices.BinarySearch(b.dirty, first)
	hi, _ = slices.BinarySearch(b.dirty[lo:], last+1)
	return lo, lo + hi
}

// insert marks every block of [first, last] buffered, given that the ones
// already buffered are dirty[lo:hi]: it opens a gap for the missing blocks
// in one shift and writes the whole range into it.
func (b *Buffer) insert(lo, hi int, first, last int64) {
	n := len(b.dirty)
	grow := int(last-first+1) - (hi - lo)
	b.dirty = slices.Grow(b.dirty, grow)[:n+grow]
	copy(b.dirty[hi+grow:], b.dirty[hi:n])
	for i := lo; i < hi+grow; i++ {
		b.dirty[i] = first + int64(i-lo)
	}
}

// accessTime charges active energy for an SRAM transfer and returns its
// duration.
func (b *Buffer) accessTime(size units.Bytes) units.Time {
	t := b.params.AccessTime(size)
	b.meter.AccrueSlot(energy.SlotActive, b.params.ActiveW, t)
	return t
}

func (b *Buffer) accrueStandby(now units.Time) {
	if now <= b.lastUpdate {
		return
	}
	b.meter.AccrueSlot(energy.SlotStandby, b.params.StandbyWPerMB*b.size.MBytes(), now-b.lastUpdate)
	b.lastUpdate = now
}

func (b *Buffer) blockRange(addr, size units.Bytes) (first, last int64) {
	return int64(addr / b.blockSize), int64((addr + size - 1) / b.blockSize)
}

// Crash implements device.Crasher. The SRAM is battery-backed, so the dirty
// set survives; only the in-flight drain's timing state is discarded (the
// blocks a drain removes from the dirty set have already been applied to the
// wrapped device's model state, so nothing acknowledged is lost). The crash
// propagates to the wrapped device.
func (b *Buffer) Crash(at units.Time) {
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
func (b *Buffer) Recover(at units.Time) units.Time {
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

var (
	_ device.Device  = (*Buffer)(nil)
	_ device.Crasher = (*Buffer)(nil)
)
