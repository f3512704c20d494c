package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a module's public API.
// Spans of one closed-loop request share a run id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark writes them out. A
// disabled log (the untraced run) records nothing and costs one branch per
// call. It is used from one goroutine only.
type spanLog struct {
	on    bool
	t0    time.Time
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// begin opens a span and returns its id, or -1 when tracing is off.
func (l *spanLog) begin(name string, parent, run int) int {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Run: run, Name: name,
		Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if id >= 0 {
		l.spans[id].End = int64(time.Since(l.t0))
	}
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are clipped to the parent's interval
// and their union is taken, so overlapping children (concurrent work under
// one parent) are not subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of the intervals within [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv[1] <= end {
			continue
		}
		total += iv[1] - max(iv[0], end)
		end = iv[1]
	}
	return total
}

// selfSeconds sums the self time of every span with the given name.
func selfSeconds(spans []span, self []int64, name string) float64 {
	var ns int64
	for i, s := range spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return float64(ns) / 1e9
}
