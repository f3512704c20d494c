package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// FuzzSpec decodes hostile POST /jobs bodies the way the handler does and
// checks what validate accepts: the grid total is replicas × the product of
// the axis lengths and within maxRuns, and for small grids every cell
// builds a core.Config that passes core validation, so an accepted job
// never fails a run on a knob the submit could have rejected.
func FuzzSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"devices":["cu140","kh","sdp10","sdp5","intel","intel2+"],"source":"datasheet"}`,
		`{"devices":["intel","sdp5"],"cleaning":["greedy","cost-benefit","fifo"],"utilizations":[0.4,0.99]}`,
		`{"traces":["mac","hp"],"dram_kb":[-1,0,512],"sram_kb":[-1,0,32],"spindown_s":[0,1,30]}`,
		`{"fault_plans":[{"read_error_rate":0.01,"max_retries":3},{"power_fail_at_us":[1000]}],"replicas":3}`,
		`{"cleaning":["bogus"]}`,
		`{"dram_kb":[-5]}`,
		`{"sram_kb":[1099511627776]}`,
		`{"fault_plans":[{"die_at_us":5}]}`,
		`{"spindown_s":[1e300],"sample_every_s":1e300}`,
		`{"replicas":1000000,"devices":["cu140","intel"]}`,
		`{"devices":["cu140"],"source":"measured","sample_every_s":0.5,"writeback":true,"synth_ops":10}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&s) != nil {
			return
		}
		v, err := validate(s)
		if err != nil {
			return
		}
		d := v.spec
		// float64 holds every in-range total exactly, and an overflowing
		// product still compares greater than maxRuns.
		want := float64(d.Replicas) * float64(max(len(v.plans), 1))
		for _, n := range []int{len(d.Traces), len(d.Devices), len(d.Utilizations),
			len(d.Cleaning), len(d.DRAMKB), len(d.SRAMKB), len(d.SpinDownS)} {
			want *= float64(n)
		}
		if v.total > maxRuns || float64(v.total) != want {
			t.Fatalf("total %d, want %g (cap %d)", v.total, want, maxRuns)
		}
		if v.total > 256 {
			return
		}
		ej := v.materialize()
		if len(ej.runs) != v.total {
			t.Fatalf("materialized %d runs, want %d", len(ej.runs), v.total)
		}
		for _, rs := range ej.runs {
			tr := &trace.Trace{Name: rs.Trace, BlockSize: units.KB,
				Records: []trace.Record{{Op: trace.Write, Size: units.KB}}}
			cfg, err := ej.buildConfig(rs, tr, nil)
			if err == nil {
				err = cfg.Validate()
			}
			if err != nil {
				t.Fatalf("run %d (%+v): %v", rs.Index, rs, err)
			}
		}
	})
}
