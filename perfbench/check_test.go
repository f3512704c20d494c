package main

import (
	"math"
	"testing"
	"time"
)

// dosCardUnit is a small card-sweep cell with its expected Result.
func dosCardUnit(t *testing.T) *unit {
	t.Helper()
	p, _, err := generate("dos", 1, newSpanLog(false), -1)
	if err != nil {
		t.Fatal(err)
	}
	u := replayUnit("dos/u0.95/greedy", "card", cardConfig("dos", p, 0.95, "greedy"))
	if err := u.expect(); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestMatchingResultPasses(t *testing.T) {
	u := dosCardUnit(t)
	st := closedLoop([]*unit{u}, time.Millisecond, newSpanLog(false))
	if st.attempted == 0 || st.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", st.attempted, st.failed, st.firstFailure)
	}
}

// A Result that differs from the reference in any field is a failed run.
func TestCorruptedResultIsAFailedRun(t *testing.T) {
	for name, corrupt := range map[string]func(u *unit){
		"copied blocks": func(u *unit) { u.want.CopiedBlocks++ },
		"last bit of energy": func(u *unit) {
			v := u.want.EnergyByComponent["storage"]
			u.want.EnergyByComponent["storage"] = math.Nextafter(v, math.Inf(1))
		},
		"histogram": func(u *unit) { u.want.WriteHist.Add(1) },
	} {
		t.Run(name, func(t *testing.T) {
			u := dosCardUnit(t)
			want := *u.want
			want.EnergyByComponent = map[string]float64{}
			for k, v := range u.want.EnergyByComponent {
				want.EnergyByComponent[k] = v
			}
			u.want = &want
			corrupt(u)
			st := closedLoop([]*unit{u}, time.Millisecond, newSpanLog(false))
			if st.failed != st.attempted || st.failed == 0 {
				t.Fatalf("attempted %d, failed %d: corrupted expectation not caught", st.attempted, st.failed)
			}
		})
	}
}

func TestCorruptedEventStreamIsAFailedRun(t *testing.T) {
	in, err := setupEventsReport(1, newSpanLog(false))
	if err != nil {
		t.Fatal(err)
	}
	u := in.units[2] // dos at 80% of the first sub-seed
	if err := u.expect(); err != nil {
		t.Fatal(err)
	}
	if err := u.exec(newSpanLog(false), -1, 0); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	u.wantReport[0] ^= 1
	if err := u.exec(newSpanLog(false), -1, 0); err == nil {
		t.Fatal("corrupted report digest not caught")
	}
}

func TestFleetReportDigestChecked(t *testing.T) {
	in, err := setupFleetGrid(1, newSpanLog(false))
	if err != nil {
		t.Fatal(err)
	}
	u := in.units[0]
	if err := u.expect(); err != nil {
		t.Fatal(err)
	}
	if err := u.exec(newSpanLog(false), -1, 0); err != nil {
		t.Fatalf("clean job failed: %v", err)
	}
	u.fleet.want[0] ^= 1
	if err := u.exec(newSpanLog(false), -1, 0); err == nil {
		t.Fatal("corrupted fleet digest not caught")
	}
}
