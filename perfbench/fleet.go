package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
)

// fleetPlans is the fault axis: a plan that injects nothing, and transient
// read/write errors retried with backoff.
var fleetPlans = []json.RawMessage{
	json.RawMessage(`{}`),
	json.RawMessage(`{"read_error_rate":0.002,"write_error_rate":0.002,"max_retries":3,"backoff_us":500}`),
}

// fleetSpec is the fleet-grid job: {dos, synth} × {cu140, sdp5, intel} ×
// utilization × {no faults, transient errors} × four replicas.
func fleetSpec(seed int64) fleet.Spec {
	return fleet.Spec{
		Name:         "perfbench",
		Traces:       []string{"dos", "synth"},
		Devices:      []string{"cu140", "sdp5", "intel"},
		Utilizations: []float64{0.60, 0.90},
		FaultPlans:   fleetPlans,
		SynthOps:     fleetSynthOps,
		Replicas:     4,
		Seed:         seed,
		Workers:      fleetWorkers,
	}
}

// fleetWorkers is one, as the benchmark runs on one CPU (see main): a job
// with a worker per CPU needs every CPU at once, so on a shared 2-vCPU VM
// its wall time doubled whenever the host took a vCPU away (runs_per_s
// spread 0.41 over ten seeds while its CPU-time rate spread 0.08).
const fleetWorkers = 1

// fleetSynthOps keeps one job under a second so a run holds dozens
// of jobs.
const fleetSynthOps = 4000

// fleetDigests records the fleet-grid Report digest per seed, so a change
// that alters any simulated statistic of the grid fails the check even when
// it changes the one-worker and parallel jobs alike.
//
//go:embed fleet_digests.json
var fleetDigestsJSON []byte

// fleetBench drives one in-process fleet.Service.
type fleetBench struct {
	svc  *fleet.Service
	reg  *obs.Registry
	spec fleet.Spec
	seed int64
	want [32]byte
	// wantReport is the warm-up job's Report, whose simulated counts the
	// traced run reports per pass.
	wantReport *fleet.Report

	// Workers-busy samples from traced jobs, for fleet.worker_busy_frac.
	busySum, busyN float64
}

func setupFleetGrid(seed int64, sp *spanLog) (*inputs, error) {
	root := sp.begin("setup", -1, -1)
	defer sp.end(root)
	reg := obs.NewRegistry()
	f := &fleetBench{svc: fleet.NewService(reg), reg: reg, spec: fleetSpec(seed), seed: seed}
	// The warm-up job is the set-up: a cold first job is much slower than a
	// warm one, so timing starts only after it.
	id := sp.begin("fleet.job", root, -1)
	rep, err := f.job(f.spec.Workers, false)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	d, err := jsonDigest(rep)
	if err != nil {
		return nil, err
	}
	f.wantReport = rep
	u := &unit{name: "fleet-grid", shape: "fleet", records: rep.MeasuredOps, runs: int64(rep.Runs), fleet: f}
	return &inputs{units: []*unit{u}, digest: d, fleet: f}, nil
}

// job submits the grid with the given worker count and waits for it.
// With sample set it also samples the job's workers-busy gauge.
func (f *fleetBench) job(workers int, sample bool) (*fleet.Report, error) {
	spec := f.spec
	spec.Workers = workers
	j, err := f.svc.Submit(spec)
	if err != nil {
		return nil, err
	}
	if sample {
		busy := f.reg.Gauge("fleet.job." + j.ID + ".workers_busy")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					f.busySum += busy.Value() / float64(workers)
					f.busyN++
				}
			}
		}()
		<-j.Finished()
		close(stop)
		wg.Wait()
	} else {
		<-j.Finished()
	}
	st := j.Status()
	if st.Failed > 0 {
		return nil, fmt.Errorf("fleet job %s: %d of %d runs failed: %v", j.ID, st.Failed, st.Total, st.Errors)
	}
	return st.Report, nil
}

// expect sets the expected Report digest: the recorded one for this seed
// when there is one, else that of a job with two workers (the merge order
// makes the Report independent of the worker count).
func (f *fleetBench) expect() error {
	var recorded map[string]string
	if err := json.Unmarshal(fleetDigestsJSON, &recorded); err != nil {
		return fmt.Errorf("fleet_digests.json: %w", err)
	}
	if h, ok := recorded[strconv.FormatInt(f.seed, 10)]; ok {
		b, err := hex.DecodeString(h)
		if err != nil || len(b) != len(f.want) {
			return fmt.Errorf("fleet_digests.json: bad digest for seed %d", f.seed)
		}
		copy(f.want[:], b)
		return nil
	}
	rep, err := f.job(2, false)
	if err != nil {
		return err
	}
	f.want, err = jsonDigest(rep)
	return err
}

func (f *fleetBench) exec(sp *spanLog, parent, run int) error {
	id := sp.begin("fleet.job", parent, run)
	rep, err := f.job(f.spec.Workers, sp.on)
	sp.end(id)
	if err != nil {
		return err
	}
	d, err := jsonDigest(rep)
	if err != nil {
		return err
	}
	if d != f.want {
		return fmt.Errorf("fleet report digest %x, want %x", d[:8], f.want[:8])
	}
	return nil
}
