package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// TestMain lets a test run this binary as the storagesim command: with
// STORAGESIM_RUN_MAIN=1 in the environment the process runs main instead
// of the tests, so the exit status and output are the command's own.
func TestMain(m *testing.M) {
	if os.Getenv("STORAGESIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs storagesim with args and returns its combined output and
// exit code.
func runCommand(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STORAGESIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestArrayRejectsRateOnlySystemPlan pins that -faults under -array is not
// silently dropped: an array reads only power_fail_at_us from the system
// plan, so a transient-error plan fails validation, while a power-fail-only
// plan still runs.
func TestArrayRejectsRateOnlySystemPlan(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rates := write("er.json", `{"read_error_rate":0.2,"write_error_rate":0.2,"max_retries":3}`)
	out, code := runCommand(t, "-trace", "dos", "-faults", rates, "-array", "mirror:2xflashcard")
	if code == 0 {
		t.Fatalf("rate-only system plan under -array exited 0:\n%s", out)
	}
	if !strings.Contains(out, "read_error_rate") || !strings.Contains(out, "MemberFaults") {
		t.Errorf("error does not name the field and MemberFaults:\n%s", out)
	}

	power := write("pf.json", `{"power_fail_at_us":[1000000]}`)
	if out, code := runCommand(t, "-trace", "dos", "-faults", power, "-array", "mirror:2xflashcard"); code != 0 {
		t.Fatalf("power-fail-only plan under -array exited %d:\n%s", code, out)
	}
}

// TestFlagAudit pins that every result-affecting flag is either read or
// rejected: on each stack, setting the flag to a value other than the one
// the run would otherwise use must change the (verbose) output or fail the
// command. Output and sink flags (-v -metrics -events -oplog -timeline
// -sample -serve -service -drain) are not audited.
func TestFlagAudit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	rates := write("er.json", `{"read_error_rate":0.2,"write_error_rate":0.2,"max_retries":3}`)
	members := write("members.json", `{"*":{"read_error_rate":0.2,"max_retries":3}}`)
	flags := []struct {
		name  string
		value func(stack string) []string
	}{
		{"seed", func(string) []string { return []string{"2"} }},
		{"device", func(string) []string { return []string{"kh"} }},
		{"source", func(stack string) []string {
			if stack == "sdp5" {
				return []string{"measured"} // sdp5 has datasheet numbers only
			}
			return []string{"datasheet"}
		}},
		{"dram", func(string) []string { return []string{"64"} }},
		{"sram", func(string) []string { return []string{"64"} }},
		{"spindown", func(string) []string { return []string{"1"} }},
		{"utilization", func(string) []string { return []string{"0.6"} }},
		{"capacity", func(string) []string { return []string{"64"} }},
		{"stored", func(string) []string { return []string{"40"} }},
		{"async", nil},
		{"cleaning", func(string) []string { return []string{"fifo"} }},
		{"ondemand", nil},
		{"writeback", nil},
		{"faults", func(string) []string { return []string{rates} }},
		{"fault-seed", func(string) []string { return []string{"7"} }},
		{"member-faults", func(string) []string { return []string{members} }},
		{"mix", func(string) []string { return []string{"read-heavy"} }},
	}
	for _, stack := range []string{"cu140", "sdp5", "intel", "mirror:2xflashcard"} {
		base := []string{"-v", "-trace", "dos", "-device", stack}
		if strings.Contains(stack, ":") {
			base = []string{"-v", "-trace", "dos", "-array", stack}
		}
		want, code := runCommand(t, base...)
		if code != 0 {
			t.Fatalf("%s: baseline exited %d:\n%s", stack, code, want)
		}
		for _, f := range flags {
			args := append(append([]string(nil), base...), "-"+f.name)
			if f.value != nil {
				args = append(args, f.value(stack)...)
			}
			if out, code := runCommand(t, args...); code == 0 && out == want {
				t.Errorf("%s: -%s ran and changed nothing", stack, f.name)
			}
		}
	}

	// A flag that another flag overrides is rejected as well.
	tr, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := trace.Encode(&text, tr); err != nil {
		t.Fatal(err)
	}
	traceFile := write("t.trace", text.String())
	for _, args := range [][]string{
		{"-tracefile", traceFile, "-seed", "2"},
		{"-tracefile", traceFile, "-trace", "dos"},
		{"-device", "intel", "-capacity", "64", "-utilization", "0.6"},
		{"-device", "sdp5", "-capacity", "64", "-stored", "40"},
		{"-trace", "dos", "-dram", "0", "-writeback"},
	} {
		if out, code := runCommand(t, args...); code == 0 {
			t.Errorf("%v: overridden flag accepted:\n%s", args, out)
		}
	}
}

// TestFlashSizeFlagBounds pins that -capacity and -stored reject MB
// counts whose byte size would wrap, naming the flag: 2^44+64 MB and
// -2^44+64 MB both wrap to 64 MB in int64 bytes.
func TestFlashSizeFlagBounds(t *testing.T) {
	for _, c := range []struct{ flag, mb string }{
		{"capacity", "17592186044480"},
		{"capacity", "-17592186044352"},
		{"stored", "17592186044480"},
		{"stored", "-17592186044352"},
		{"capacity", "-1"},
	} {
		out, code := runCommand(t, "-trace", "dos", "-device", "intel", "-"+c.flag, c.mb)
		if code == 0 || !strings.Contains(out, "-"+c.flag+" "+c.mb+" MB") {
			t.Errorf("-%s %s: exit %d, want an error naming the flag:\n%s", c.flag, c.mb, code, out)
		}
	}
	// The bound itself is checked without a run: a flash card that large
	// would need gigabytes of model state.
	if err := checkFlashMB("capacity", maxFlashMB); err != nil {
		t.Errorf("-capacity at the bound rejected: %v", err)
	}
	if err := checkFlashMB("capacity", maxFlashMB+1); err == nil {
		t.Error("-capacity above the bound accepted")
	}
}

func TestSelectDevice(t *testing.T) {
	cases := []struct {
		name, source string
		kind         core.StorageKind
		wantErr      bool
	}{
		{"cu140", "", core.MagneticDisk, false},
		{"cu140", "measured", core.MagneticDisk, false},
		{"cu140", "datasheet", core.MagneticDisk, false},
		{"kh", "datasheet", core.MagneticDisk, false},
		{"kh", "measured", 0, true}, // no measured kh numbers exist
		{"sdp10", "", core.FlashDisk, false},
		{"sdp5", "datasheet", core.FlashDisk, false},
		{"sdp5", "measured", 0, true},
		{"intel", "", core.FlashCard, false},
		{"intel2+", "datasheet", core.FlashCard, false},
		{"intel2+", "measured", 0, true},
		{"floppy", "", 0, true},
		{"cu140", "vibes", 0, true},
	}
	for _, c := range cases {
		var cfg core.Config
		err := fleet.SelectDevice(&cfg, c.name, c.source)
		if c.wantErr {
			if err == nil {
				t.Errorf("selectDevice(%q, %q) accepted", c.name, c.source)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectDevice(%q, %q): %v", c.name, c.source, err)
			continue
		}
		if cfg.Kind != c.kind {
			t.Errorf("selectDevice(%q): kind %v, want %v", c.name, cfg.Kind, c.kind)
		}
	}
}

func TestReadTraceBothFormats(t *testing.T) {
	tr, err := workload.Synth(workload.SynthConfig{Seed: 1, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	textPath := filepath.Join(dir, "t.trace")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	binPath := filepath.Join(dir, "t.btrace")
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, path := range []string{textPath, binPath} {
		got, err := readTrace(path)
		if err != nil {
			t.Fatalf("readTrace(%s): %v", path, err)
		}
		if len(got.Records) != len(tr.Records) {
			t.Errorf("%s: %d records, want %d", path, len(got.Records), len(tr.Records))
		}
		if got.BlockSize != 512*units.B {
			t.Errorf("%s: block size %v", path, got.BlockSize)
		}
	}

	if _, err := readTrace(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestBuildTraceIndexWorkloads covers the index-btree/index-lsm trace
// names: both engines generate a valid trace plus stats, unknown engines
// fail, and the classic names still route to the workload generator.
func TestBuildTraceIndexWorkloads(t *testing.T) {
	for _, name := range []string{"index-btree", "index-lsm"} {
		tr, st, err := buildTrace("", name, 1, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid trace: %v", name, err)
		}
		if st == nil || st.WriteAmplification() <= 1 {
			t.Fatalf("%s: stats %+v", name, st)
		}
		if tr.Name != name {
			t.Errorf("%s: trace named %q", name, tr.Name)
		}
	}
	if _, _, err := buildTrace("", "index-btrie", 1, ""); err == nil {
		t.Error("unknown index engine accepted")
	}
	if tr, st, err := buildTrace("", "synth", 1, ""); err != nil || st != nil || tr == nil {
		t.Errorf("synth: tr=%v st=%v err=%v", tr, st, err)
	}

	// The -mix flag routes through MixByName: read-heavy reshapes the index
	// trace, unknown mixes fail, and non-index traces reject a mix.
	tr, _, err := buildTrace("", "index-btree", 1, "read-heavy")
	if err != nil || tr == nil {
		t.Fatalf("read-heavy mix: tr=%v err=%v", tr, err)
	}
	if _, _, err := buildTrace("", "index-btree", 1, "write-mostly"); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, _, err := buildTrace("", "synth", 1, "read-heavy"); err == nil {
		t.Error("mix on a non-index trace accepted")
	}
}
