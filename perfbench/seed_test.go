package main

import "testing"

// Every generated trace must be a pure function of the seed: the same seed
// gives identical digests, another seed gives different ones.
func TestTracesDependOnlyOnSeed(t *testing.T) {
	names := append(append([]string(nil), fsTraces...), "index-btree", "index-lsm")
	digests := func(seed int64) map[string][32]byte {
		out := map[string][32]byte{}
		for _, n := range names {
			p, _, err := generate(n, seed, newSpanLog(false), -1)
			if err != nil {
				t.Fatal(err)
			}
			out[n] = traceDigest(p.t)
		}
		return out
	}
	a, b, c := digests(3), digests(3), digests(4)
	for _, n := range names {
		if a[n] != b[n] {
			t.Errorf("%s: seed 3 gave two different traces", n)
		}
		if a[n] == c[n] {
			t.Errorf("%s: seeds 3 and 4 gave the same trace", n)
		}
	}
}

func TestSetupDigestDependsOnlyOnSeed(t *testing.T) {
	a, err := setupDiskSweep(5, newSpanLog(false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupDiskSweep(5, newSpanLog(false))
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupDiskSweep(6, newSpanLog(false))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.digest == c.digest {
		t.Fatalf("set-up digests: seed 5 %x / %x, seed 6 %x", a.digest[:4], b.digest[:4], c.digest[:4])
	}
}
