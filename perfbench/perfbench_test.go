package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"ddr/internal/tiff"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// inputDigest hashes every input a workload generated.
func inputDigest(t *testing.T, w workload) [32]byte {
	t.Helper()
	h := sha256.New()
	switch w := w.(type) {
	case *stackLoad:
		for z := 0; z < w.edge; z++ {
			b, err := os.ReadFile(tiff.SlicePath(w.dir, z))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	case *fftStep:
		for _, v := range w.field {
			binary.Write(h, binary.LittleEndian, v)
		}
	case *boundedStream:
		for _, frame := range w.slabs {
			for _, slab := range frame {
				h.Write(slab)
			}
		}
	default:
		t.Fatalf("no digest for %T", w)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// counts are the figures a seed must not change.
type counts struct {
	rounds, boundedSteps int
	wireBytes, selfBytes int64
	peakStaging          int64
}

// runShort generates w's inputs from seed and runs ops traced ops.
func runShort(t *testing.T, w workload, seed uint64, ops, corruptOp int) (*phase, counts, [32]byte) {
	t.Helper()
	if err := w.generate(seed, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer w.cleanup()
	digest := inputDigest(t, w)
	_, facts, ph, err := world(w, &runConfig{seconds: 60, maxOps: ops, traced: true, corruptOp: corruptOp, origin: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	for _, f := range facts {
		if len(f.stats) > 0 && c.rounds == 0 {
			for _, s := range f.stats {
				c.rounds += s.rounds
				c.wireBytes += s.wireBytes
				c.selfBytes += s.selfBytes
			}
		}
		c.boundedSteps = max(c.boundedSteps, f.boundedSteps)
	}
	for _, op := range ph.samples {
		for _, s := range op {
			c.peakStaging = max(c.peakStaging, s.peakStaging)
		}
	}
	return ph, c, digest
}

func TestCorruptedByteIsCountedAsFailure(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			ph, _, _ := runShort(t, mustWorkload(t, name), 3, 3, -1)
			if ph.tried != 3 || ph.failed != 0 {
				t.Fatalf("clean run: %d of %d ops failed (%v)", ph.failed, ph.tried, ph.firstErr)
			}
			ph, _, _ = runShort(t, mustWorkload(t, name), 3, 3, 1)
			res, err := finish(metrics{}, nil, ph.tried, ph.failed)
			if err != nil {
				t.Fatal(err)
			}
			if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 || res.Correct {
				t.Fatalf("one corrupted byte: failed_frac = %v, correct = %v", frac, res.Correct)
			}
		})
	}
}

func TestSeedFixesInputsAndCounts(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			_, c1, d1 := runShort(t, mustWorkload(t, name), 7, 1, -1)
			_, c2, d2 := runShort(t, mustWorkload(t, name), 7, 1, -1)
			_, c3, d3 := runShort(t, mustWorkload(t, name), 8, 1, -1)
			if d1 != d2 {
				t.Error("the same seed generated different inputs")
			}
			if d1 == d3 {
				t.Error("a different seed generated identical inputs")
			}
			if c1 != c2 || c1 != c3 {
				t.Errorf("counts moved with the seed: seed 7 %+v, again %+v, seed 8 %+v", c1, c2, c3)
			}
			if c1.rounds == 0 || c1.wireBytes == 0 {
				t.Errorf("no exchange counted: %+v", c1)
			}
		})
	}
}

func TestSpanBreakdownAddsUpToOpSpan(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			// Two worlds merged, as a traced run merges its rounds.
			ph, _, _ := runShort(t, mustWorkload(t, name), 5, 3, -1)
			more, _, _ := runShort(t, mustWorkload(t, name), 5, 2, -1)
			ph = ph.merge(more)
			ls, err := breakdown(ph)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls) != 5 || len(ph.samples) != 5 {
				t.Fatalf("%d ops broken down and %d sampled, want 5", len(ls), len(ph.samples))
			}
			for i, l := range ls {
				if l.otherMs < 0 || len(l.self) == 0 {
					t.Errorf("op %d: other %.3f ms, layers %v", i, l.otherMs, l.self)
				}
			}
		})
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	list := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 1, Start: 20, End: 30},
		{Name: "c", Parent: 0, Start: 50, End: 60},
	}
	if got, want := selfTimes(list), []int64{60, 20, 10, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	// A child that outruns its parent makes the tree inconsistent; the
	// breakdown must refuse it rather than report a negative remainder.
	ph := &phase{
		starts: [][]int64{{0}},
		ends:   [][]int64{{100}},
		spans: [][]span{{
			{Name: "op", Parent: -1, Start: 0, End: 100},
			{Name: "a", Parent: 0, Start: 10, End: 40},
			{Name: "b", Parent: 1, Start: 30, End: 60},
		}},
	}
	if _, err := breakdown(ph); err == nil {
		t.Fatal("breakdown accepted a child span that outruns its parent")
	}
}

func TestScalesFollowHostSpeed(t *testing.T) {
	var cal []time.Duration
	for i := 0; i < 40; i++ {
		d := calRef
		if i >= 20 {
			d = 2 * calRef // the host drops to half speed
		}
		cal = append(cal, d)
	}
	got := scales(cal)
	if got[0] != 1 || got[11] != 1 {
		t.Errorf("ops on a host at its usual speed scaled by %v and %v, want 1", got[0], got[11])
	}
	if got[28] != 0.5 || got[39] != 0.5 {
		t.Errorf("ops on a half-speed host scaled by %v and %v, want 0.5", got[28], got[39])
	}
	if got[19] <= 0.5 || got[19] >= 1 {
		t.Errorf("the op at the change scaled by %v, want between 0.5 and 1", got[19])
	}
}

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(spec.Workloads), sorted(workloadNames)},
		{"end_to_end", names(spec.EndToEnd), sorted(endToEnd)},
		{"per_layer", names(spec.PerLayer), sorted(perLayer)},
	} {
		if !reflect.DeepEqual(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json lists %v, the program reports %v", c.what, c.json, c.got)
		}
	}
}
