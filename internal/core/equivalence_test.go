package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// plansIdentical compares two compiled plans entry by entry — summaries
// (peers, sizes, spans, fused schedule), schedule stats, and the
// self-transfer entries the summary's peer lists exclude.
func plansIdentical(t *testing.T, label string, want, got *Plan) {
	t.Helper()
	wj, err := json.Marshal(want.Summary())
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Errorf("%s: plan summary diverges from brute force\nbrute:   %s\nindexed: %s", label, wj, gj)
		return
	}
	if want.Stats() != got.Stats() {
		t.Errorf("%s: schedule stats diverge: brute %+v, indexed %+v", label, want.Stats(), got.Stats())
	}
	for r := 0; r < want.rounds; r++ {
		rank := want.rank
		wst, wss := want.sendE.at(r, rank)
		gst, gss := got.sendE.at(r, rank)
		wrt, wrs := want.recvE.at(r, rank)
		grt, grs := got.recvE.at(r, rank)
		if w, g := wst.PackedSize(), gst.PackedSize(); w != g {
			t.Errorf("%s: round %d self-send size %d != brute %d", label, r, g, w)
		}
		if w, g := wrt.PackedSize(), grt.PackedSize(); w != g {
			t.Errorf("%s: round %d self-recv size %d != brute %d", label, r, g, w)
		}
		if w, g := wss, gss; w != g {
			t.Errorf("%s: round %d self-send span %+v != brute %+v", label, r, g, w)
		}
		if w, g := wrs, grs; w != g {
			t.Errorf("%s: round %d self-recv span %+v != brute %+v", label, r, g, w)
		}
	}
}

// TestCompilerEquivalenceGolden proves the indexed compiler is
// plan-preserving on the golden geometries: for every rank of every
// golden case, serial and parallel indexed compiles must match the
// brute-force reference exactly.
func TestCompilerEquivalenceGolden(t *testing.T) {
	pars := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			for rank := range gc.chunks {
				brute, err := compilePlanBrute(rank, gc.elemSize, gc.chunks, gc.needs)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range pars {
					indexed, err := compilePlan(rank, gc.elemSize, gc.chunks, gc.needs, par)
					if err != nil {
						t.Fatal(err)
					}
					plansIdentical(t, gc.name, brute, indexed)
				}
			}
		})
	}
}

// TestCompilerEquivalenceDegenerate exercises the shapes the index must
// not mishandle: ranks owning nothing, empty chunks, and needs entirely
// outside the owned domain.
func TestCompilerEquivalenceDegenerate(t *testing.T) {
	gc := goldenCases()[0]
	chunks := append([][]grid.Box{}, gc.chunks...)
	chunks[1] = nil // a rank with no data
	needs := append([]grid.Box{}, gc.needs...)
	needs[2] = grid.MustBox([]int{1000}, []int{16}) // a need nothing covers
	for rank := range chunks {
		brute, err := compilePlanBrute(rank, gc.elemSize, chunks, needs)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := compilePlan(rank, gc.elemSize, chunks, needs, 2)
		if err != nil {
			t.Fatal(err)
		}
		plansIdentical(t, "degenerate", brute, indexed)
	}
}

// at returns round r's entry for peer, or the Empty sentinel when the
// pair exchanges nothing. Peers are sorted within a round, so the lookup
// is a binary search over that round's few entries.
func (e *planEntries) at(r, peer int) (datatype.Type, contigSpan) {
	lo, hi := e.off[r], e.off[r+1]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.peers[mid] < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < e.off[r+1] && e.peers[lo] == peer {
		return e.types[lo], e.spans[lo]
	}
	return datatype.Empty{}, contigSpan{}
}
