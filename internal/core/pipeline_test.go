package core

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// Differential tests of the pipelined exchange engine. The ground truth
// is the same brute-force oracle the bounded sweep uses: pipelining only
// reschedules the rounds, so every (depth, mode, budget) point must stay
// byte-identical to the serial output — and, when a budget is armed, the
// measured peak staging must stay under the ceiling even with k rounds
// of receive payloads in flight.

// runPipeWorld runs one (case, mode, depth, budget) configuration and
// byte-compares every rank's output against the brute oracle. budget 0
// runs unmetered; mutate, when non-nil, runs on rank 0's descriptor
// after mapping setup. Returns the number of ranks whose output diverged
// (0 for a healthy run; planted-bug tests expect > 0).
func (bc *boundedCase) runPipeWorld(t *testing.T, mode ExchangeMode, depth, budget int,
	mutate func(*Descriptor), checkRank func(rank int, d *Descriptor) error) int {
	t.Helper()
	own := bc.ownData()
	oracle := make([][]byte, bc.nProcs)
	for r := 0; r < bc.nProcs; r++ {
		oracle[r] = bc.oracleNeed(t, r, own)
	}
	diverged := make([]bool, bc.nProcs)
	err := mpi.Launch(bc.nProcs, func(c *mpi.Comm) error {
		rank := c.Rank()
		opts := []Option{
			WithExchangeMode(mode), WithElemSize(bc.elemSize), WithPipelineDepth(depth),
		}
		if budget > 0 {
			opts = append(opts, WithMemoryBudget(budget))
		}
		d, err := NewDescriptor(bc.nProcs, bc.layout, Uint8, opts...)
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, bc.chunks[rank], bc.needs[rank]); err != nil {
			return err
		}
		if rank == 0 && mutate != nil {
			mutate(d)
		}
		out := make([]byte, bc.needs[rank].Volume()*bc.elemSize)
		for i := range out {
			out[i] = boundedSentinel
		}
		bufs := make([][]byte, len(bc.chunks[rank]))
		for i := range bufs {
			bufs[i] = append([]byte(nil), own[rank][i]...)
		}
		if err := d.ReorganizeData(c, bufs, out); err != nil {
			return err
		}
		if !bytes.Equal(out, oracle[rank]) {
			diverged[rank] = true
		}
		if checkRank != nil {
			return checkRank(rank, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, bad := range diverged {
		if bad {
			n++
		}
	}
	return n
}

// TestPipelineDifferentialSweep is the pipelined engine's acceptance
// sweep: seeded geometries × all three exchange modes × depths 1/2/4 ×
// budget tiers (none, half the single-shot footprint — which composes
// pipelining with the bounded step backend — and the one-class minimum),
// every output byte-compared against the brute oracle, the effective
// depth asserted within the configured depth, and the measured peak
// staging under the ceiling wherever one was set.
func TestPipelineDifferentialSweep(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	modes := []ExchangeMode{ModeAlltoallw, ModePointToPoint, ModePointToPointFused}
	for seed := int64(0); seed < int64(seeds); seed++ {
		bc := genBoundedCase(seed)
		for _, mode := range modes {
			fp := bc.footprint(t, mode)
			if fp == 0 {
				continue
			}
			budgets := []int{0, max(fp/2, 1<<minStagingShift), 1 << minStagingShift}
			for _, depth := range []int{1, 2, 4} {
				for _, budget := range budgets {
					name := fmt.Sprintf("seed%d/%v/depth%d/budget%d", seed, mode, depth, budget)
					t.Run(name, func(t *testing.T) {
						bad := bc.runPipeWorld(t, mode, depth, budget, nil, func(rank int, d *Descriptor) error {
							if got := d.LastPipelineDepth(); got < 1 || got > depth {
								return fmt.Errorf("rank %d: effective depth %d outside [1, %d]", rank, got, depth)
							}
							if budget > 0 {
								if peak := d.LastPeakStaging(); peak > int64(budget) {
									return fmt.Errorf("rank %d: peak staging %d exceeds budget %d", rank, peak, budget)
								}
							}
							return nil
						})
						if bad != 0 {
							t.Errorf("%s: %d ranks diverged from the brute oracle", name, bad)
						}
					})
				}
			}
		}
	}
}

// pipePlantWorld is the crafted geometry the planted-bug test needs to
// manifest deterministically: two ranks, five half-width row-pair chunks
// each (so the point-to-point exchange runs five rounds, more than the
// default depth), with needs whose overlap with every active remote
// chunk is a two-row strict sub-box — strided on both the pack and the
// unpack side, so each active round both holds its received payload
// across the pipeline window and stages its sends through the arena.
// That is exactly the collision the early-recycle perturbation needs: a
// held payload of round r freed early is drawn back out as round r+k's
// pack staging and overwritten before its unpack runs.
func pipePlantWorld() boundedCase {
	bc := boundedCase{nProcs: 2, layout: Layout2D, elemSize: 4}
	bc.chunks = make([][]grid.Box, 2)
	for i := 0; i < 5; i++ {
		bc.chunks[0] = append(bc.chunks[0], grid.Box2(0, 2*i, 4, 2))
		bc.chunks[1] = append(bc.chunks[1], grid.Box2(4, 2*i, 4, 2))
	}
	bc.needs = []grid.Box{grid.Box2(1, 2, 6, 6), grid.Box2(1, 2, 6, 6)}
	return bc
}

// TestPipelineHarnessCatchesPlantedBug proves the differential sweep has
// teeth against buffer-lifetime bugs: arming PerturbPipelineForTest —
// every round's held payloads recycled to the arena one iteration early,
// so the next round's pack staging draws them back out and overwrites
// them before the unpack batch reads them — must surface as a byte
// divergence on the perturbed rank. The same geometry runs clean first
// to prove the divergence comes from the perturbation alone.
func TestPipelineHarnessCatchesPlantedBug(t *testing.T) {
	if raceEnabled {
		t.Skip("the planted bug is a real buffer-lifetime data race; the detector fires before the divergence check can prove its teeth — make verify runs this test without -race")
	}
	bc := pipePlantWorld()
	if bad := bc.runPipeWorld(t, ModePointToPoint, 2, 0, nil, nil); bad != 0 {
		t.Fatalf("unperturbed run diverged on %d ranks; geometry is broken", bad)
	}
	bad := bc.runPipeWorld(t, ModePointToPoint, 2, 0, (*Descriptor).PerturbPipelineForTest, nil)
	if bad == 0 {
		t.Error("early-recycle perturbation produced oracle-identical output — the harness is blind to pipelined buffer-lifetime bugs")
	}
	// Depth 1 never holds a payload across an issue, so the planted bug
	// must be inert there — this pins that the bug (and the harness's
	// sensitivity) is specific to the pipelined window.
	if bad := bc.runPipeWorld(t, ModePointToPoint, 1, 0, (*Descriptor).PerturbPipelineForTest, nil); bad != 0 {
		t.Errorf("perturbation diverged %d ranks at depth 1; the serial path should never hold payloads across rounds", bad)
	}
}

// TestPipelineDepthClampedByBudget verifies the lease model's clamp: a
// budget of three single-shot footprints admits at most two rounds in
// flight (k+1 footprints must fit), however deep the configuration asks
// to go — and the measured peak proves the clamped window really stayed
// under the ceiling.
func TestPipelineDepthClampedByBudget(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 6
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		rank := c.Rank()
		probe, err := NewPlanFromGeometry(rank, 4, ownAll, needAll)
		if err != nil {
			return err
		}
		fp := probe.SingleShotFootprint(ModePointToPoint)
		if fp == 0 {
			return fmt.Errorf("strided strip world has zero footprint; the clamp has nothing to bite on")
		}
		d, err := NewDescriptor(procs, Layout2D, Float32,
			WithExchangeMode(ModePointToPoint), WithPipelineDepth(8), WithMemoryBudget(3*fp))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		if err := d.ReorganizeData(c, bufs, dst); err != nil {
			return err
		}
		if got := d.LastPipelineDepth(); got > 2 {
			return fmt.Errorf("budget %d (3 footprints of %d) ran depth %d, want at most 2", 3*fp, fp, got)
		}
		if peak := d.LastPeakStaging(); peak > int64(3*fp) {
			return fmt.Errorf("peak staging %d exceeds budget %d", d.LastPeakStaging(), 3*fp)
		}
		return checkBox(dst, needAll[rank], 4, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelineTimingsSubDurations pins the RoundTiming contract the
// overlap metric depends on: every round reports non-negative pack,
// wire, and unpack sub-durations, pack+unpack never exceeds the round's
// duration (the remainder is the unhidden wire time), and OverlapRatio
// computed from LastTimings alone lands in [0,1] and matches the
// descriptor's own LastOverlapRatio.
func TestPipelineTimingsSubDurations(t *testing.T) {
	const procs, side, chunksPerRank = 4, 32, 3
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			err := mpi.Launch(procs, func(c *mpi.Comm) error {
				rank := c.Rank()
				d, err := NewDescriptor(procs, Layout2D, Float32,
					WithExchangeMode(ModePointToPoint), WithPipelineDepth(depth))
				if err != nil {
					return err
				}
				if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
					return err
				}
				bufs := make([][]byte, len(ownAll[rank]))
				for i, box := range ownAll[rank] {
					bufs[i] = fillBox(box, 4)
				}
				dst := make([]byte, needAll[rank].Volume()*4)
				if err := d.ReorganizeData(c, bufs, dst); err != nil {
					return err
				}
				if got := d.LastPipelineDepth(); got != depth {
					return fmt.Errorf("effective depth %d, want %d", got, depth)
				}
				ts := d.LastTimings()
				if len(ts) != chunksPerRank {
					return fmt.Errorf("got %d round timings, want %d", len(ts), chunksPerRank)
				}
				const slack = time.Millisecond
				for i, rt := range ts {
					if rt.Round != i {
						return fmt.Errorf("timing %d reports round %d; retires must stay in round order", i, rt.Round)
					}
					if rt.Pack < 0 || rt.Wire < 0 || rt.Unpack < 0 || rt.Duration < 0 {
						return fmt.Errorf("round %d has a negative sub-duration: %+v", i, rt)
					}
					if rt.Pack+rt.Unpack > rt.Duration+slack {
						return fmt.Errorf("round %d pack %v + unpack %v exceeds duration %v", i, rt.Pack, rt.Unpack, rt.Duration)
					}
					if rt.WireBytes <= 0 {
						return fmt.Errorf("round %d reports %d wire bytes on an all-strided exchange", i, rt.WireBytes)
					}
				}
				ratio := OverlapRatio(ts)
				if ratio < 0 || ratio > 1 {
					return fmt.Errorf("OverlapRatio = %v, want within [0,1]", ratio)
				}
				if got := d.LastOverlapRatio(); got != ratio {
					return fmt.Errorf("LastOverlapRatio %v != OverlapRatio(LastTimings) %v", got, ratio)
				}
				return checkBox(dst, needAll[rank], 4, nil, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineZeroAllocSteadyState proves the depth-2 pipelined path
// reaches the same steady state as the serial one: slot rings, job
// batches, and staging all recycle, so a replayed pipelined exchange
// allocates nothing.
func TestPipelineZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per cross-goroutine sync event; the pipelined path's race coverage comes from the differential sweep")
	}
	const procs, side, chunksPerRank = 2, 16, 4
	ownAll, needAll := stripWorld(procs, side, chunksPerRank, true)
	err := mpi.Launch(procs, func(c *mpi.Comm) error {
		rank := c.Rank()
		d, err := NewDescriptor(procs, Layout2D, Float32,
			WithExchangeMode(ModePointToPoint), WithPipelineDepth(2), WithParallelism(1))
		if err != nil {
			return err
		}
		if err := d.SetupDataMapping(c, ownAll[rank], needAll[rank]); err != nil {
			return err
		}
		bufs := make([][]byte, len(ownAll[rank]))
		for i, box := range ownAll[rank] {
			bufs[i] = fillBox(box, 4)
		}
		dst := make([]byte, needAll[rank].Volume()*4)
		for i := 0; i < 3; i++ { // reach steady state
			if err := d.ReorganizeData(c, bufs, dst); err != nil {
				return err
			}
		}
		if got := d.LastPipelineDepth(); got != 2 {
			return fmt.Errorf("effective depth %d, want 2", got)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// Only rank 0 measures: AllocsPerRun reads the process-wide malloc
		// counter, so a second concurrent measurement would count its own
		// bookkeeping into this rank's window. Rank 1 paces the same
		// number of exchanges (AllocsPerRun's warmup call plus its runs)
		// to keep the lockstep.
		if rank == 0 {
			allocs := testing.AllocsPerRun(50, func() {
				if err := d.ReorganizeData(c, bufs, dst); err != nil {
					t.Error(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%.1f allocs per steady-state pipelined ReorganizeData, want 0", allocs)
			}
		} else {
			for i := 0; i < 51; i++ {
				if err := d.ReorganizeData(c, bufs, dst); err != nil {
					return err
				}
			}
		}
		// Hold rank 1 until rank 0's measurement window has closed, so its
		// teardown never lands inside the counted runs.
		if err := c.Barrier(); err != nil {
			return err
		}
		return checkBox(dst, needAll[rank], 4, nil, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWithPipelineDepthValidation pins the option's contract: the
// default is DefaultPipelineDepth, explicit depths echo back through the
// accessor, and a non-positive depth is rejected at construction.
func TestWithPipelineDepthValidation(t *testing.T) {
	d, err := NewDescriptor(2, Layout2D, Float32)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PipelineDepth(); got != DefaultPipelineDepth {
		t.Errorf("default depth = %d, want DefaultPipelineDepth (%d)", got, DefaultPipelineDepth)
	}
	d, err = NewDescriptor(2, Layout2D, Float32, WithPipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PipelineDepth(); got != 4 {
		t.Errorf("configured depth = %d, want 4", got)
	}
	if _, err := NewDescriptor(2, Layout2D, Float32, WithPipelineDepth(0)); err == nil {
		t.Error("depth 0 accepted; want a construction error")
	}
}
