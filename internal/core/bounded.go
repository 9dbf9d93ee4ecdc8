package core

import (
	"errors"
	"fmt"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// The memory-bounded plan backend. The one-shot exchange paths stage, per
// rank, every send and receive region of a round (or, fused, of the whole
// exchange) at once, so their peak staging footprint is proportional to
// the data moved — exactly where the paper's in-transit coupling hurts at
// scale. Following the decomposition of "Memory-efficient array
// redistribution through portable collective communication" (Rink et
// al.), CompileBounded rewrites the same transfer as a sequence of
// bounded-footprint steps: every overlap region is sliced into pieces
// whose class-rounded wire size fits the configured budget, the slices
// are packed greedily into steps such that no rank's modeled staging
// (sends charged to the source, payloads to the destination, both at the
// arena's class granularity) exceeds the budget within a step, and the
// steps lower into the same step schedule the one-shot paths use, run by
// the same interpreter (interp.go).
//
// The schedule is a pure function of the global geometry, the element
// size, and the budget, so every rank derives the identical slice list
// and step boundaries from the allgathered geometry with no extra
// communication. The budget is folded into the plan fingerprint
// (plancache.go), so cached plans, autotune keys, and exchange IDs all
// key on it; it must be uniform across ranks, like the exchange mode.
//
// Budget semantics: WithMemoryBudget bounds the bytes of exchange-layer
// staging a rank holds at once — pack buffers plus received payloads
// between delivery and placement — rounded up to the staging arena's
// class sizes (mpi.BufferClassSize). Transport-internal transit copies
// (mailbox deliveries not yet received, TCP socket buffers) are outside
// the bound; they are themselves bounded by the transports' chunk lanes.
// The interpreter's live mpi.StagingMeter measures the real high-water
// mark of every exchange, and the test harness asserts measured peak <=
// budget at every tier down to the one-chunk minimum.

// ErrBudgetTooSmall reports a WithMemoryBudget value below the smallest
// staging-arena class needed to move even a single element.
var ErrBudgetTooSmall = errors.New("core: memory budget below the minimum staging class")

// boundedTagBase is the first tag of the bounded exchange's range. Every
// slice gets its own tag (base + global slice index), so duplicated or
// reordered deliveries can never satisfy the wrong receive. The range
// sits above the round tags (ddrTagBase+round) and below the delta
// exchange's deltaTag.
const boundedTagBase = ddrTagBase + (1 << 18)

// boundedSlice is one slice of one overlap region: the piece of src's
// chunk that lands in dst's need box during one step.
type boundedSlice struct {
	src, dst int
	chunk    int      // index into allChunks[src]
	region   grid.Box // global coordinates; region ⊆ chunk ∩ need
	bytes    int      // region volume × element size
	tag      int
	step     int
}

// boundedPlan is the compiled step sequence: the global slice list every
// rank derives identically, and this rank's lowering of it into the step
// schedule the interpreter runs.
type boundedPlan struct {
	budget   int // configured ceiling, bytes
	maxSlice int // per-slice payload cap, bytes
	steps    int
	slices   []boundedSlice
	sched    *schedule
}

// WithMemoryBudget bounds the exchange-layer staging of every
// ReorganizeData call to at most n bytes per rank (class-rounded, see the
// package comment above). When the single-shot footprint of the mapped
// geometry would exceed the budget on any rank, SetupDataMapping
// compiles the bounded step backend and ReorganizeData executes it; when
// the geometry fits, the one-shot paths run unchanged. The budget must
// be uniform across ranks and is part of the plan-cache key. n <= 0 (the
// default) disables the bound.
func WithMemoryBudget(n int) Option {
	return func(d *Descriptor) { d.budget = n }
}

// MemoryBudget returns the ceiling set with WithMemoryBudget (0 when
// unset).
func (d *Descriptor) MemoryBudget() int { return d.budget }

// fpSalt is the descriptor's fingerprint salt: the memory budget when
// one is set, 0 (a no-op, see saltHash) otherwise. Folding it into the
// plan fingerprint keys the plan cache, the autotune cache, and minted
// exchange IDs on the budget alongside the geometry and topology.
func (d *Descriptor) fpSalt() uint64 { return uint64(max(d.budget, 0)) }

// BoundedSteps reports the number of bounded steps the current plan
// executes per exchange, or 0 when the one-shot path is selected.
func (d *Descriptor) BoundedSteps() int {
	if d.plan == nil || d.plan.bounded == nil {
		return 0
	}
	return d.plan.bounded.steps
}

// LastPeakStaging reports the measured high-water mark of exchange-layer
// staging bytes — pack buffers, local-copy staging, and leased receive
// bytes — during the most recent ReorganizeData call (0 before the
// first). Every exchange resets and measures it; alltoallw exchanges
// stage inside the collective and report only their local copies.
func (d *Descriptor) LastPeakStaging() int64 { return d.lastPeakStaging }

// maxSliceBytes returns the largest slice payload whose class-rounded
// staging charge fits the budget, or 0 when no class does.
func maxSliceBytes(budget int) int {
	if budget < 1<<minStagingShift {
		return 0
	}
	if budget >= 1<<maxStagingShift {
		// Beyond the largest class the arena charges exact sizes.
		return budget
	}
	// Largest power of two <= budget is the largest class that fits.
	n := 1
	for n<<1 <= budget {
		n <<= 1
	}
	return n
}

// The arena's class range, mirrored from internal/mpi (asserted against
// mpi.BufferClassSize in the tests so drift is caught).
const (
	minStagingShift = 8  // 256 B
	maxStagingShift = 26 // 64 MiB
)

// appendSlices splits box b into deterministic pieces of at most maxElems
// cells, slicing along the outermost axis first (z, then y, then x) so
// pieces stay as row-contiguous as the bound allows. A single cell is the
// floor; maxElems >= 1 is required.
func appendSlices(dst []grid.Box, b grid.Box, maxElems int) []grid.Box {
	if b.Volume() <= maxElems {
		return append(dst, b)
	}
	ax := -1
	for i := b.NDims - 1; i >= 0; i-- {
		if b.Dims[i] > 1 {
			ax = i
			break
		}
	}
	if ax < 0 {
		return append(dst, b)
	}
	unit := b.Volume() / b.Dims[ax] // cells per unit-thick slab along ax
	per := maxElems / unit
	if per < 1 {
		per = 1
	}
	for o := 0; o < b.Dims[ax]; o += per {
		sub := b
		sub.Offset[ax] = b.Offset[ax] + o
		sub.Dims[ax] = min(per, b.Dims[ax]-o)
		if sub.Volume() <= maxElems {
			dst = append(dst, sub)
		} else {
			dst = appendSlices(dst, sub, maxElems)
		}
	}
	return dst
}

// SingleShotFootprint returns the worst per-rank staging footprint, in
// class-rounded bytes, that the one-shot exchange paths would reach for
// this plan's geometry under the given mode: per rank, the largest
// round's send+receive staging (round modes) or the whole fused
// schedule's (fused mode). The value is derived from the global geometry
// alone, so every rank computes the same number — it is the quantity the
// bounded backend's auto-selection compares against the budget, keeping
// the selection collectively consistent.
func (p *Plan) SingleShotFootprint(mode ExchangeMode) int {
	nProcs, rounds := p.nProcs, p.rounds
	if rounds == 0 {
		return 0
	}
	cls := mpi.BufferClassSize
	if mode == ModePointToPointFused {
		// Fused concatenates each peer pair's rounds into one message:
		// per rank, every outgoing and incoming pair total is staged at
		// once. pair[src*nProcs+dst] accumulates the pair's bytes.
		pair := make([]int, nProcs*nProcs)
		forEachOverlap(p.allChunks, p.allNeeds, func(src, _, dst int, ov grid.Box) {
			pair[src*nProcs+dst] += ov.Volume() * p.elemSize
		})
		worst := 0
		for r := 0; r < nProcs; r++ {
			total := 0
			for peer := 0; peer < nProcs; peer++ {
				total += cls(pair[r*nProcs+peer]) + cls(pair[peer*nProcs+r])
			}
			worst = max(worst, total)
		}
		return worst
	}
	// Round modes stage one round's sends and receives at a time; round
	// r moves each rank's r-th chunk.
	send := make([]int, nProcs*rounds)
	recv := make([]int, nProcs*rounds)
	forEachOverlap(p.allChunks, p.allNeeds, func(src, chunk, dst int, ov grid.Box) {
		n := cls(ov.Volume() * p.elemSize)
		send[src*rounds+chunk] += n
		recv[dst*rounds+chunk] += n
	})
	worst := 0
	for r := 0; r < nProcs; r++ {
		for rr := 0; rr < rounds; rr++ {
			worst = max(worst, send[r*rounds+rr]+recv[r*rounds+rr])
		}
	}
	return worst
}

// forEachOverlap visits every (source chunk × destination need) overlap
// of the global geometry in the canonical order — source rank, then that
// rank's chunk index, then destination rank ascending. The bounded slice
// enumeration, the footprint model, and the step packer all iterate this
// order, which is what makes the schedule identical on every rank.
func forEachOverlap(allChunks [][]grid.Box, allNeeds []grid.Box, f func(src, chunk, dst int, ov grid.Box)) {
	ix := grid.NewIndex(allNeeds)
	var hits []int
	for src, chunks := range allChunks {
		for ci, chunk := range chunks {
			hits = ix.QueryAppend(hits[:0], chunk)
			for _, dst := range hits {
				if ov, ok := chunk.Intersect(allNeeds[dst]); ok && !ov.Empty() {
					f(src, ci, dst, ov)
				}
			}
		}
	}
}

// compileBounded builds the bounded step schedule for plan p under the
// given budget. The slice list and step boundaries depend only on the
// global geometry, elemSize, and budget; the lowering into steps builds
// types only for p.rank's slices: a send message per outgoing slice, a
// receive message per incoming one, a local copy per self slice, each on
// the slice's own tag.
func compileBounded(p *Plan, budget int) (*boundedPlan, error) {
	maxSlice := maxSliceBytes(budget)
	if maxSlice < p.elemSize {
		return nil, fmt.Errorf("core: budget %d cannot stage one %d-byte element: %w",
			budget, p.elemSize, ErrBudgetTooSmall)
	}
	maxElems := maxSlice / p.elemSize

	b := &boundedPlan{budget: budget, maxSlice: maxSlice}
	s := &schedule{bounded: true}

	// Enumerate slices in the canonical global order, packing them
	// greedily into steps: a slice whose class-rounded charge would push
	// its source's or destination's running step load past the budget
	// closes the step. Every slice fits an empty step by construction,
	// so the packer always terminates. The order is step-monotone, so
	// this rank's steps are appended as they open.
	load := make([]int, p.nProcs)
	stepNo := 0
	var boxes []grid.Box
	var err error
	forEachOverlap(p.allChunks, p.allNeeds, func(src, ci, dst int, ov grid.Box) {
		if err != nil {
			return
		}
		boxes = appendSlices(boxes[:0], ov, maxElems)
		for _, region := range boxes {
			bytes := region.Volume() * p.elemSize
			l := mpi.BufferClassSize(bytes)
			if load[src]+l > budget || (dst != src && load[dst]+l > budget) {
				stepNo++
				clear(load)
			}
			load[src] += l
			if dst != src {
				load[dst] += l
			}
			// This rank's running step load is its modeled footprint.
			s.footprint = max(s.footprint, load[p.rank])
			sl := boundedSlice{
				src: src, dst: dst, chunk: ci, region: region,
				bytes: bytes, tag: boundedTagBase + len(b.slices), step: stepNo,
			}
			b.slices = append(b.slices, sl)
			if src != p.rank && dst != p.rank {
				continue
			}
			for len(s.steps) <= stepNo {
				s.steps = append(s.steps, step{})
			}
			st := &s.steps[stepNo]
			var send, recv segment
			if src == p.rank {
				if send, err = boundedSegment(ci, p.elemSize, p.allChunks[src][ci], region, dst, false); err != nil {
					return
				}
			}
			if dst == p.rank {
				if recv, err = boundedSegment(0, p.elemSize, p.need, region, src, true); err != nil {
					return
				}
			}
			switch {
			case src == dst:
				st.copies = append(st.copies, localCopy{src: send, dst: recv})
			case src == p.rank:
				st.sends = addMessage(st.sends, dst, sl.tag, send)
			default:
				st.recvs = addMessage(st.recvs, src, sl.tag, recv)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if len(b.slices) > 0 {
		b.steps = stepNo + 1
	}
	for len(s.steps) < b.steps {
		s.steps = append(s.steps, step{})
	}
	for i := range s.steps {
		s.steps[i].seal()
	}
	b.sched = s
	return b, nil
}

// boundedSegment builds one local half of a slice: the segment
// addressing region inside base (the owned chunk for sends, the need box
// for receives).
func boundedSegment(buf, elemSize int, base, region grid.Box, peer int, recv bool) (segment, error) {
	seg, err := newSegment(buf, elemSize, base, region)
	if err != nil {
		dir := "bounded send type to"
		if recv {
			dir = "bounded recv type from"
		}
		return segment{}, fmt.Errorf("core: %s rank %d: %w", dir, peer, err)
	}
	return seg, nil
}

// ensureSchedule attaches the schedule the descriptor's exchanges run:
// the bounded step schedule when the budget demands one, the plan
// lowered for the exchange mode otherwise. The bounded backend is
// compiled when the geometry's worst single-shot footprint exceeds the
// budget — a decision derived from collectively shared inputs only, so
// every rank takes the same branch. Plans are cached per descriptor and
// the budget and mode are descriptor constants, so lowering once is
// stable across cache replays.
func (d *Descriptor) ensureSchedule(p *Plan) error {
	if d.budget > 0 && p.SingleShotFootprint(d.mode) > d.budget {
		if p.bounded == nil || p.bounded.budget != d.budget {
			b, err := compileBounded(p, d.budget)
			if err != nil {
				return err
			}
			p.bounded, p.sched = b, b.sched
		}
		return nil
	}
	if p.bounded != nil {
		p.bounded, p.sched = nil, nil
	}
	if p.sched == nil {
		p.sched = lowerPlan(p, d.mode)
	}
	return nil
}

// BoundedSliceSummary serializes one slice of the bounded schedule.
type BoundedSliceSummary struct {
	Step   int   `json:"step"`
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Chunk  int   `json:"chunk"`
	Offset []int `json:"offset"`
	Dims   []int `json:"dims"`
	Bytes  int   `json:"bytes"`
	Tag    int   `json:"tag"`
}

// BoundedSummary is the canonical JSON shape of a bounded step schedule.
// The schedule is global — identical on every rank — so one summary pins
// the whole world's step decomposition. It is what the golden bounded
// fixtures under testdata/ record.
type BoundedSummary struct {
	Budget   int                   `json:"budget"`
	MaxSlice int                   `json:"max_slice"`
	Steps    int                   `json:"steps"`
	Slices   []BoundedSliceSummary `json:"slices"`
}

// BoundedSummary flattens the plan's bounded schedule, or returns a zero
// summary when no bounded schedule is attached.
func (p *Plan) BoundedSummary() BoundedSummary {
	b := p.bounded
	if b == nil {
		return BoundedSummary{Slices: []BoundedSliceSummary{}}
	}
	out := BoundedSummary{
		Budget: b.budget, MaxSlice: b.maxSlice, Steps: b.steps,
		Slices: make([]BoundedSliceSummary, 0, len(b.slices)),
	}
	for i := range b.slices {
		sl := &b.slices[i]
		out.Slices = append(out.Slices, BoundedSliceSummary{
			Step: sl.step, Src: sl.src, Dst: sl.dst, Chunk: sl.chunk,
			Offset: sl.region.OffsetSlice(), Dims: sl.region.DimsSlice(),
			Bytes: sl.bytes, Tag: sl.tag,
		})
	}
	return out
}
