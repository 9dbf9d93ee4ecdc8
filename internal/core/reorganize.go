package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// RoundTiming records the wall-clock cost of one exchange round of the
// most recent ReorganizeData call, along with the bytes this rank sent to
// other ranks in that round. Fused mode reports a single entry covering
// the whole exchange; bounded exchanges report one entry per step.
//
// Duration is the round's contribution to the exchange's wall time. The
// sub-durations decompose it against the wire: Pack covers staging the
// round's sends (through handing them to the transport), Unpack covers
// the batched scatter of its strided payloads, and Wire spans from the
// sends being posted until the round's last payload was in hand —
// including, in that span, the inline placement of contiguous payloads.
// A serial round blocks for the whole wire span, so Duration ≈ Pack +
// Wire + Unpack; a pipelined round only pays the part of the wire span
// it actually blocked on (Duration = Pack + blocked + Unpack), which is
// what makes overlap efficiency computable from timings alone — see
// OverlapRatio. Alltoallw rounds delegate the whole phase to the
// collective and leave the sub-durations zero.
type RoundTiming struct {
	Round     int
	Duration  time.Duration
	Pack      time.Duration
	Wire      time.Duration
	Unpack    time.Duration
	WireBytes int64
}

// OverlapRatio reports, over a set of round timings, the fraction of
// wire time that was hidden behind pack/unpack work instead of being
// blocked on: 0 when every round waited out its whole wire span (serial
// execution), approaching 1 when the pipeline kept the wire fully
// covered by useful work. Rounds that report no wire span (alltoallw
// delegation, pure-local rounds) are excluded.
func OverlapRatio(ts []RoundTiming) float64 {
	var wire, hidden time.Duration
	for _, t := range ts {
		if t.Wire <= 0 {
			continue
		}
		blocked := t.Duration - t.Pack - t.Unpack
		if blocked < 0 {
			blocked = 0
		}
		if blocked > t.Wire {
			blocked = t.Wire
		}
		wire += t.Wire
		hidden += t.Wire - blocked
	}
	if wire == 0 {
		return 0
	}
	return float64(hidden) / float64(wire)
}

// LastTimings returns a copy of the per-round timings of the most recent
// ReorganizeData call (nil before the first call). The copy is the
// caller's to keep; use AppendTimings to avoid the allocation.
func (d *Descriptor) LastTimings() []RoundTiming {
	if d.timings == nil {
		return nil
	}
	out := make([]RoundTiming, len(d.timings))
	copy(out, d.timings)
	return out
}

// AppendTimings appends the most recent call's per-round timings to dst
// and returns the extended slice, the allocation-conscious variant of
// LastTimings.
func (d *Descriptor) AppendTimings(dst []RoundTiming) []RoundTiming {
	return append(dst, d.timings...)
}

// ddrTagBase is the first of the user-visible tags DDR reserves for its
// point-to-point exchange mode (one tag per round). Applications sharing a
// communicator with DDR should stay below this range.
const ddrTagBase = 1 << 20

// ExchangeTagBase is the first tag of the range DDR reserves for its
// exchange traffic, exported so fault-injection schedules can target the
// data exchange (tags >= ExchangeTagBase) while sparing the mapping
// collectives and application control traffic.
const ExchangeTagBase = ddrTagBase

// ReorganizeData exchanges the data between ranks according to the plan
// compiled by SetupDataMapping. own holds one buffer per owned chunk, in
// the order the chunks were passed to SetupDataMapping; need receives the
// redistributed data and must be sized for the need box. Elements of the
// need box covered by no rank's owned data are left untouched (the paper
// allows incomplete receives).
//
// It corresponds to DDR_ReorganizeData(nProcs, dataOwn, dataNeed, desc)
// and may be called repeatedly as new data arrives in the same layout.
// Repeated calls on one plan reuse the descriptor's staging state and the
// shared buffer arena, so the steady state allocates nothing.
func (d *Descriptor) ReorganizeData(c *mpi.Comm, own [][]byte, need []byte) error {
	return d.ReorganizeDataCtx(nil, c, own, need)
}

// ReorganizeDataCtx is ReorganizeData with cancellation: when ctx is
// cancelled the exchange stops between steps and abandons in-flight
// point-to-point waits, returning an error wrapping ctx.Err(). An
// abandoned wait may still
// consume its matching message later, so after a cancellation the
// communicator must not be reused for DDR traffic (see the cancellation
// contract in DESIGN.md); cancel to tear down, not to retry. A nil ctx —
// or one that can never be cancelled — selects the uncancellable fast
// path and is exactly ReorganizeData.
func (d *Descriptor) ReorganizeDataCtx(ctx context.Context, c *mpi.Comm, own [][]byte, need []byte) error {
	if ctx != nil {
		if ctx.Done() == nil {
			ctx = nil
		} else if err := ctx.Err(); err != nil {
			return err
		}
	}
	p := d.plan
	if p == nil {
		return fmt.Errorf("core: ReorganizeData before SetupDataMapping: %w", ErrNoMapping)
	}
	if c.Size() != d.nProcs || c.Rank() != p.rank {
		return fmt.Errorf("core: communicator does not match the one used for SetupDataMapping: %w", ErrCommMismatch)
	}
	if len(own) != len(p.myChunks) {
		return fmt.Errorf("core: %d owned buffers for %d chunks: %w", len(own), len(p.myChunks), ErrBufferSize)
	}
	for i, buf := range own {
		if want := p.myChunks[i].Volume() * d.elemSize; len(buf) != want {
			return fmt.Errorf("core: owned buffer %d has %d bytes, chunk %v needs %d: %w",
				i, len(buf), p.myChunks[i], want, ErrBufferSize)
		}
	}
	if want := p.need.Volume() * d.elemSize; len(need) != want {
		return fmt.Errorf("core: need buffer has %d bytes, box %v needs %d: %w",
			len(need), p.need, want, ErrBufferSize)
	}

	// Resolve the pack strategies this exchange will use — a measured
	// probe on the first exchange of a (plan, transport) pair, two
	// comparisons afterwards.
	d.ensureTuned(c, p)

	// Mint this exchange's trace identity. ReorganizeData is collective,
	// so the counter advances in lockstep on every rank; combined with the
	// collectively agreed plan fingerprint, every rank derives the same
	// 64-bit ID without communicating.
	d.exchSeq++
	d.lastExchID = mixExchangeID(p.fp, d.exchSeq)

	s := p.sched
	k := 1
	if !s.collective {
		k = d.pipelineDepth(p, s)
	}
	d.needs = append(d.needs[:0], need)
	err := d.run(ctx, c, s, own, d.needs, k, d.deadline)
	d.needs[0] = nil
	if err != nil && !isPartial(err) {
		return fmt.Errorf("core: exchange: %w", err)
	}
	return err
}

// isPartial reports whether err is a graceful-degradation report.
func isPartial(err error) bool {
	var pe *PartialError
	return errors.As(err, &pe)
}

// pipelineDepth resolves the depth an exchange may run at: the
// configured depth clamped by the step count and — when a memory budget
// is set — by the lease model: the in-flight window holds at most k+1
// per-step staging footprints (k receive leases plus the step being
// packed), so k is lowered until (k+1)·footprint fits the budget. The
// footprint is the bounded schedule's modeled per-step peak, or the
// plan's single-shot footprint, computed once per schedule.
func (d *Descriptor) pipelineDepth(p *Plan, s *schedule) int {
	k := min(d.depth, len(s.steps))
	if k <= 1 {
		return 1
	}
	if d.budget <= 0 {
		return k
	}
	if s.footprint == 0 {
		s.footprint = p.SingleShotFootprint(d.mode)
	}
	if s.footprint <= 0 {
		return k
	}
	return min(k, max(d.budget/s.footprint-1, 1))
}

// Chunk pairs an owned box with its data buffer, for the one-shot
// Redistribute helper.
type Chunk struct {
	Box  grid.Box
	Data []byte
}

// Redistribute is a convenience wrapper that performs descriptor creation,
// mapping setup, and a single data exchange in one call, returning the
// freshly allocated need buffer. Applications redistributing repeatedly
// should keep the Descriptor and call ReorganizeData themselves.
func Redistribute(c *mpi.Comm, layout Layout, elem ElemType, own []Chunk, need grid.Box, opts ...Option) ([]byte, error) {
	return RedistributeCtx(nil, c, layout, elem, own, need, opts...)
}

// RedistributeCtx is Redistribute with cancellation, following the
// ReorganizeDataCtx contract: the mapping setup is not cancellable, the
// exchange is.
func RedistributeCtx(ctx context.Context, c *mpi.Comm, layout Layout, elem ElemType, own []Chunk, need grid.Box, opts ...Option) ([]byte, error) {
	d, err := NewDescriptor(c.Size(), layout, elem, opts...)
	if err != nil {
		return nil, err
	}
	boxes := make([]grid.Box, len(own))
	bufs := make([][]byte, len(own))
	for i, ch := range own {
		boxes[i] = ch.Box
		bufs[i] = ch.Data
	}
	if err := d.SetupDataMapping(c, boxes, need); err != nil {
		return nil, err
	}
	out := make([]byte, need.Volume()*d.ElemSize())
	if err := d.ReorganizeDataCtx(ctx, c, bufs, out); err != nil {
		return nil, err
	}
	return out, nil
}
