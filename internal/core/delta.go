// Elastic repartitioning: the incremental (delta) plan compiler.
//
// A consumer group that resizes from N to N′ ranks does not need a full
// re-exchange of its data: most of each surviving rank's new need box is
// usually already resident locally (its old need box), and only the cells
// whose ownership changed have to cross the wire. CompileDelta diffs the
// old and new need geometries — grid.Subtract for the local retention,
// grid.Index overlap queries for the remote holders — and emits one
// DeltaPlan per rank that moves exactly the changed bytes. The result of
// executing a delta plan is byte-identical to a full re-exchange that
// treats the old need boxes as owned chunks (the differential-testing
// oracle in delta_test.go).
//
// Ownership of a cell that several old ranks hold is assigned to the
// lowest-ranked holder, so every rank derives the same assignment from
// the same global geometry without communicating.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// DeltaRegion is one unit of changed ownership: a box (global
// coordinates) this rank exchanges with Peer during the resize.
type DeltaRegion struct {
	Peer   int
	Region grid.Box
}

// DeltaPlan is one rank's compiled schedule for an elastic resize. Like
// *Plan it is immutable after compilation, replayable, and cacheable.
// A rank leaving the group has an empty new need (it only sends); a rank
// joining has an empty old need (it only receives).
type DeltaPlan struct {
	elemSize int
	rank     int
	nRanks   int // size of the resize collective (old ∪ new participants)
	newSize  int // ranks with a non-empty new need
	fp       uint64

	oldNeed grid.Box
	newNeed grid.Box

	// keeps are the locally retained regions (newNeed ∩ oldNeed), copied
	// from the old buffer into the new one without touching the wire.
	keeps []grid.Box
	uncov []grid.Box // new-need regions no old rank held; left untouched

	// sends/recvs hold the changed-ownership regions sorted by peer. Each
	// peer's run becomes one wire message whose segments follow that
	// order, which is identical on both sides of every pair, so the
	// receiver unpacks segments in the order the sender packed them.
	sends []DeltaRegion
	recvs []DeltaRegion

	// sched is the one-step schedule the resize exchange runs: one
	// message per peer on deltaTag, keeps as local copies.
	sched *schedule
}

// Rank returns the rank the plan was compiled for.
func (p *DeltaPlan) Rank() int { return p.rank }

// OldNeed and NewNeed return the rank's need boxes on the two sides of
// the resize (empty for joiners and leavers respectively).
func (p *DeltaPlan) OldNeed() grid.Box { return p.oldNeed }
func (p *DeltaPlan) NewNeed() grid.Box { return p.newNeed }

// NewGroupSize returns the number of ranks with a non-empty need after
// the resize — the N′ the surviving consumer communicator must have.
func (p *DeltaPlan) NewGroupSize() int { return p.newSize }

// Fingerprint returns the collectively agreed fingerprint of the
// (old geometry, new geometry) pair (0 for offline-compiled plans).
func (p *DeltaPlan) Fingerprint() uint64 { return p.fp }

// MovedBytes returns the bytes this rank puts on the wire during the
// resize — the cost an incremental plan is minimizing.
func (p *DeltaPlan) MovedBytes() int64 {
	var n int64
	for _, s := range p.sends {
		n += int64(s.Region.Volume()) * int64(p.elemSize)
	}
	return n
}

// ReceivedBytes returns the bytes this rank receives over the wire.
func (p *DeltaPlan) ReceivedBytes() int64 {
	var n int64
	for _, r := range p.recvs {
		n += int64(r.Region.Volume()) * int64(p.elemSize)
	}
	return n
}

// RetainedBytes returns the bytes satisfied by the local old→new copy.
func (p *DeltaPlan) RetainedBytes() int64 {
	var n int64
	for _, k := range p.keeps {
		n += int64(k.Volume()) * int64(p.elemSize)
	}
	return n
}

// NeedBytes returns the total byte size of the new need box — what a
// cold full re-fetch of this rank's data would have to move.
func (p *DeltaPlan) NeedBytes() int64 {
	if boxEmpty(p.newNeed) {
		return 0
	}
	return int64(p.newNeed.Volume()) * int64(p.elemSize)
}

// Uncovered returns the new-need regions no old rank held; the exchange
// leaves their cells untouched (the paper's incomplete-receive contract).
func (p *DeltaPlan) Uncovered() []grid.Box { return p.uncov }

// boxEmpty treats the zero Box (NDims 0) and zero-extent boxes alike —
// both mean "this rank holds / wants nothing".
func boxEmpty(b grid.Box) bool { return b.NDims == 0 || b.Empty() }

// CompileDelta compiles the full set of per-rank delta plans for a
// resize, offline from the global geometry alone: oldNeeds[r] is the box
// rank r held before the resize and newNeeds[r] the box it needs after
// (empty boxes mark joiners and leavers; the slices share one indexing,
// the resize collective's ranks). It is the offline twin of
// DeltaCompiler.Compile, used by the property harness and for capacity
// analysis; every rank of a collective derives the identical plans from
// the identical geometry.
func CompileDelta(elemSize int, oldNeeds, newNeeds []grid.Box) ([]*DeltaPlan, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	if len(oldNeeds) != len(newNeeds) {
		return nil, fmt.Errorf("core: %d old need boxes for %d new need boxes", len(oldNeeds), len(newNeeds))
	}
	n := len(oldNeeds)
	newSize := 0
	for _, b := range newNeeds {
		if !boxEmpty(b) {
			newSize++
		}
	}
	plans := make([]*DeltaPlan, n)
	for r := range plans {
		plans[r] = &DeltaPlan{
			elemSize: elemSize, rank: r, nRanks: n, newSize: newSize,
			oldNeed: oldNeeds[r], newNeed: newNeeds[r],
		}
	}

	// Old holders, spatially indexed: the delta overlap query for one new
	// need box returns its candidate holders in ascending rank order,
	// which is exactly the deterministic assignment priority.
	ix := grid.NewIndex(oldNeeds)

	var hits []int
	var work, rest []grid.Box
	for r, nn := range newNeeds {
		if boxEmpty(nn) {
			continue
		}
		p := plans[r]
		work = work[:0]
		if on := oldNeeds[r]; !boxEmpty(on) {
			if keep, ok := nn.Intersect(on); ok {
				p.keeps = append(p.keeps, keep)
				work = grid.SubtractAppend(work, nn, keep)
			} else {
				work = append(work, nn)
			}
		} else {
			work = append(work, nn)
		}
		if len(work) == 0 {
			continue
		}
		hits = ix.QueryAppend(hits[:0], nn)
		for _, s := range hits {
			if s == r || len(work) == 0 {
				continue
			}
			holder := oldNeeds[s]
			rest = rest[:0]
			for _, u := range work {
				iv, ok := u.Intersect(holder)
				if !ok {
					rest = append(rest, u)
					continue
				}
				p.recvs = append(p.recvs, DeltaRegion{Peer: s, Region: iv})
				plans[s].sends = append(plans[s].sends, DeltaRegion{Peer: r, Region: iv})
				rest = grid.SubtractAppend(rest, u, iv)
			}
			work = append(work[:0], rest...)
		}
		p.uncov = append(p.uncov, work...)
	}

	for _, p := range plans {
		if err := p.finalize(); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// finalize sorts a plan's regions per peer and lowers them into the
// one-step schedule the exchange runs, so execution pays no per-call
// geometry analysis: sends pack from the old need buffer, receives and
// keeps land in the new one.
func (p *DeltaPlan) finalize() error {
	byPeer := func(rs []DeltaRegion) {
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].Peer < rs[b].Peer })
	}
	byPeer(p.sends)
	byPeer(p.recvs)
	var st step
	for _, r := range p.sends {
		seg, err := newSegment(0, p.elemSize, p.oldNeed, r.Region)
		if err != nil {
			return fmt.Errorf("core: delta send type for rank %d region %v: %w", r.Peer, r.Region, err)
		}
		st.sends = addMessage(st.sends, r.Peer, deltaTag, seg)
	}
	for _, r := range p.recvs {
		seg, err := newSegment(0, p.elemSize, p.newNeed, r.Region)
		if err != nil {
			return fmt.Errorf("core: delta recv type for rank %d region %v: %w", r.Peer, r.Region, err)
		}
		st.recvs = addMessage(st.recvs, r.Peer, deltaTag, seg)
	}
	for _, k := range p.keeps {
		src, err := newSegment(0, p.elemSize, p.oldNeed, k)
		if err != nil {
			return fmt.Errorf("core: delta keep source %v: %w", k, err)
		}
		dst, err := newSegment(0, p.elemSize, p.newNeed, k)
		if err != nil {
			return fmt.Errorf("core: delta keep destination %v: %w", k, err)
		}
		st.copies = append(st.copies, localCopy{src: src, dst: dst})
	}
	st.seal()
	p.sched = &schedule{steps: []step{st}}
	return nil
}

// deltaTag is the tag of the resize exchange round. It sits in the DDR
// reserved range above the per-round exchange tags so a resize can be
// in flight on a communicator without colliding with steady-state
// redistribution traffic (or with fault schedules that target it).
const deltaTag = ddrTagBase + (1 << 19)

// DeltaExchangeTag exports the resize round's tag so fault-injection
// schedules can target (or spare) resize traffic specifically.
const DeltaExchangeTag = deltaTag

// Exchange executes the resize move fail-fast: oldData holds this rank's
// old need box, newData receives the new one (nil for an empty side).
// Cells of the new need covered by no old rank are left untouched.
func (p *DeltaPlan) Exchange(c *mpi.Comm, oldData, newData []byte) error {
	return p.ExchangeCtx(nil, c, oldData, newData, 0)
}

// ExchangeCtx is Exchange with cancellation and graceful degradation: a
// positive deadline bounds the whole exchange, and within it peer-loss
// or timeout failures degrade the move instead of aborting — the call
// returns a *PartialError whose Missing boxes are the new-need regions
// whose old holder was lost (their cells stay untouched, per the paper's
// incomplete-receive rule). ctx cancellation always aborts.
func (p *DeltaPlan) ExchangeCtx(ctx context.Context, c *mpi.Comm, oldData, newData []byte, deadline time.Duration) error {
	if ctx != nil {
		if ctx.Done() == nil {
			ctx = nil
		} else if err := ctx.Err(); err != nil {
			return err
		}
	}
	if c.Size() != p.nRanks || c.Rank() != p.rank {
		return fmt.Errorf("core: communicator does not match the one the delta plan was compiled for: %w", ErrCommMismatch)
	}
	if want := p.volBytes(p.oldNeed); len(oldData) != want {
		return fmt.Errorf("core: old buffer has %d bytes, box %v needs %d: %w", len(oldData), p.oldNeed, want, ErrBufferSize)
	}
	if want := p.volBytes(p.newNeed); len(newData) != want {
		return fmt.Errorf("core: new buffer has %d bytes, box %v needs %d: %w", len(newData), p.newNeed, want, ErrBufferSize)
	}
	x := interp{zcSend: true, zcRecv: true}
	return x.run(ctx, c, p.sched, [][]byte{oldData}, [][]byte{newData}, 1, deadline)
}

func (p *DeltaPlan) volBytes(b grid.Box) int {
	if boxEmpty(b) {
		return 0
	}
	return b.Volume() * p.elemSize
}

// DeltaCompiler is the collective front end of CompileDelta: ranks agree
// on the (old geometry, new geometry) pair, replay a cached delta plan
// when the pair was compiled before — consumer groups that oscillate
// between two scales resize at two-small-collectives cost — and
// otherwise allgather the need boxes and compile. Like Descriptor it is
// not safe for concurrent use; construct one per Regridder/session.
type DeltaCompiler struct {
	elemSize int
	cache    *planCache[*DeltaPlan]

	hits, misses atomic.Int64
}

// NewDeltaCompiler creates a delta compiler for elements of the given
// byte size with a delta-plan cache of cacheCap entries (cacheCap <= 0
// disables caching).
func NewDeltaCompiler(elemSize, cacheCap int) (*DeltaCompiler, error) {
	if elemSize <= 0 {
		return nil, fmt.Errorf("core: element size %d must be positive", elemSize)
	}
	dc := &DeltaCompiler{elemSize: elemSize}
	if cacheCap > 0 {
		dc.cache = newPlanCache[*DeltaPlan](cacheCap)
	}
	return dc, nil
}

// CacheStats reports delta-plan cache hits and misses.
func (dc *DeltaCompiler) CacheStats() (hits, misses int64) {
	return dc.hits.Load(), dc.misses.Load()
}

// Compile is the collective compile: every rank of c passes the need box
// it held before the resize and the one it wants after (zero-extent for
// leavers/joiners; both boxes must share the data's dimensionality so the
// geometry encoding stays canonical). All ranks receive their own plan
// for the same globally agreed assignment. A previously seen
// (old, new) geometry pair is replayed from the cache without the
// allgather or compile.
func (dc *DeltaCompiler) Compile(c *mpi.Comm, oldNeed, newNeed grid.Box) (*DeltaPlan, error) {
	if oldNeed.NDims == 0 || newNeed.NDims == 0 {
		return nil, fmt.Errorf("core: delta compile needs explicit box dimensionality (use a zero-extent box for an empty side)")
	}
	// The pair encodes as one canonical geometry stream — the old box in
	// the need slot, the new box as the single chunk — so the plan cache's
	// collective fingerprint agreement applies unchanged.
	enc := encodeGeometry(oldNeed, []grid.Box{newNeed})
	if dc.cache != nil {
		cached, ok, err := dc.cache.lookup(c, enc, 0, func(p *DeltaPlan) bool {
			return p.rank == c.Rank() && p.nRanks == c.Size() &&
				p.oldNeed.Equal(oldNeed) && p.newNeed.Equal(newNeed)
		})
		if err != nil {
			return nil, fmt.Errorf("core: delta plan cache agreement: %w", err)
		}
		if ok {
			dc.hits.Add(1)
			return cached, nil
		}
		dc.misses.Add(1)
	}
	packed, err := c.Allgather(enc)
	if err != nil {
		return nil, fmt.Errorf("core: delta geometry exchange: %w", err)
	}
	oldNeeds := make([]grid.Box, c.Size())
	newNeeds := make([]grid.Box, c.Size())
	for r, buf := range packed {
		on, chunks, err := decodeGeometry(buf)
		if err != nil || len(chunks) != 1 {
			return nil, fmt.Errorf("core: delta geometry from rank %d: %w", r, err)
		}
		oldNeeds[r], newNeeds[r] = on, chunks[0]
	}
	plans, err := CompileDelta(dc.elemSize, oldNeeds, newNeeds)
	if err != nil {
		return nil, err
	}
	plan := plans[c.Rank()]
	if dc.cache != nil {
		plan.fp = dc.cache.lastKey.fp
		dc.cache.store(plan)
	} else {
		plan.fp = geometryFingerprint(packed)
	}
	return plan, nil
}

// PerturbDeltaForTest shifts one of the plan's receive regions by one
// cell along the first axis where the shifted box stays inside the new
// need, simulating an off-by-one in the delta overlap math: the
// schedule's receive segment scatters into the shifted region. It exists
// so the resize property harness can prove it detects delta-compilation
// bugs. Returns false when no region can be shifted. Never call outside
// tests.
func (p *DeltaPlan) PerturbDeltaForTest() bool {
	if len(p.sched.steps) == 0 {
		return false
	}
	for _, m := range p.sched.steps[0].recvs {
		for i := range m.segs {
			sg := &m.segs[i]
			for axis := 0; axis < sg.region.NDims; axis++ {
				shifted := sg.region
				shifted.Offset[axis]++
				if !p.newNeed.Contains(shifted) {
					shifted.Offset[axis] -= 2
					if !p.newNeed.Contains(shifted) {
						continue
					}
				}
				if seg, err := newSegment(sg.buf, p.elemSize, p.newNeed, shifted); err == nil {
					*sg = seg
					return true
				}
			}
		}
	}
	return false
}
