package core

import (
	"fmt"
	"sync/atomic"

	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// The paper limits each rank to a single contiguous receive chunk and
// names "support for more data patterns" as future work (§V). The
// MultiDescriptor implements that extension: every rank may both own and
// need any number of box-shaped chunks. The plan lowers to a one-step
// schedule — one message per communicating pair, carrying all chunk×need
// overlaps in a deterministic order, on its own tag — because the round
// structure alltoallw relies on has no analogue when receives are
// fragmented; the shared interpreter runs it.

// MultiDescriptor describes a many-to-many chunked redistribution.
type MultiDescriptor struct {
	nProcs   int
	layout   Layout
	elemSize int

	plan                   *multiPlan
	cache                  *planCache[*multiPlan]
	cacheHits, cacheMisses atomic.Int64
	x                      interp
}

// multiTag is the multi-need exchange's tag, distinct from the
// single-need modes.
const multiTag = ddrTagBase + 1<<10

// multiPlan is the compiled one-step schedule plus its geometry.
type multiPlan struct {
	rank     int
	myChunks []grid.Box
	myNeeds  []grid.Box
	sched    *schedule

	wireBytes int64 // bytes this rank sends to other ranks
	selfBytes int64
}

// NewMultiDescriptor creates a descriptor for redistributions where both
// sides may be fragmented. nProcs, layout, and elem follow
// NewDescriptor.
func NewMultiDescriptor(nProcs int, layout Layout, elem ElemType) (*MultiDescriptor, error) {
	if elem.Size() == 0 {
		return nil, fmt.Errorf("core: unknown element type %v", elem)
	}
	if nProcs <= 0 {
		return nil, fmt.Errorf("core: descriptor needs a positive process count, got %d", nProcs)
	}
	if layout < Layout1D || layout > Layout3D {
		return nil, fmt.Errorf("core: unsupported layout %v", layout)
	}
	return &MultiDescriptor{
		nProcs:   nProcs,
		layout:   layout,
		elemSize: elem.Size(),
		cache:    newPlanCache[*multiPlan](8),
		x:        interp{zcSend: true, zcRecv: true},
	}, nil
}

// PlanCacheStats reports how many SetupDataMapping calls were satisfied
// by a cached plan and how many compiled a new one.
func (d *MultiDescriptor) PlanCacheStats() (hits, misses int64) {
	return d.cacheHits.Load(), d.cacheMisses.Load()
}

// encodeBoxLists packs two box lists for the geometry allgather, in the
// same canonical varint/delta stream encodeGeometry uses.
func encodeBoxLists(a, b []grid.Box) []byte {
	out := append(make([]byte, 0, 16+8*(len(a)+len(b))), geomVersion)
	var prev grid.Box
	out = appendUvarint(out, uint64(len(a)))
	for _, box := range a {
		out = appendBox(out, box, &prev)
	}
	out = appendUvarint(out, uint64(len(b)))
	for _, box := range b {
		out = appendBox(out, box, &prev)
	}
	return out
}

// decodeBoxLists reverses encodeBoxLists.
func decodeBoxLists(buf []byte) (a, b []grid.Box, err error) {
	if len(buf) < 1 || buf[0] != geomVersion {
		return nil, nil, fmt.Errorf("core: unsupported geometry encoding version")
	}
	buf = buf[1:]
	var prev grid.Box
	readList := func() ([]grid.Box, error) {
		u, rest, err := readUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("core: box count: %w", err)
		}
		buf = rest
		n := int(u)
		if n < 0 || n > len(buf)+1 {
			return nil, fmt.Errorf("core: implausible box count %d", n)
		}
		out := make([]grid.Box, n)
		for i := range out {
			var e error
			out[i], buf, e = readBox(buf, &prev)
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	}
	if a, err = readList(); err != nil {
		return nil, nil, err
	}
	if b, err = readList(); err != nil {
		return nil, nil, err
	}
	if len(buf) != 0 {
		return nil, nil, fmt.Errorf("core: %d trailing bytes after box lists", len(buf))
	}
	return a, b, nil
}

// SetupDataMapping exchanges the global geometry and compiles the fused
// transfer lists. Owned chunks must be mutually exclusive across ranks
// (validated collectively, as in the single-need API); need chunks may
// overlap freely, including within one rank.
func (d *MultiDescriptor) SetupDataMapping(c *mpi.Comm, own, needs []grid.Box) error {
	if c.Size() != d.nProcs {
		return fmt.Errorf("core: descriptor is for %d processes but communicator has %d: %w",
			d.nProcs, c.Size(), ErrCommMismatch)
	}
	for i, b := range own {
		if b.NDims != d.layout.NDims() {
			return fmt.Errorf("core: owned chunk %d is %dD but descriptor is %v", i, b.NDims, d.layout)
		}
	}
	for i, b := range needs {
		if b.NDims != d.layout.NDims() {
			return fmt.Errorf("core: need chunk %d is %dD but descriptor is %v", i, b.NDims, d.layout)
		}
	}
	enc := encodeBoxLists(own, needs)
	cached, ok, err := d.cache.lookup(c, enc, 0, func(p *multiPlan) bool {
		return multiPlanMatchesLocal(p, c.Rank(), own, needs)
	})
	if err != nil {
		return fmt.Errorf("core: plan cache agreement: %w", err)
	}
	if ok {
		d.plan = cached
		d.cacheHits.Add(1)
		return nil
	}
	d.cacheMisses.Add(1)

	packed, err := c.Allgather(enc)
	if err != nil {
		return fmt.Errorf("core: geometry exchange: %w", err)
	}
	allChunks := make([][]grid.Box, c.Size())
	allNeeds := make([][]grid.Box, c.Size())
	for r, buf := range packed {
		if allChunks[r], allNeeds[r], err = decodeBoxLists(buf); err != nil {
			return fmt.Errorf("core: geometry from rank %d: %w", r, err)
		}
	}
	if err := validateOwnership(allChunks); err != nil {
		return err
	}

	rank := c.Rank()
	p := &multiPlan{rank: rank, myChunks: allChunks[rank], myNeeds: allNeeds[rank]}
	// Transfers from src to dst, ordered (src chunk, dst need): both sides
	// enumerate identically, so the message needs no framing.
	var st step
	pair := func(src, dst int, fn func(ci, ni int, chunk, need, ov grid.Box) error) error {
		for ci, chunk := range allChunks[src] {
			for ni, need := range allNeeds[dst] {
				if ov, ok := chunk.Intersect(need); ok {
					if err := fn(ci, ni, chunk, need, ov); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for peer := 0; peer < c.Size(); peer++ {
		if peer == rank {
			continue
		}
		err := pair(rank, peer, func(ci, _ int, chunk, _, ov grid.Box) error {
			seg, err := newSegment(ci, d.elemSize, chunk, ov)
			if err != nil {
				return err
			}
			st.sends = addMessage(st.sends, peer, multiTag, seg)
			p.wireBytes += int64(seg.n)
			return nil
		})
		if err != nil {
			return err
		}
		err = pair(peer, rank, func(_, ni int, _, need, ov grid.Box) error {
			seg, err := newSegment(ni, d.elemSize, need, ov)
			if err != nil {
				return err
			}
			st.recvs = addMessage(st.recvs, peer, multiTag, seg)
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Local overlaps.
	err = pair(rank, rank, func(ci, ni int, chunk, need, ov grid.Box) error {
		src, err := newSegment(ci, d.elemSize, chunk, ov)
		if err != nil {
			return err
		}
		dst, err := newSegment(ni, d.elemSize, need, ov)
		if err != nil {
			return err
		}
		st.copies = append(st.copies, localCopy{src: src, dst: dst})
		p.selfBytes += int64(src.n)
		return nil
	})
	if err != nil {
		return err
	}
	st.seal()
	p.sched = &schedule{steps: []step{st}}
	d.cache.store(p)
	d.plan = p
	return nil
}

// multiPlanMatchesLocal is the fingerprint-collision defense for the
// multi-chunk cache: a cached plan counts as a hit only when it was
// compiled for this rank from exactly these owned and needed chunks.
func multiPlanMatchesLocal(p *multiPlan, rank int, own, needs []grid.Box) bool {
	if p.rank != rank || len(p.myChunks) != len(own) || len(p.myNeeds) != len(needs) {
		return false
	}
	for i, b := range own {
		if !p.myChunks[i].Equal(b) {
			return false
		}
	}
	for i, b := range needs {
		if !p.myNeeds[i].Equal(b) {
			return false
		}
	}
	return true
}

// WireBytes returns the bytes this rank transmits per ReorganizeData call;
// SelfBytes the bytes satisfied locally.
func (d *MultiDescriptor) WireBytes() int64 { return d.planOrZero().wireBytes }

// SelfBytes returns the bytes this rank keeps local per call.
func (d *MultiDescriptor) SelfBytes() int64 { return d.planOrZero().selfBytes }

func (d *MultiDescriptor) planOrZero() *multiPlan {
	if d.plan == nil {
		return &multiPlan{}
	}
	return d.plan
}

// ReorganizeData exchanges the data: own holds one buffer per owned
// chunk, needs one buffer per need chunk, both in SetupDataMapping order.
// Repeatable for dynamic data.
func (d *MultiDescriptor) ReorganizeData(c *mpi.Comm, own, needs [][]byte) error {
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
	if len(needs) != len(p.myNeeds) {
		return fmt.Errorf("core: %d need buffers for %d need chunks: %w", len(needs), len(p.myNeeds), ErrBufferSize)
	}
	for i, buf := range own {
		if want := p.myChunks[i].Volume() * d.elemSize; len(buf) != want {
			return fmt.Errorf("core: owned buffer %d has %d bytes, want %d: %w", i, len(buf), want, ErrBufferSize)
		}
	}
	for i, buf := range needs {
		if want := p.myNeeds[i].Volume() * d.elemSize; len(buf) != want {
			return fmt.Errorf("core: need buffer %d has %d bytes, want %d: %w", i, len(buf), want, ErrBufferSize)
		}
	}

	return d.x.run(nil, c, p.sched, own, needs, 1, 0)
}
