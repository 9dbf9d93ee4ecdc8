package core

import (
	"fmt"

	"ddr/internal/datatype"
	"ddr/internal/grid"
)

// compilePlanBrute is the reference compiler: it intersects every chunk
// against every peer's need linearly over dense (round, peer) tables,
// exactly as the original implementation of the paper's
// DDR_SetupDataMapping did. It is retained solely as the
// differential-testing oracle for the indexed parallel compiler in
// compilePlan — the two must produce byte-identical plans for every
// geometry (see TestCompilerEquivalence and the ddrtest sweep) — and as
// the baseline the mapping benchmarks measure the indexed compiler
// against. Production paths never call it. The trailing conversion packs
// the dense tables into the Plan's sparse representation without
// changing any entry.
func compilePlanBrute(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	nProcs := len(allNeeds)
	rounds := 0
	for _, chunks := range allChunks {
		rounds = max(rounds, len(chunks))
	}
	p := &Plan{
		elemSize:  elemSize,
		rank:      rank,
		nProcs:    nProcs,
		rounds:    rounds,
		myChunks:  allChunks[rank],
		need:      allNeeds[rank],
		allChunks: allChunks,
		allNeeds:  allNeeds,
	}
	send := make([][]datatype.Type, rounds)
	recv := make([][]datatype.Type, rounds)
	sendSpan := make([][]contigSpan, rounds)
	recvSpan := make([][]contigSpan, rounds)
	for r := 0; r < rounds; r++ {
		send[r] = make([]datatype.Type, nProcs)
		recv[r] = make([]datatype.Type, nProcs)
		sendSpan[r] = make([]contigSpan, nProcs)
		recvSpan[r] = make([]contigSpan, nProcs)
		for peer := 0; peer < nProcs; peer++ {
			send[r][peer] = datatype.Empty{}
			recv[r][peer] = datatype.Empty{}
		}
		// Sends: the overlap of my round-r chunk with each peer's need.
		if r < len(p.myChunks) {
			chunk := p.myChunks[r]
			for peer := 0; peer < nProcs; peer++ {
				ov, ok := chunk.Intersect(allNeeds[peer])
				if !ok {
					continue
				}
				st, err := datatype.NewSubarray(elemSize, chunk, ov)
				if err != nil {
					return nil, fmt.Errorf("core: send type to rank %d: %w", peer, err)
				}
				send[r][peer] = st
			}
		}
		// Receives: the overlap of each peer's round-r chunk with my need.
		for peer := 0; peer < nProcs; peer++ {
			if r >= len(allChunks[peer]) {
				continue
			}
			ov, ok := allChunks[peer][r].Intersect(p.need)
			if !ok {
				continue
			}
			rt, err := datatype.NewSubarray(elemSize, p.need, ov)
			if err != nil {
				return nil, fmt.Errorf("core: recv type from rank %d: %w", peer, err)
			}
			recv[r][peer] = rt
		}
	}
	// Contiguity detection.
	for r := 0; r < rounds; r++ {
		for peer := 0; peer < nProcs; peer++ {
			if send[r][peer].PackedSize() > 0 {
				off, n, ok := send[r][peer].ContiguousSpan()
				sendSpan[r][peer] = contigSpan{off: off, n: n, ok: ok}
			}
			if recv[r][peer].PackedSize() > 0 {
				off, n, ok := recv[r][peer].ContiguousSpan()
				recvSpan[r][peer] = contigSpan{off: off, n: n, ok: ok}
			}
		}
	}
	// Pack the dense tables into the sparse plan representation.
	p.sendE = denseToEntries(send, sendSpan)
	p.recvE = denseToEntries(recv, recvSpan)
	return p, nil
}

// denseToEntries packs one direction's dense tables into the sparse
// entry layout: non-empty slots in (round, peer) order.
func denseToEntries(types [][]datatype.Type, spans [][]contigSpan) planEntries {
	e := planEntries{off: make([]int, len(types)+1)}
	for r := range types {
		e.off[r] = len(e.peers)
		for peer, t := range types[r] {
			if t.PackedSize() == 0 {
				continue
			}
			e.peers = append(e.peers, peer)
			e.types = append(e.types, t)
			e.spans = append(e.spans, spans[r][peer])
		}
	}
	e.off[len(types)] = len(e.peers)
	return e
}
