package core

import (
	"sort"

	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// The step schedule: every exchange shape DDR runs — the paper's
// per-round alltoallw, point-to-point rounds, the fused single message
// per peer pair, the memory-bounded step sequence, the elastic delta,
// and the multi-need plan — lowers to one structure, following the
// compiled communication-step sequences of Rink et al. and the step
// tables of Sudarsan & Ribbens. A step is a set of typed messages (each
// an ordered list of segments, packed back to back on the wire) plus
// the local copies that never touch the transport. The interpreter in
// interp.go replays a schedule on every data arrival; the shapes differ
// only in how they lower, never in how they execute.

// segment is one region of a message or local copy: a datatype over one
// of the exchange's local buffers (an owned chunk on the send side, a
// need buffer on the receive side), the contiguous span it covers when
// the region is contiguous there, and — on the receive side — the
// region in global coordinates, which PartialError.Missing reports when
// the message never arrives.
type segment struct {
	buf    int
	n      int // packed bytes
	t      datatype.Type
	span   contigSpan
	region grid.Box
}

// message is one wire message: the segments packed back to back, sent
// to (or received from) peer on tag.
type message struct {
	peer  int
	tag   int
	bytes int
	segs  []segment
}

// localCopy moves one region from an owned buffer to a need buffer
// without touching the transport.
type localCopy struct {
	src, dst segment
}

// step is one unit of the schedule: everything it sends, receives, and
// copies locally, plus the accounting the interpreter reports.
type step struct {
	sends  []message
	recvs  []message
	copies []localCopy

	wireBytes int64 // bytes sent to other ranks
	lease     int   // class-rounded receive bytes leased while in flight
}

// schedule is one rank's lowered exchange.
type schedule struct {
	steps []step
	// collective marks the alltoallw lowering: each step's wire operation
	// is one alltoallw collective over the step's typed messages, so the
	// steps always run serially.
	collective bool
	// bounded marks a memory-bounded step schedule; footprint is its
	// modeled worst per-step staging, the quantity the depth clamp
	// divides the budget by. Round schedules compute it lazily from the
	// plan's single-shot footprint when a budget first needs it.
	bounded   bool
	footprint int
}

// newSegment builds a segment for region inside base (the buffer's own
// box), deriving its contiguity span.
func newSegment(buf, elemSize int, base, region grid.Box) (segment, error) {
	t, err := datatype.NewSubarray(elemSize, base, region)
	if err != nil {
		return segment{}, err
	}
	off, n, ok := t.ContiguousSpan()
	return segment{buf: buf, n: t.PackedSize(), t: t, span: contigSpan{off: off, n: n, ok: ok}, region: region}, nil
}

// addMessage appends seg to the message for peer in msgs, opening a new
// message when the last one addresses a different peer.
func addMessage(msgs []message, peer, tag int, seg segment) []message {
	if k := len(msgs) - 1; k >= 0 && msgs[k].peer == peer && msgs[k].tag == tag {
		msgs[k].segs = append(msgs[k].segs, seg)
		msgs[k].bytes += seg.n
		return msgs
	}
	return append(msgs, message{peer: peer, tag: tag, bytes: seg.n, segs: []segment{seg}})
}

// seal fills in a step's accounting once its messages are complete.
func (st *step) seal() {
	st.wireBytes, st.lease = 0, 0
	for i := range st.sends {
		st.wireBytes += int64(st.sends[i].bytes)
	}
	for i := range st.recvs {
		st.lease += mpi.BufferClassSize(st.recvs[i].bytes)
	}
}

// lowerPlan lowers a one-shot plan for the given exchange mode. Round
// modes become one step per round on tag ddrTagBase+r (alltoallw marks
// the schedule collective), the round's self entry becoming its local
// copy; fused mode merges the rounds into one step on ddrTagBase.
func lowerPlan(p *Plan, mode ExchangeMode) *schedule {
	rounds := make([]step, p.rounds)
	for r := range rounds {
		st := &rounds[r]
		tag := ddrTagBase + r
		var self localCopy
		for i := p.sendE.off[r]; i < p.sendE.off[r+1]; i++ {
			seg := p.sendE.segment(i, r)
			if peer := p.sendE.peers[i]; peer == p.rank {
				self.src = seg
			} else {
				st.sends = addMessage(st.sends, peer, tag, seg)
			}
		}
		for i := p.recvE.off[r]; i < p.recvE.off[r+1]; i++ {
			peer := p.recvE.peers[i]
			seg := p.recvE.segment(i, 0)
			seg.region, _ = p.allChunks[peer][r].Intersect(p.need)
			if peer == p.rank {
				self.dst = seg
			} else {
				st.recvs = addMessage(st.recvs, peer, tag, seg)
			}
		}
		if self.src.n > 0 {
			st.copies = []localCopy{self}
		}
		st.seal()
	}
	if mode == ModePointToPointFused {
		return &schedule{steps: []step{fuse(rounds)}}
	}
	return &schedule{steps: rounds, collective: mode == ModeAlltoallw}
}

// fuse merges round steps into one step with a single message per peer
// pair, carrying the pair's per-round segments in round order, peers
// ascending.
func fuse(rounds []step) step {
	merge := func(pick func(*step) []message) []message {
		var all, out []message
		for i := range rounds {
			all = append(all, pick(&rounds[i])...)
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].peer < all[b].peer })
		for _, m := range all {
			for _, sg := range m.segs {
				out = addMessage(out, m.peer, ddrTagBase, sg)
			}
		}
		return out
	}
	st := step{
		sends: merge(func(s *step) []message { return s.sends }),
		recvs: merge(func(s *step) []message { return s.recvs }),
	}
	for i := range rounds {
		st.copies = append(st.copies, rounds[i].copies...)
	}
	st.seal()
	return st
}

// segment wraps entry i of the table as a segment over buffer buf.
func (e *planEntries) segment(i, buf int) segment {
	return segment{buf: buf, n: e.types[i].PackedSize(), t: e.types[i], span: e.spans[i]}
}

// forSegments visits every segment of one direction: send messages and
// local-copy sources, or receive messages and local-copy destinations.
func (s *schedule) forSegments(send bool, f func(*segment)) {
	for i := range s.steps {
		st := &s.steps[i]
		msgs := st.recvs
		if send {
			msgs = st.sends
		}
		for j := range msgs {
			for k := range msgs[j].segs {
				f(&msgs[j].segs[k])
			}
		}
		for j := range st.copies {
			if send {
				f(&st.copies[j].src)
			} else {
				f(&st.copies[j].dst)
			}
		}
	}
}

// compileRuns swaps every strided Subarray segment of one direction for
// its compiled run list, in place. Run lists pack the same bytes in the
// same order, so the schedule stays valid for every pack strategy.
func (s *schedule) compileRuns(send bool) {
	s.forSegments(send, func(sg *segment) {
		if sg.span.ok {
			return
		}
		if rl, ok := datatype.CompileRuns(sg.t); ok {
			sg.t = rl
		}
	})
}

// partialError builds the caller-facing completion report: the sorted
// lost-peer set plus the receive regions each lost peer owed from the
// step it was lost at onward (its earlier steps landed before the loss).
func (s *schedule) partialError(ps *partialState) error {
	if ps == nil || len(ps.lost) == 0 {
		return nil
	}
	lost := make([]int, 0, len(ps.lost))
	for r := range ps.lost {
		lost = append(lost, r)
	}
	sort.Ints(lost)
	var missing []grid.Box
	for _, peer := range lost {
		for i := ps.lost[peer]; i < len(s.steps); i++ {
			for _, m := range s.steps[i].recvs {
				if m.peer != peer {
					continue
				}
				for _, sg := range m.segs {
					missing = append(missing, sg.region)
				}
			}
		}
	}
	return &PartialError{LostPeers: lost, Missing: missing, Cause: ps.cause}
}
