package core

import "sort"

// The plan summary is the canonical JSON shape of a compiled plan: rounds,
// per-round peer lists with packed sizes and contiguity spans, and the
// fused schedule. It is what the golden-plan fixtures under testdata/ pin
// and what the compiler-equivalence tests compare, so its field set and
// JSON tags are part of the fixture format — changing either invalidates
// checked-in fixtures.

// SpanSummary serializes a contiguity span.
type SpanSummary struct {
	Off int  `json:"off"`
	N   int  `json:"n"`
	OK  bool `json:"ok"`
}

// EntrySummary is one (round, peer) plan entry.
type EntrySummary struct {
	Peer int         `json:"peer"`
	Size int         `json:"size"`
	Span SpanSummary `json:"span"`
}

// RoundSummary is one exchange round of one rank's plan.
type RoundSummary struct {
	Sends []EntrySummary `json:"sends"`
	Recvs []EntrySummary `json:"recvs"`
}

// FusedSummary is one peer of the fused schedule.
type FusedSummary struct {
	Peer  int `json:"peer"`
	Bytes int `json:"bytes"`
	One   int `json:"one_round"`
}

// PlanSummary is the serialized summary of one rank's compiled plan.
type PlanSummary struct {
	Rank       int            `json:"rank"`
	Rounds     int            `json:"rounds"`
	RoundPlans []RoundSummary `json:"round_plans"`
	FusedSends []FusedSummary `json:"fused_sends"`
	FusedRecvs []FusedSummary `json:"fused_recvs"`
}

// summarizeRound serializes one round of one direction's sparse table,
// excluding the self entry (which moves no wire bytes) — the same peer
// set, in the same ascending order, as the round's peer list.
func summarizeRound(e *planEntries, r, rank int) []EntrySummary {
	out := []EntrySummary{}
	for i := e.off[r]; i < e.off[r+1]; i++ {
		if e.peers[i] == rank {
			continue
		}
		out = append(out, EntrySummary{
			Peer: e.peers[i],
			Size: e.types[i].PackedSize(),
			Span: SpanSummary{Off: e.spans[i].off, N: e.spans[i].n, OK: e.spans[i].ok},
		})
	}
	return out
}

// Summary flattens the plan into its canonical JSON shape. Two plans with
// equal summaries exchange exactly the same bytes between the same peers
// in the same rounds with the same fast-path decisions.
func (p *Plan) Summary() PlanSummary {
	out := PlanSummary{Rank: p.rank, Rounds: p.rounds}
	for r := 0; r < p.rounds; r++ {
		rd := RoundSummary{Sends: summarizeRound(&p.sendE, r, p.rank), Recvs: summarizeRound(&p.recvE, r, p.rank)}
		out.RoundPlans = append(out.RoundPlans, rd)
	}
	out.FusedSends = fusedSummary(&p.sendE, p.rank, p.rounds)
	out.FusedRecvs = fusedSummary(&p.recvE, p.rank, p.rounds)
	return out
}

// fusedSummary folds one direction's round entries into the fused
// exchange's per-peer messages, peers ascending: the message's total
// bytes and, when exactly one round contributes, that round's index
// (-1 otherwise). Self entries move no wire bytes and are skipped.
func fusedSummary(e *planEntries, rank, rounds int) []FusedSummary {
	at := map[int]int{} // peer → index in out
	out := []FusedSummary{}
	for r := 0; r < rounds; r++ {
		for i := e.off[r]; i < e.off[r+1]; i++ {
			peer := e.peers[i]
			if peer == rank {
				continue
			}
			j, ok := at[peer]
			if !ok {
				j = len(out)
				at[peer] = j
				out = append(out, FusedSummary{Peer: peer, One: r})
			} else {
				out[j].One = -1
			}
			out[j].Bytes += e.types[i].PackedSize()
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Peer < out[b].Peer })
	return out
}
