package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/mpi"
	"ddr/internal/obs"
)

// Pack-strategy autotuning. The exchange paths can move a region three
// ways: hand contiguous sub-slices straight to the transport and gather
// strided rows with the Subarray's stride loop (zerocopy), the same but
// gathering through a compiled run-list offset table (pack), or stage
// everything through wire buffers with the Subarray loop, fast paths off
// (datatype). Which gather wins depends on the region geometry — row
// length, row count, cache footprint — and on the transport underneath,
// none of which are visible statically. Instead of hardcoding the
// choice, the first exchange on a plan runs a microprobe: it times each
// candidate on the plan's own representative region and picks the
// fastest per direction (packing sends and scattering receives have
// different geometries and different winners).
//
// Decisions are cached process-wide, keyed by (plan fingerprint,
// transport, direction) — the probe runs at most once per key even when
// many ranks share the process, since ranks are goroutines here and
// their plans share the collectively agreed fingerprint. A nil-safe
// metrics counter exports every selection, so /metrics shows which
// strategy each geometry landed on.

// PackStrategy selects how exchange regions are gathered and scattered.
type PackStrategy int

const (
	// StrategyAuto probes at first use and picks the measured winner.
	StrategyAuto PackStrategy = iota
	// StrategyZeroCopy keeps contiguous fast paths on and gathers strided
	// regions with the Subarray stride loop (the historical default).
	StrategyZeroCopy
	// StrategyPack keeps contiguous fast paths on and gathers strided
	// regions through compiled run-list offset tables.
	StrategyPack
	// StrategyDatatype stages every region through wire buffers with the
	// Subarray loop, contiguous fast paths off — the fully staged path
	// MPI datatypes would take.
	StrategyDatatype
)

func (s PackStrategy) String() string {
	switch s {
	case StrategyZeroCopy:
		return "zerocopy"
	case StrategyPack:
		return "pack"
	case StrategyDatatype:
		return "datatype"
	default:
		return "auto"
	}
}

// WithPackStrategy forces one strategy for both directions, bypassing
// the probe. StrategyAuto (the default) restores measured selection.
func WithPackStrategy(s PackStrategy) Option {
	return func(d *Descriptor) { d.forcedStrat = s }
}

// WithAutotune toggles the measured pack-strategy probe (default on).
// Off, the descriptor keeps the static choice implied by WithZeroCopy.
func WithAutotune(enabled bool) Option {
	return func(d *Descriptor) { d.autotune = enabled }
}

// tuneKey identifies one cached decision: the collectively agreed plan
// fingerprint (geometry × topology), the transport the exchange rides,
// and the direction being gathered.
type tuneKey struct {
	fp        uint64
	transport string
	send      bool
}

// tuneEntry holds one decision; the Once guarantees a single probe per
// key no matter how many ranks race to the first exchange.
type tuneEntry struct {
	once  sync.Once
	strat PackStrategy
}

var (
	tuneCache  sync.Map // tuneKey -> *tuneEntry
	tuneProbes atomic.Int64
)

// AutotuneProbeCount reports how many microprobes have run in this
// process across all descriptors.
func AutotuneProbeCount() int64 { return tuneProbes.Load() }

// ResetAutotuneCache drops every cached pack-strategy decision, forcing
// the next exchange of each (plan, transport, direction) to re-probe.
// Intended for tests and measurement harnesses.
func ResetAutotuneCache() {
	tuneCache.Range(func(k, _ any) bool { tuneCache.Delete(k); return true })
}

// PackDecision reports the strategies the most recent exchange used for
// its send and receive directions (StrategyAuto before the first
// exchange resolves them).
func (d *Descriptor) PackDecision() (send, recv PackStrategy) {
	return d.sendStrat, d.recvStrat
}

// ensureTuned resolves the effective pack strategy for both directions
// of plan p over communicator c, probing on first use when autotuning is
// active. Runs on every exchange but is two comparisons in steady state.
func (d *Descriptor) ensureTuned(c *mpi.Comm, p *Plan) {
	tn := c.TransportName()
	if d.tunedFP == p.fp && d.tunedTransport == tn && d.sendStrat != StrategyAuto {
		return
	}
	switch {
	case d.forcedStrat != StrategyAuto:
		d.sendStrat, d.recvStrat = d.forcedStrat, d.forcedStrat
	case !d.autotune || !d.zeroCopy:
		// Static behaviour: WithZeroCopy decides, no measurement.
		s := StrategyZeroCopy
		if !d.zeroCopy {
			s = StrategyDatatype
		}
		d.sendStrat, d.recvStrat = s, s
	default:
		d.sendStrat = tuneDecision(tuneKey{fp: p.fp, transport: tn, send: true}, p.sched)
		d.recvStrat = tuneDecision(tuneKey{fp: p.fp, transport: tn, send: false}, p.sched)
	}
	d.tunedFP, d.tunedTransport = p.fp, tn
	d.applyStrategy(p)
}

// applyStrategy translates the resolved strategies into the flags and
// schedule state the interpreter consumes: the per-direction fast-path
// gates, run-list compilation for pack, and the selection counters.
func (d *Descriptor) applyStrategy(p *Plan) {
	d.zcSend = d.sendStrat != StrategyDatatype
	d.zcRecv = d.recvStrat != StrategyDatatype
	if d.sendStrat == StrategyPack {
		p.sched.compileRuns(true)
	}
	if d.recvStrat == StrategyPack {
		p.sched.compileRuns(false)
	}
	if d.metrics != nil {
		rl := obs.RankLabel(p.rank)
		const name = "ddr_pack_strategy_selected_total"
		const help = "Exchanges that resolved a pack strategy, by strategy and direction."
		d.metrics.Counter(name, help, rl,
			obs.Label{Key: "strategy", Value: d.sendStrat.String()},
			obs.Label{Key: "direction", Value: "send"}).Add(1)
		d.metrics.Counter(name, help, rl,
			obs.Label{Key: "strategy", Value: d.recvStrat.String()},
			obs.Label{Key: "direction", Value: "recv"}).Add(1)
	}
}

// tuneDecision returns the cached strategy for key, probing exactly once
// per key process-wide.
func tuneDecision(key tuneKey, s *schedule) PackStrategy {
	v, _ := tuneCache.LoadOrStore(key, &tuneEntry{})
	ent := v.(*tuneEntry)
	ent.once.Do(func() {
		tuneProbes.Add(1)
		ent.strat = probeStrategy(s, key.send)
	})
	return ent.strat
}

// probeBudget bounds the bytes one candidate moves during a probe; the
// iteration count is derived from it so small regions are averaged over
// many repetitions and huge ones timed once.
const probeBudget = 4 << 20

// probeStrategy times the three candidates on the direction's largest
// strided region and returns the winner. The cost model per candidate:
// zerocopy and datatype gather strided bytes with the Subarray loop,
// pack with the compiled run list; datatype additionally stages the
// direction's contiguous bytes (one memmove) that the other two hand to
// the transport untouched. Pack must beat zerocopy by a margin to win —
// measured noise should not flip the default.
func probeStrategy(sched *schedule, send bool) PackStrategy {
	unpack := !send
	// Representative region: the largest strided Subarray the direction
	// moves.
	var rep *datatype.Subarray
	repBytes, contigBytes := 0, 0
	sched.forSegments(send, func(sg *segment) {
		if sg.span.ok {
			contigBytes += sg.n
			return
		}
		if s, ok := sg.t.(*datatype.Subarray); ok && sg.n > repBytes {
			rep, repBytes = s, sg.n
		}
	})
	if rep == nil {
		// Nothing strided: fast paths cover everything.
		return StrategyZeroCopy
	}
	rl, ok := datatype.CompileRuns(rep)
	if !ok {
		return StrategyZeroCopy
	}

	localBytes := rep.Array.Volume() * rep.ElemSize
	local := mpi.GetBuffer(localBytes)
	wire := mpi.GetBuffer(repBytes)
	defer mpi.PutBuffer(local)
	defer mpi.PutBuffer(wire)
	iters := probeBudget / repBytes
	if iters < 1 {
		iters = 1
	}
	if iters > 64 {
		iters = 64
	}
	move := func(t datatype.Type) time.Duration {
		// One warm-up pass faults the pages in so the first candidate is
		// not charged for them.
		if unpack {
			t.Unpack(wire, local)
		} else {
			t.Pack(local, wire)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if unpack {
				t.Unpack(wire, local)
			} else {
				t.Pack(local, wire)
			}
		}
		return time.Since(start)
	}
	subNs := float64(move(rep))
	rlNs := float64(move(rl))

	// Staging cost of the contiguous bytes the datatype strategy gives
	// up, charged at the measured per-byte gather rate.
	datatypeNs := subNs
	if contigBytes > 0 {
		datatypeNs += subNs / float64(iters*repBytes) * float64(iters*contigBytes)
	}

	best := StrategyZeroCopy
	if rlNs < subNs*0.95 { // pack must win by >5% to displace the default
		best = StrategyPack
	}
	if datatypeNs < subNs && datatypeNs < rlNs {
		best = StrategyDatatype
	}
	return best
}
