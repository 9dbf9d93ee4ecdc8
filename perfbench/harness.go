package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ddr/internal/mpi"
)

// workload is one set of inputs the benchmark runs. Every method except
// newRank runs outside any world; newRank runs once per rank inside one.
type workload interface {
	name() string
	ranks() int
	launchOptions() []mpi.LaunchOption
	// inputBytes is the size of one op's payload, stated against L3.
	inputBytes() int64
	// setupIsCompute reports whether set-up is CPU work that the
	// host-speed kernel of calibrate.go predicts, so that setup_s is
	// scaled like the op times.
	setupIsCompute() bool
	// generate makes every input from the seed. It is not timed.
	generate(seed uint64, dir string) error
	// cleanup removes what generate wrote to disk.
	cleanup()
	// geometries lists the global geometry of each exchange an op runs.
	geometries() []geom
	// serial times the same problem on one goroutine with plain copies.
	serial() (time.Duration, error)
	// newRank is the per-rank set-up: descriptors and, where the workload
	// maps once, the mapping. traced asks for program-side exchange spans
	// where a layer is only reachable through them.
	newRank(c *mpi.Comm, traced bool) (rankState, error)
}

// rankState is one rank's share of a workload inside a world.
type rankState interface {
	// op runs one op. sp is nil when the phase is untraced.
	op(sp *spans) error
	// verify checks every byte this rank was delivered by the last op.
	verify() error
	// corrupt flips one delivered byte; the self-test uses it to prove
	// that verify can fail.
	corrupt()
	// sample reads the exchange layer's own accounting of the last op.
	sample() exchSample
	// facts reports the rank's set-up results, identical on every op.
	facts() rankFacts
}

// programSpanner is a rankState whose layer spans are recorded inside
// the program, because the benchmark cannot reach the calls.
type programSpanner interface {
	programSpans() (name string, iv [][2]time.Time)
}

// exchSample is what the exchange layer reports about one op on one rank.
type exchSample struct {
	exchanged   bool // the rank ran an exchange in this op
	phases      bool // the backend filled the pack/wire/unpack split
	pack        time.Duration
	wire        time.Duration
	unpack      time.Duration
	overlap     float64
	depth       int
	peakStaging int64
}

// rankFacts are a rank's set-up results.
type rankFacts struct {
	mapping      time.Duration // set-up mapping; 0 where mapping is per op
	stats        []planStats   // one per exchange an op runs
	boundedSteps int
}

// planStats is the part of core.ScheduleStats the benchmark reports.
type planStats struct {
	rounds      int
	wireBytes   int64
	selfBytes   int64
	activeSlots float64 // (rank, round) slots that own a chunk
	roundMax    int64   // largest per-rank per-round send
	maxPeers    int
}

// gate is a cyclic barrier over a world's ranks. The last rank to
// arrive runs the action, whose answer (stop or go on) every rank gets.
// abort releases every waiter with stop, so a rank that fails cannot
// leave the others blocked.
type gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
	stop    bool
	aborted bool
}

func newGate(n int) *gate {
	g := &gate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait(action func() bool) (stop bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.aborted {
		return true
	}
	gen := g.gen
	g.waiting++
	if g.waiting == g.n {
		g.stop = action()
		g.waiting = 0
		g.gen++
		g.cond.Broadcast()
		return g.stop
	}
	for gen == g.gen && !g.aborted {
		g.cond.Wait()
	}
	return g.stop || g.aborted
}

func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// span is one timed call into a layer, in nanoseconds since the run's
// origin. Parent indexes the same rank's span list (-1 for an op root).
type span struct {
	Name   string `json:"name"`
	Rank   int32  `json:"rank"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans is one rank's span log. A nil *spans records nothing, which is
// how untraced phases run the same op code.
type spans struct {
	origin time.Time
	rank   int32
	op     int32
	list   []span
	open   []int32
}

func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	parent := int32(-1)
	if len(s.open) > 0 {
		parent = s.open[len(s.open)-1]
	}
	s.list = append(s.list, span{Name: name, Rank: s.rank, Op: s.op, Parent: parent,
		Start: int64(time.Since(s.origin))})
	s.open = append(s.open, int32(len(s.list)-1))
}

func (s *spans) end() {
	if s == nil {
		return
	}
	i := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.list[i].End = int64(time.Since(s.origin))
}

// phase is the outcome of one timed loop.
type phase struct {
	ops      []time.Duration // completed ops: first rank's start to last rank's finish
	scales   []float64       // per completed op, the host-speed factor of calibrate.go
	tried    int
	failed   int // ops that errored, did not complete, or delivered wrong bytes
	firstErr error
	samples  [][]exchSample // [op][rank]
	spans    [][]span       // [rank]
	starts   [][]int64      // [rank][op], ns since origin
	ends     [][]int64
	allocKB  float64 // heap allocated per op
	gcPerOp  float64
}

// merge appends q's ops to p, renumbering q's op ids and span parents,
// and returns the result; a nil p takes q as it is.
func (p *phase) merge(q *phase) *phase {
	if p == nil {
		return q
	}
	for r := range p.starts {
		base, off := int32(len(p.starts[r])), int32(len(p.spans[r]))
		for _, s := range q.spans[r] {
			s.Op += base
			if s.Parent >= 0 {
				s.Parent += off
			}
			p.spans[r] = append(p.spans[r], s)
		}
		p.starts[r] = append(p.starts[r], q.starts[r]...)
		p.ends[r] = append(p.ends[r], q.ends[r]...)
	}
	if n := p.tried + q.tried; n > 0 {
		p.allocKB = (p.allocKB*float64(p.tried) + q.allocKB*float64(q.tried)) / float64(n)
		p.gcPerOp = (p.gcPerOp*float64(p.tried) + q.gcPerOp*float64(q.tried)) / float64(n)
	}
	p.ops = append(p.ops, q.ops...)
	p.scales = append(p.scales, q.scales...)
	p.samples = append(p.samples, q.samples...)
	p.tried += q.tried
	p.failed += q.failed
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	return p
}

// runConfig selects what one world does after set-up.
type runConfig struct {
	seconds   float64
	maxOps    int // 0: no cap
	traced    bool
	corruptOp int // op index whose delivered bytes are corrupted; -1: none
	origin    time.Time
}

// world runs one world of w: set-up, one untimed warm-up op, then, when
// cfg is non-nil, a timed phase. It returns the set-up time (launch to
// the first timed op), the facts of every rank, and the phase.
func world(w workload, cfg *runConfig) (setup time.Duration, facts []rankFacts, ph *phase, err error) {
	n := w.ranks()
	g := newGate(n)
	facts = make([]rankFacts, n)
	var setupEnd time.Time
	var cal *calibrator
	if cfg != nil {
		cal = newCalibrator()
	}
	// Start every world from a collected heap, so one world's garbage
	// is not collected on the next one's clock.
	runtime.GC()
	t0 := time.Now()
	var mu sync.Mutex
	var warmErr error
	ph = &phase{}
	if cfg != nil {
		ph.spans = make([][]span, n)
		ph.starts = make([][]int64, n)
		ph.ends = make([][]int64, n)
	}
	var phaseStart time.Time
	var mem0, mem1 runtime.MemStats
	var bad []bool // per op, set by any rank whose verify failed
	var samples [][]exchSample
	opCount := 0
	var calTimes []time.Duration // per op
	err = mpi.Launch(n, func(c *mpi.Comm) error {
		rs, err := w.newRank(c, cfg != nil && cfg.traced)
		if err != nil {
			g.abort()
			return fmt.Errorf("%s rank %d set-up: %w", w.name(), c.Rank(), err)
		}
		if err := rs.op(nil); err != nil {
			g.abort()
			return fmt.Errorf("%s rank %d warm-up: %w", w.name(), c.Rank(), err)
		}
		g.wait(func() bool { setupEnd = time.Now(); return false })
		if err := rs.verify(); err != nil {
			mu.Lock()
			warmErr = errors.Join(warmErr, fmt.Errorf("rank %d warm-up: %w", c.Rank(), err))
			mu.Unlock()
		}
		facts[c.Rank()] = rs.facts()
		if cfg == nil {
			return nil
		}
		var sp *spans
		if cfg.traced {
			sp = &spans{origin: cfg.origin, rank: int32(c.Rank())}
		}
		r := c.Rank()
		var starts, ends []int64
		for op := 0; ; op++ {
			stop := g.wait(func() bool {
				now := time.Now()
				if opCount == 0 {
					phaseStart = now
					runtime.ReadMemStats(&mem0)
				}
				if opCount > 0 && (now.Sub(phaseStart).Seconds() >= cfg.seconds ||
					(cfg.maxOps > 0 && opCount >= cfg.maxOps)) {
					runtime.ReadMemStats(&mem1)
					return true
				}
				opCount++
				calTimes = append(calTimes, cal.time())
				bad = append(bad, false)
				if cfg.traced {
					samples = append(samples, make([]exchSample, n))
				}
				return false
			})
			if stop {
				break
			}
			// One clock reading serves both the op time and the op's root
			// span, so the span breakdown adds up to exactly the op time.
			start := int64(time.Since(cfg.origin))
			if sp != nil {
				sp.op = int32(op)
				sp.open = append(sp.open, int32(len(sp.list)))
				sp.list = append(sp.list, span{Name: "op", Rank: sp.rank, Op: sp.op, Parent: -1, Start: start})
			}
			err := rs.op(sp)
			end := int64(time.Since(cfg.origin))
			if sp != nil {
				sp.list[sp.open[0]].End = end
				sp.open = sp.open[:0]
			}
			starts, ends = append(starts, start), append(ends, end)
			if err != nil {
				g.abort()
				mu.Lock()
				bad[op] = true
				mu.Unlock()
				return fmt.Errorf("%s rank %d op %d: %w", w.name(), r, op, err)
			}
			if cfg.traced {
				samples[op][r] = rs.sample()
			}
			if op == cfg.corruptOp && r == n-1 {
				rs.corrupt()
			}
			if err := rs.verify(); err != nil {
				mu.Lock()
				bad[op] = true
				if ph.firstErr == nil {
					ph.firstErr = fmt.Errorf("rank %d op %d: %w", r, op, err)
				}
				mu.Unlock()
			}
		}
		ph.starts[r], ph.ends[r] = starts, ends
		if sp != nil {
			if ps, ok := rs.(programSpanner); ok {
				name, iv := ps.programSpans()
				attachProgramSpans(sp, name, iv)
			}
			ph.spans[r] = sp.list
		}
		return nil
	}, w.launchOptions()...)
	setup = setupEnd.Sub(t0)
	if err == nil && warmErr != nil {
		err = fmt.Errorf("warm-up op delivered wrong bytes: %w", warmErr)
	}
	if cfg == nil {
		return setup, facts, nil, err
	}
	ph.samples = samples
	scale := scales(calTimes)
	ops := len(bad)
	ph.tried = ops
	if ops > 0 && mem1.TotalAlloc >= mem0.TotalAlloc {
		ph.allocKB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / float64(ops)
		ph.gcPerOp = float64(mem1.NumGC-mem0.NumGC) / float64(ops)
	}
	for op := 0; op < ops; op++ {
		lo, hi := int64(math.MaxInt64), int64(0)
		complete := true
		for r := 0; r < n; r++ {
			if op >= len(ph.starts[r]) {
				complete = false
				break
			}
			lo = min(lo, ph.starts[r][op])
			hi = max(hi, ph.ends[r][op])
		}
		if !complete {
			ph.failed++
			continue
		}
		ph.ops = append(ph.ops, time.Duration(hi-lo))
		ph.scales = append(ph.scales, scale[op])
		if bad[op] {
			ph.failed++
		}
	}
	return setup, facts, ph, err
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
