package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"ddr/internal/core"
	"ddr/internal/datatype"
	"ddr/internal/grid"
	"ddr/internal/mpi"
)

// rng is splitmix64: every input the benchmark makes comes from it.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit is uniform in [-1, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11)/(1<<52) - 1 }

func toPlanStats(s core.ScheduleStats) planStats {
	ps := planStats{rounds: s.Rounds, wireBytes: s.TotalWireBytes, selfBytes: s.SelfBytes,
		roundMax: s.PerRankRoundMax, maxPeers: s.MaxPeersPerRound}
	if s.PerRankRoundAvg > 0 {
		ps.activeSlots = float64(s.TotalWireBytes) / s.PerRankRoundAvg
	}
	return ps
}

// timingSample condenses one exchange's round timings. Backends that
// delegate a round whole (alltoallw) leave the pack/wire/unpack split
// zero; phases is false then, so the split is reported absent.
func timingSample(ts []core.RoundTiming, d *core.Descriptor) exchSample {
	s := exchSample{exchanged: true, depth: d.LastPipelineDepth(), peakStaging: d.LastPeakStaging()}
	for _, t := range ts {
		s.pack += t.Pack
		s.wire += t.Wire
		s.unpack += t.Unpack
		if t.Pack > 0 || t.Wire > 0 || t.Unpack > 0 {
			s.phases = true
		}
	}
	s.overlap = core.OverlapRatio(ts)
	return s
}

// metric is one reported value; a metric a workload cannot produce is
// absent with a reason instead.
type metric struct {
	value  float64
	unit   string
	absent string
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{value: v, unit: unit} }
func (m metrics) absent(name, unit, why string)           { m[name] = metric{unit: unit, absent: why} }

// opLayers is the layer breakdown of one traced op.
type opLayers struct {
	self    map[string]float64 // layer → max over ranks of self ms
	sumSelf map[string]float64 // layer → sum over ranks of self ms
	spanMs  float64            // first rank's start to last rank's finish
	otherMs float64
	skewMs  float64 // last rank's first exchange entry minus the first rank's
	skewOK  bool
}

// selfTimes returns every span's duration minus the part of its
// interval its children cover.
func selfTimes(list []span) []int64 {
	kids := make([][]int, len(list))
	for i, s := range list {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(list))
	for i, s := range list {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(list[k].Start, s.Start), min(list[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), int64(math.MinInt64)
		for _, v := range iv {
			if v[0] > reach {
				covered += v[1] - v[0]
				reach = v[1]
			} else if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// breakdown splits every traced op into layer self times. The op's
// critical rank is the one that finished last; its layer self times plus
// other_ms (its late start, and op time spent outside any layer) must
// equal the op span, or the spans are malformed and breakdown fails.
func breakdown(ph *phase) ([]opLayers, error) {
	ranks := len(ph.spans)
	ops := len(ph.starts[0])
	for r := range ph.starts {
		ops = min(ops, len(ph.starts[r]))
	}
	out := make([]opLayers, ops)
	for op := range out {
		out[op] = opLayers{self: map[string]float64{}, sumSelf: map[string]float64{}}
	}
	type rankOp struct {
		layers map[string]int64
		root   int64 // op self time
		entry  int64 // first core.exchange start, -1 if none
	}
	per := make([][]rankOp, ranks)
	for r, list := range ph.spans {
		self := selfTimes(list)
		per[r] = make([]rankOp, ops)
		for op := range per[r] {
			per[r][op] = rankOp{layers: map[string]int64{}, entry: -1}
		}
		for i, s := range list {
			if int(s.Op) >= ops {
				continue
			}
			ro := &per[r][s.Op]
			if s.Parent < 0 {
				ro.root += self[i]
				continue
			}
			ro.layers[s.Name] += self[i]
			if s.Name == "core.exchange" && (ro.entry < 0 || s.Start < ro.entry) {
				ro.entry = s.Start
			}
		}
	}
	for op := range out {
		lo, hi, crit := int64(math.MaxInt64), int64(0), 0
		eLo, eHi := int64(math.MaxInt64), int64(-1)
		for r := 0; r < ranks; r++ {
			lo = min(lo, ph.starts[r][op])
			if ph.ends[r][op] > hi {
				hi, crit = ph.ends[r][op], r
			}
			for name, v := range per[r][op].layers {
				out[op].self[name] = max(out[op].self[name], float64(v)/1e6)
				out[op].sumSelf[name] += float64(v) / 1e6
			}
			if e := per[r][op].entry; e >= 0 {
				eLo, eHi = min(eLo, e), max(eHi, e)
			}
		}
		ol := &out[op]
		ol.spanMs = float64(hi-lo) / 1e6
		ol.otherMs = float64(ph.starts[crit][op]-lo+per[crit][op].root) / 1e6
		sum := ol.otherMs
		for _, v := range per[crit][op].layers {
			sum += float64(v) / 1e6
		}
		if math.Abs(sum-ol.spanMs) > 1e-6 {
			return nil, fmt.Errorf("op %d: layer self times %.6f ms + other do not add up to the op span %.6f ms", op, sum-ol.otherMs, ol.spanMs)
		}
		if eHi >= 0 {
			ol.skewMs, ol.skewOK = float64(eHi-eLo)/1e6, true
		}
	}
	return out, nil
}

// attachProgramSpans adds spans a rank's state recorded inside the
// program as children of the innermost benchmark span covering them.
func attachProgramSpans(sp *spans, name string, iv [][2]time.Time) {
	n := len(sp.list)
	for _, v := range iv {
		s, e := int64(v[0].Sub(sp.origin)), int64(v[1].Sub(sp.origin))
		best := -1
		for i := 0; i < n; i++ {
			c := sp.list[i]
			if c.Start <= s && e <= c.End && (best < 0 || c.Start >= sp.list[best].Start && c.End <= sp.list[best].End) {
				best = i
			}
		}
		if best < 0 {
			continue // outside every op: the warm-up
		}
		sp.list = append(sp.list, span{Name: name, Rank: sp.rank, Op: sp.list[best].Op, Parent: int32(best), Start: s, End: e})
	}
}

// medianOver is the median over ops of f, skipping ops where ok is false.
func medianOver(ls []opLayers, f func(opLayers) (float64, bool)) (float64, bool) {
	var xs []float64
	for _, l := range ls {
		if v, ok := f(l); ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

// spanMetrics derives the per-layer metrics that come from spans and the
// exchange layer's own accounting in a traced phase.
func spanMetrics(m metrics, w workload, ph *phase, facts []rankFacts) error {
	ls, err := breakdown(ph)
	if err != nil {
		return err
	}
	for _, l := range []struct{ metric, span, why string }{
		{"tiff.read_ms", "tiff.read", "reads no TIFF"},
		{"core.mapping_ms", "core.mapping", "maps once, in set-up"},
		{"core.exchange_ms", "core.exchange", "runs no exchange"},
		{"transit.send_ms", "transit.send", "streams nothing in transit"},
		{"transit.recv_ms", "transit.recv", "streams nothing in transit"},
		{"fft.compute_ms", "fft.step", "runs no FFT"},
	} {
		if v, ok := medianOver(ls, func(o opLayers) (float64, bool) { v, ok := o.self[l.span]; return v, ok }); ok {
			m.set(l.metric, v, "ms")
		} else {
			m.absent(l.metric, "ms", l.why)
		}
	}
	if sl, ok := w.(*stackLoad); ok {
		decoded := float64(sl.edge*sl.edge*sl.edge*2) / 1e6 // MB over all ranks
		v, _ := medianOver(ls, func(o opLayers) (float64, bool) { return decoded / (o.sumSelf["tiff.read"] / 1e3), true })
		m.set("tiff.decode_MBps", v, "MB/s")
	} else {
		m.absent("tiff.decode_MBps", "MB/s", "reads no TIFF")
	}
	if m["core.mapping_ms"].absent != "" {
		var worst time.Duration
		for _, f := range facts {
			worst = max(worst, f.mapping)
		}
		m.set("core.mapping_ms", ms(worst), "ms")
	}
	// A Dist2D step's only exchanges are its two transposes.
	if m["fft.compute_ms"].absent == "" {
		m["fft.transpose_ms"] = m["core.exchange_ms"]
	} else {
		m.absent("fft.transpose_ms", "ms", "runs no FFT")
	}
	if v, ok := medianOver(ls, func(l opLayers) (float64, bool) { return l.skewMs, l.skewOK }); ok {
		m.set("core.exchange_skew_ms", v, "ms")
	} else {
		m.absent("core.exchange_skew_ms", "ms", "runs no exchange")
	}
	other, _ := medianOver(ls, func(l opLayers) (float64, bool) { return l.otherMs, true })
	span, _ := medianOver(ls, func(l opLayers) (float64, bool) { return l.spanMs, true })
	m.set("other_ms", other, "ms")
	m.set("traced_op_ms", span, "ms")

	// The exchange layer's own accounting, max over ranks per op.
	var pack, wire, unpack, overlap, staging []float64
	depth, phases := 0, false
	for _, op := range ph.samples {
		var p, wi, u, o, st float64
		n := 0
		for _, s := range op {
			if !s.exchanged {
				continue
			}
			phases = phases || s.phases
			p, wi, u = max(p, ms(s.pack)), max(wi, ms(s.wire)), max(u, ms(s.unpack))
			o += s.overlap
			n++
			st = max(st, float64(s.peakStaging)/1e3)
			depth = max(depth, s.depth)
		}
		if n > 0 {
			pack, wire, unpack = append(pack, p), append(wire, wi), append(unpack, u)
			overlap, staging = append(overlap, o/float64(n)), append(staging, st)
		}
	}
	if phases {
		m.set("core.pack_ms", median(pack), "ms")
		m.set("core.wire_ms", median(wire), "ms")
		m.set("core.unpack_ms", median(unpack), "ms")
		m.set("core.overlap_ratio", median(overlap), "ratio")
	} else {
		for _, n := range []string{"core.pack_ms", "core.wire_ms", "core.unpack_ms"} {
			m.absent(n, "ms", "the alltoallw backend fills no pack/wire/unpack split")
		}
		m.absent("core.overlap_ratio", "ratio", "the alltoallw backend fills no pack/wire/unpack split")
	}
	m.set("core.depth_used", float64(depth), "count")

	var st planStats
	steps := 0
	for _, f := range facts {
		if len(f.stats) > 0 && st.rounds == 0 {
			for _, s := range f.stats {
				st.rounds += s.rounds
				st.wireBytes += s.wireBytes
				st.selfBytes += s.selfBytes
				st.activeSlots += s.activeSlots
			}
		}
		steps = max(steps, f.boundedSteps)
	}
	m.set("core.rounds", float64(st.rounds), "count")
	m.set("core.wire_MB", float64(st.wireBytes)/1e6, "MB")
	m.set("core.self_MB", float64(st.selfBytes)/1e6, "MB")
	m.set("core.per_rank_round_KB", float64(st.wireBytes)/st.activeSlots/1e3, "KB")
	if steps > 0 {
		m.set("core.bounded_steps", float64(steps), "count")
		m.set("core.peak_staging_KB", median(staging), "KB")
	} else {
		m.absent("core.bounded_steps", "count", "the geometry fits one-shot; no memory budget")
		m.absent("core.peak_staging_KB", "KB", "the geometry fits one-shot; no memory budget")
	}
	return nil
}

// geom is one exchange's global geometry.
type geom struct {
	elem   int
	chunks [][]grid.Box
	needs  []grid.Box
}

// packProbe times datatype.NewSubarray + CompileRuns + Pack over every
// chunk∩need box of the workload's geometries on one goroutine, against
// a plain copy of the same byte count. It returns both rates in GB/s and
// the bytes moved.
func packProbe(gs []geom, reps int) (packGBps, copyGBps float64, bytes int64) {
	type box struct {
		elem      int
		chunk, ov grid.Box
		src       int // chunk index into srcs
	}
	// Every buffer is written before timing: untouched memory reads as
	// the kernel's shared zero page and would flatter both rates.
	r := newRNG(1)
	touched := func(n int) []byte {
		b := make([]byte, n)
		for i := 0; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], r.next())
		}
		return b
	}
	var boxes []box
	var srcs [][]byte
	for _, g := range gs {
		for _, chunks := range g.chunks {
			for _, ch := range chunks {
				srcs = append(srcs, touched(ch.Volume()*g.elem))
				for _, nd := range g.needs {
					if ov, ok := ch.Intersect(nd); ok {
						boxes = append(boxes, box{g.elem, ch, ov, len(srcs) - 1})
						bytes += int64(ov.Volume() * g.elem)
					}
				}
			}
		}
	}
	wire := touched(int(bytes))
	flat := touched(int(bytes))
	var packT, copyT []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		off := 0
		for _, b := range boxes {
			sub, err := datatype.NewSubarray(b.elem, b.chunk, b.ov)
			if err != nil {
				panic(err) // the boxes are intersections of the chunk: a bug
			}
			var t datatype.Type = sub
			if rl, ok := datatype.CompileRuns(sub); ok {
				t = rl
			}
			off += t.Pack(srcs[b.src], wire[off:])
		}
		packT = append(packT, time.Since(start).Seconds())
		start = time.Now()
		copy(wire, flat)
		copyT = append(copyT, time.Since(start).Seconds())
	}
	gb := float64(bytes) / 1e9
	return gb / median(packT), gb / median(copyT), bytes
}

// mpiProbe measures a two-rank ping-pong (half round trip) and a
// one-way stream of msg-byte messages on the given transport.
func mpiProbe(opts []mpi.LaunchOption, msg int) (pingUs, streamGBps float64, err error) {
	const pings, streamMsgs, reps = 200, 64, 5
	var pingT, streamT []float64
	err = mpi.Launch(2, func(c *mpi.Comm) error {
		buf := make([]byte, msg)
		for i := range buf {
			buf[i] = byte(i)
		}
		peer := 1 - c.Rank()
		for i := 0; i < pings+10; i++ {
			start := time.Now()
			if c.Rank() == 0 {
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
				if _, _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if i >= 10 {
					pingT = append(pingT, float64(time.Since(start))/2/1e3)
				}
			} else {
				if _, _, _, err := c.Recv(peer, 1); err != nil {
					return err
				}
				if err := c.Send(peer, 1, buf); err != nil {
					return err
				}
			}
		}
		for r := 0; r < reps; r++ {
			start := time.Now()
			if c.Rank() == 0 {
				for i := 0; i < streamMsgs; i++ {
					if err := c.Send(peer, 2, buf); err != nil {
						return err
					}
				}
				if _, _, _, err := c.Recv(peer, 3); err != nil {
					return err
				}
				streamT = append(streamT, float64(streamMsgs*msg)/time.Since(start).Seconds()/1e9)
			} else {
				for i := 0; i < streamMsgs; i++ {
					if _, _, _, err := c.Recv(peer, 2); err != nil {
						return err
					}
				}
				if err := c.Send(peer, 3, nil); err != nil {
					return err
				}
			}
		}
		return nil
	}, opts...)
	return median(pingT), median(streamT), err
}
