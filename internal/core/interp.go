package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ddr/internal/datatype"
	"ddr/internal/mpi"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// The schedule interpreter: the one executor every exchange shape runs
// through. With pipeline depth k it is a software pipeline over a ring of
// staging slots:
//
//	for i := 0; i < steps; i++ {
//	        if i >= k  { wait(i-k) }   // step i-k's payloads in hand
//	        issue(i)                   // local copies, pack, post sends (+ receives)
//	        if i >= k  { retire(i-k) } // scatter i-k behind i's wire
//	}
//	// drain the last min(k, steps) steps in order
//
// so step i's pack and send posting happen while steps i-k..i-1 are on
// the wire, and step i-k's unpack runs after step i's sends are posted.
// Because step i-k's state must survive across issue(i), the ring holds
// k+1 slots: k steps in flight plus the one retiring behind the current
// issue (steps i and i-k land in distinct slots). At depth 1 each step
// runs strictly issue → wait → retire. Steps retire in order, so timings,
// unpack batches, and partial-failure bookkeeping read the same at every
// depth.
//
// Deadlock freedom at any depth mix: a rank only blocks in wait(j) after
// it has issued steps 0..j+k-1 — in particular its own step-j sends are
// posted — and delivery on every transport is eager, so by induction
// over steps every posted send is eventually deliverable and every wait
// satisfiable, even when peers run at different effective depths. Tags
// are distinct across the in-flight window (one per round, per bounded
// slice, or per one-step shape), so payloads of different steps cannot be
// cross-matched.
//
// Staging is always metered: pack buffers are charged while held, and a
// step's class-rounded receive bytes are leased from issue to retire, so
// the meter's high-water mark bounds the whole in-flight window — k
// receive leases plus the current step's send staging while packing.
// pipelineDepth clamps k so that k+1 per-step footprints fit the budget.
//
// Partial failure: with an exchange deadline armed, a peer lost at step
// j is skipped for every later send and receive, in-flight receives from
// it degrade as their waits fail, and when the deadline expires the
// not-yet-issued steps' sources are marked lost while the issued window
// drains. The call then returns a *PartialError built from the
// schedule's receive regions.

// slot is one ring slot: the in-flight state of one issued step, alive
// from issue until retire. All slices are reused across steps and
// exchanges, so the steady state allocates nothing.
type slot struct {
	step int

	start   time.Time     // issue began
	issued  time.Time     // sends posted
	packT   time.Duration // issue: local copies, pack, posting sends
	blocked time.Duration // wait: time spent blocked on the transport
	wire    time.Duration // sends posted → last payload in hand

	lease mpi.StagingLease // the step's receive bytes, issue → retire
	datas [][]byte         // held payloads pending the unpack batch
	jobs  []exchJob        // slot-local unpack batch
	reqs  []*mpi.Request   // cancellable-path receive requests
	early bool             // payloads recycled early by PerturbPipelineForTest
}

// interp is the interpreter's reusable state, embedded in every front
// end that owns one (Descriptor, MultiDescriptor) and built per call for
// resize exchanges.
type interp struct {
	eng   engine
	meter mpi.StagingMeter
	slots []slot

	wires  [][]byte // per send message: outgoing wire (staged or zero-copy alias)
	staged [][]byte // staged wires to recycle once sent
	needs  [][]byte // single-need callers' need buffer as a one-element list

	// Dense alltoallw rows, materialized per collective step (the
	// collective's wire format wants one slot per peer) and reset to the
	// Empty sentinel afterwards.
	rowSend, rowRecv []datatype.Type

	// Per-direction contiguous fast paths, set by the pack strategy.
	zcSend, zcRecv bool
	// perturb arms the PerturbPipelineForTest early-recycle bug.
	perturb bool

	obsv       *exchObs            // nil unless a tracer or registry is attached
	flight     *obs.FlightRecorder // nil unless WithFlightRecorder
	lastExchID uint64              // trace identity of the running exchange

	timings         []RoundTiming
	lastDepth       int
	lastOverlap     float64
	lastPeakStaging int64
}

// run executes schedule s at depth k (clamped to the step count) with
// own and need as the send- and receive-side buffer lists. A positive
// deadline bounds the exchange and arms graceful degradation. It owns
// the exchange's trace context, spans, flight marks, timings, and
// metrics; the result is nil, a *PartialError, or a hard error.
func (x *interp) run(ctx context.Context, c *mpi.Comm, s *schedule, own, need [][]byte, k int, deadline time.Duration) error {
	o := x.obsv
	rankL := o.Rank(c)
	exch := x.lastExchID
	traced := exch != 0 && (o.tracing() || x.flight != nil)
	if traced {
		// Stamp the context onto every message of this exchange: the
		// transports propagate it in-band, so the receiving side's flight
		// events name the exchange and step they served.
		c.SetTraceContext(mpi.TraceContext{Exchange: exch})
		defer c.ClearTraceContext()
		x.flight.Record(obs.FlightEvent{Kind: obs.FlightExchangeStart, Rank: int32(rankL), Peer: -1, Exchange: exch})
	}
	var ps *partialState
	if deadline > 0 {
		ps = &partialState{uctx: ctx, lost: make(map[int]int), deadline: deadline}
		base := ctx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(base, deadline)
		defer cancel()
	}
	if k > len(s.steps) {
		k = len(s.steps)
	}
	k = max(k, 1)
	x.lastDepth = k
	x.timings = x.timings[:0]
	x.meter.ResetPeak()
	start := time.Now()
	if cap(x.slots) < k+1 {
		x.slots = make([]slot, k+1)
	}
	slots := x.slots[:k+1]
	if err := x.loop(ctx, c, s, own, need, k, ps, traced, slots); err != nil {
		// A hard error abandons the in-flight window; release what the
		// ring still holds. Outstanding receive requests are left to the
		// transport — a hard error ends the communicator's DDR use.
		for i := range slots {
			x.release(&slots[i])
			slots[i].reqs = slots[i].reqs[:0]
		}
		for _, w := range x.staged {
			mpi.PutBufferMetered(w, &x.meter)
		}
		x.staged = x.staged[:0]
		return err
	}
	end := time.Now()
	x.lastPeakStaging = x.meter.Peak()
	x.lastOverlap = OverlapRatio(x.timings)
	if o.on() {
		o.exchangeLat.Observe(end.Sub(start).Seconds())
		o.pipeDepth.Set(int64(k))
		o.pipeOverlap.Set(x.lastOverlap)
		if s.bounded {
			o.boundedSteps.Add(int64(len(s.steps)))
			o.boundedPeak.SetMax(x.lastPeakStaging)
		}
	}
	if o.tracing() && exch != 0 {
		o.rec.StampSpan(trace.Event{Rank: rankL, Name: "exchange", Exchange: exch, Round: -1, Peer: -1}, start, end)
	}
	err := s.partialError(ps)
	if traced {
		x.flight.Record(obs.FlightEvent{Kind: obs.FlightExchangeEnd, Rank: int32(rankL), Peer: -1, Exchange: exch})
		var pe *PartialError
		if x.flight != nil && errors.As(err, &pe) {
			// The one-shot postmortem names the lost peers while the ring
			// still holds the frames leading up to the loss.
			x.flight.DumpOnce(fmt.Sprintf("rank %d exchange %016x degraded: lost peers %v: %v",
				rankL, exch, pe.LostPeers, pe.Cause))
		}
	}
	return err
}

// loop is run's issue/wait/retire pipeline over the slot ring.
func (x *interp) loop(ctx context.Context, c *mpi.Comm, s *schedule, own, need [][]byte, k int, ps *partialState, traced bool, slots []slot) error {
	ring := len(slots)
	issued := 0
	for i := range s.steps {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				if ps == nil || (ps.uctx != nil && ps.uctx.Err() != nil) {
					return err
				}
				// The exchange deadline is spent: give up on every source
				// of the not-yet-issued steps; the issued window drains
				// below, degrading peer by peer as its waits fail.
				for j := i; j < len(s.steps); j++ {
					for _, m := range s.steps[j].recvs {
						ps.markLost(m.peer, j)
					}
				}
				if ps.cause == nil {
					ps.cause = fmt.Errorf("core: exchange deadline %v exhausted after step %d: %w",
						ps.deadline, i, mpi.ErrExchangeTimeout)
				}
				break
			}
		}
		if k > 1 && i >= k {
			if err := x.wait(ctx, c, s, need, ps, &slots[(i-k)%ring]); err != nil {
				return err
			}
		}
		sl := &slots[i%ring]
		if err := x.issue(ctx, c, s, i, own, need, ps, traced, sl); err != nil {
			return err
		}
		issued = i + 1
		switch {
		case k == 1:
			if err := x.wait(ctx, c, s, need, ps, sl); err != nil {
				return err
			}
			x.retire(s, sl)
		case i >= k:
			x.retire(s, &slots[(i-k)%ring])
		}
	}
	if k == 1 {
		return nil
	}
	for j := max(issued-k, 0); j < issued; j++ {
		sl := &slots[j%ring]
		if err := x.wait(ctx, c, s, need, ps, sl); err != nil {
			return err
		}
		x.retire(s, sl)
	}
	return nil
}

// issue runs step i's local copies, packs and posts its sends, opens its
// receive lease, and — on the cancellable path — posts its receives.
func (x *interp) issue(ctx context.Context, c *mpi.Comm, s *schedule, i int, own, need [][]byte, ps *partialState, traced bool, sl *slot) error {
	st := &s.steps[i]
	o := x.obsv
	sl.step, sl.early = i, false
	sl.datas, sl.jobs, sl.reqs = sl.datas[:0], sl.jobs[:0], sl.reqs[:0]
	sl.start = time.Now()
	if traced {
		c.SetTraceContext(mpi.TraceContext{Exchange: x.lastExchID, Round: uint32(i)})
	}
	if s.collective {
		return x.collective(c, st, i, own, need[0], ps, sl)
	}
	for j := range st.copies {
		x.copyLocal(&st.copies[j], own, need)
	}

	// Pack: a one-segment message contiguous in its owned buffer goes to
	// the transport as a sub-slice, whose delivery copy is the only copy;
	// everything else stages through the metered arena.
	x.wires, x.staged = x.wires[:0], x.staged[:0]
	for j := range st.sends {
		m := &st.sends[j]
		if sg := &m.segs[0]; x.zcSend && len(m.segs) == 1 && sg.span.ok {
			x.wires = append(x.wires, own[sg.buf][sg.span.off:sg.span.off+sg.n])
			continue
		}
		wire := mpi.GetBufferMetered(m.bytes, &x.meter)
		off := 0
		for g := range m.segs {
			sg := &m.segs[g]
			if x.zcSend && sg.span.ok {
				copy(wire[off:off+sg.n], own[sg.buf][sg.span.off:sg.span.off+sg.n])
			} else {
				x.eng.add(exchJob{t: sg.t, local: own[sg.buf], wire: wire[off : off+sg.n], peer: m.peer})
			}
			off += sg.n
		}
		x.wires = append(x.wires, wire)
		x.staged = append(x.staged, wire)
	}
	x.eng.run(o)
	for j := range st.sends {
		m := &st.sends[j]
		if ps.isLost(m.peer) {
			continue
		}
		var err error
		if ctx == nil {
			err = c.Send(m.peer, m.tag, x.wires[j])
		} else {
			err = c.SendCtx(ctx, m.peer, m.tag, x.wires[j])
		}
		if err != nil {
			if ps.degrade(m.peer, i, err) {
				continue
			}
			return err
		}
	}
	// Sends copy eagerly, so pack staging recycles before the step's wire
	// time starts — only receive payloads ride the window.
	for _, w := range x.staged {
		mpi.PutBufferMetered(w, &x.meter)
	}
	x.staged = x.staged[:0]

	sl.lease = x.meter.Lease(st.lease)
	if ctx != nil {
		for j := range st.recvs {
			m := &st.recvs[j]
			if ps.isLost(m.peer) {
				// Nothing is coming: our own send already failed or the
				// peer was lost in an earlier step.
				sl.reqs = append(sl.reqs, nil)
				continue
			}
			sl.reqs = append(sl.reqs, c.Irecv(m.peer, m.tag))
		}
	}
	sl.issued = time.Now()
	sl.packT = sl.issued.Sub(sl.start)
	return nil
}

// collective runs an alltoallw step: the step's typed messages and local
// copy become one dense row per direction and the collective moves them,
// packing and unpacking inside. Its time is reported as blocked wire
// time with no pack/wire/unpack split.
func (x *interp) collective(c *mpi.Comm, st *step, i int, own [][]byte, need []byte, ps *partialState, sl *slot) error {
	if len(x.rowSend) != c.Size() {
		x.rowSend = make([]datatype.Type, c.Size())
		x.rowRecv = make([]datatype.Type, c.Size())
		fillEmpty(x.rowSend)
		fillEmpty(x.rowRecv)
	}
	for j := range st.sends {
		x.rowSend[st.sends[j].peer] = st.sends[j].segs[0].t
	}
	for j := range st.recvs {
		x.rowRecv[st.recvs[j].peer] = st.recvs[j].segs[0].t
	}
	for j := range st.copies {
		x.rowSend[c.Rank()], x.rowRecv[c.Rank()] = st.copies[j].src.t, st.copies[j].dst.t
	}
	var sendBuf []byte
	if i < len(own) {
		sendBuf = own[i]
	}
	var deadline time.Duration
	if ps != nil {
		deadline = ps.deadline
	}
	err := c.AlltoallwOpt(sendBuf, x.rowSend, need, x.rowRecv, mpi.AlltoallwOptions{
		Parallelism: x.parallelism(),
		Pooled:      true,
		ZeroCopy:    x.zcSend && x.zcRecv,
		Deadline:    deadline,
	})
	fillEmpty(x.rowSend)
	fillEmpty(x.rowRecv)
	if err != nil && !ps.absorb(i, err) {
		return err
	}
	sl.issued = time.Now()
	sl.packT, sl.wire = 0, 0
	sl.blocked = sl.issued.Sub(sl.start)
	return nil
}

// copyLocal moves one local region. One contiguous side is enough to
// drop the staging buffer; two reduce the move to a single memmove.
func (x *interp) copyLocal(lc *localCopy, own, need [][]byte) {
	src, dst := own[lc.src.buf], need[lc.dst.buf]
	ss, ds, n := lc.src.span, lc.dst.span, lc.src.n
	switch {
	case x.zcSend && x.zcRecv && ss.ok && ds.ok:
		copy(dst[ds.off:ds.off+n], src[ss.off:ss.off+n])
	case x.zcSend && ss.ok:
		lc.dst.t.Unpack(src[ss.off:ss.off+n], dst)
	case x.zcRecv && ds.ok:
		lc.src.t.Pack(src, dst[ds.off:ds.off+n])
	default:
		wire := mpi.GetBufferMetered(n, &x.meter)
		lc.src.t.Pack(src, wire)
		lc.dst.t.Unpack(wire, dst)
		mpi.PutBufferMetered(wire, &x.meter)
	}
}

// wait brings slot sl's payloads in hand, placing contiguous segments
// immediately and batching strided ones into the slot's unpack jobs. It
// is the only blocking point of the pipeline; the time spent here is the
// step's unhidden wire time.
func (x *interp) wait(ctx context.Context, c *mpi.Comm, s *schedule, need [][]byte, ps *partialState, sl *slot) error {
	if s.collective {
		return nil
	}
	o := x.obsv
	st := &s.steps[sl.step]
	waitStart := time.Now()
	for j := range st.recvs {
		m := &st.recvs[j]
		var peerStart time.Time
		if o.tracing() {
			peerStart = time.Now()
		}
		var data []byte
		var err error
		if ctx == nil {
			// Delivery is eager and buffered — every peer's send has
			// already been accepted by the transport — so blocking
			// receives in schedule order cannot deadlock.
			if data, _, _, err = c.Recv(m.peer, m.tag); err != nil {
				return err
			}
		} else {
			if sl.reqs[j] == nil {
				continue
			}
			if data, _, _, err = sl.reqs[j].WaitCtx(ctx); err != nil {
				if ps.degrade(m.peer, sl.step, err) {
					continue
				}
				return err
			}
		}
		if o.tracing() {
			o.rec.StampSpan(trace.Event{Rank: o.rank, Name: fmt.Sprintf("wait<-%d", m.peer),
				Bytes: int64(len(data)), Exchange: x.lastExchID, Round: int32(sl.step), Peer: int32(m.peer)},
				peerStart, time.Now())
		}
		if err := x.accept(m, data, need, sl); err != nil {
			return err
		}
	}
	now := time.Now()
	sl.blocked = now.Sub(waitStart)
	sl.wire = now.Sub(sl.issued)
	if x.perturb {
		// Planted bug (PerturbPipelineForTest): recycle the step's held
		// payloads one iteration early. The next issue's staging draws
		// the same arena buffers back out and packs over them before
		// this step's unpack batch has scattered them.
		for _, data := range sl.datas {
			mpi.PutBuffer(data)
		}
		sl.early = true
	}
	return nil
}

// accept consumes one received payload into slot sl, splitting it into
// its segments in the order the sender packed them. The payload's bytes
// are covered by the step's lease, so no per-payload charge is taken.
func (x *interp) accept(m *message, data []byte, need [][]byte, sl *slot) error {
	if len(data) != m.bytes {
		mpi.PutBuffer(data)
		return fmt.Errorf("core: expected %d bytes from rank %d (tag %d), got %d", m.bytes, m.peer, m.tag, len(data))
	}
	held := false
	off := 0
	for g := range m.segs {
		sg := &m.segs[g]
		if x.zcRecv && sg.span.ok {
			directUnpack(x.obsv, need[sg.buf][sg.span.off:sg.span.off+sg.n], data[off:off+sg.n], m.peer)
		} else {
			sl.jobs = append(sl.jobs, exchJob{t: sg.t, local: need[sg.buf], wire: data[off : off+sg.n], unpack: true, peer: m.peer})
			held = true
		}
		off += sg.n
	}
	if held {
		sl.datas = append(sl.datas, data)
	} else {
		mpi.PutBuffer(data)
	}
	return nil
}

// retire scatters slot sl's batched payloads, releases them and the
// slot's lease, and records the step's timing and metrics. A collective
// step unpacked inside its wire operation, so it reports no unpack time.
func (x *interp) retire(s *schedule, sl *slot) {
	o := x.obsv
	st := &s.steps[sl.step]
	unpackStart := time.Now()
	x.eng.runJobs(o, sl.jobs)
	x.release(sl)
	end := time.Now()
	var unpackT time.Duration
	if !s.collective {
		unpackT = end.Sub(unpackStart)
	}
	dur := sl.packT + sl.blocked + unpackT
	x.timings = append(x.timings, RoundTiming{
		Round: sl.step, Duration: dur, Pack: sl.packT, Wire: sl.wire, Unpack: unpackT, WireBytes: st.wireBytes,
	})
	if o.on() {
		o.roundLat.Observe(dur.Seconds())
		o.exchangeBytes.Add(st.wireBytes)
	}
	if o.tracing() && x.lastExchID != 0 {
		o.rec.StampSpan(trace.Event{Rank: o.rank, Name: fmt.Sprintf("round-%d", sl.step),
			Bytes: st.wireBytes, Exchange: x.lastExchID, Round: int32(sl.step), Peer: -1}, sl.start, end)
	}
}

// release recycles a slot's held payloads and closes its lease.
func (x *interp) release(sl *slot) {
	if !sl.early {
		for _, data := range sl.datas {
			mpi.PutBuffer(data)
		}
	}
	sl.datas, sl.jobs = sl.datas[:0], sl.jobs[:0]
	sl.lease.Close()
}

// partialState tracks graceful degradation during one deadline-bounded
// exchange: which peers have been given up on, from which step onward,
// and why. It is nil when no deadline is set, keeping the fail-fast
// paths untouched.
type partialState struct {
	uctx     context.Context // caller's context; its cancellation still aborts
	lost     map[int]int     // peer → earliest step whose data is compromised
	cause    error
	deadline time.Duration
}

// markLost records that peer's data is missing from step onward.
func (ps *partialState) markLost(peer, step int) {
	if r0, ok := ps.lost[peer]; !ok || step < r0 {
		ps.lost[peer] = step
	}
}

// isLost reports whether peer has already been given up on.
func (ps *partialState) isLost(peer int) bool {
	if ps == nil {
		return false
	}
	_, ok := ps.lost[peer]
	return ok
}

// degrade decides whether err from a step-i operation against peer is a
// peer-loss condition the exchange should absorb (recording the peer as
// lost) rather than abort on. A cancellation of the caller's own context
// always aborts.
func (ps *partialState) degrade(peer, step int, err error) bool {
	if ps == nil {
		return false
	}
	if ps.uctx != nil && ps.uctx.Err() != nil {
		return false
	}
	if !mpi.IsPeerLoss(err) && !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	ps.markLost(peer, step)
	if ps.cause == nil {
		ps.cause = err
	}
	return true
}

// absorb folds a collective step's degraded result into the partial
// state: a *mpi.PartialExchangeError merges its lost-peer set and the
// step is considered survived.
func (ps *partialState) absorb(step int, err error) bool {
	if ps == nil {
		return false
	}
	var pe *mpi.PartialExchangeError
	if !errors.As(err, &pe) {
		return false
	}
	for _, r := range pe.LostPeers {
		ps.markLost(r, step)
	}
	if ps.cause == nil {
		ps.cause = pe.Cause
	}
	return true
}
