package core

import "ddr/internal/grid"

// CompileForTest compiles a plan through the production indexed compiler
// at an explicit parallelism, bypassing the communicator. It exists for
// the compiler-equivalence tests. Never call outside tests.
func CompileForTest(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box, par int) (*Plan, error) {
	return compilePlan(rank, elemSize, allChunks, allNeeds, par)
}

// CompileBruteForTest compiles a plan through the brute-force reference
// compiler (mapping_brute.go), the differential-testing oracle for
// CompileForTest. Never call outside tests.
func CompileBruteForTest(rank, elemSize int, allChunks [][]grid.Box, allNeeds []grid.Box) (*Plan, error) {
	return compilePlanBrute(rank, elemSize, allChunks, allNeeds)
}

// CompileBoundedForTest attaches a bounded step schedule compiled for an
// explicit budget to the plan, bypassing the descriptor's auto-selection
// (which only compiles one when the single-shot footprint exceeds the
// budget), and makes it the schedule the plan's exchanges run. It exists
// for the golden bounded fixtures and the meter-enforcement self-tests.
// Never call outside tests.
func CompileBoundedForTest(p *Plan, budget int) error {
	b, err := compileBounded(p, budget)
	if err != nil {
		return err
	}
	p.bounded, p.sched = b, b.sched
	return nil
}

// PerturbBoundedForTest translates one of the bounded schedule's receive
// slices by one cell along an axis (staying inside the need box),
// rebuilding its receive segment — a step-boundary off-by-one: the
// payload still carries the right bytes, but they land one cell away
// from where they belong. The send half is untouched, so the wire
// lengths still match and only the differential byte comparison (or the
// harness's fill invariant) can catch it. Returns false when no receive
// slice can be shifted while staying in bounds. Never call outside
// tests.
func (p *Plan) PerturbBoundedForTest() bool {
	if p == nil || p.bounded == nil {
		return false
	}
	for i := range p.sched.steps {
		for _, m := range p.sched.steps[i].recvs {
			sg := &m.segs[0]
			for ax := 0; ax < sg.region.NDims; ax++ {
				for _, delta := range [2]int{1, -1} {
					moved := sg.region
					moved.Offset[ax] += delta
					if !p.need.Contains(moved) {
						continue
					}
					if seg, err := newSegment(sg.buf, p.elemSize, p.need, moved); err == nil {
						*sg = seg
						return true
					}
				}
			}
		}
	}
	return false
}

// PerturbPipelineForTest arms a pipelined-schedule bug in this
// descriptor's interpreter: every pipelined step recycles its held
// receive payloads to the staging arena one iteration early — right
// after the wait brings them in hand, instead of after the retire has
// scattered them. Because the next step's issue stages its pack buffers
// between those two points, the arena hands the just-freed payloads back
// out and the pack overwrites them before the unpack batch reads them —
// the classic double-buffer lifetime bug a depth-k ring must not have.
// Exchanges at depth 1 (or whose payloads all take the contiguous fast
// path) are unaffected. It exists so both the differential sweep and the
// property harness can prove they detect pipelined buffer-lifetime bugs.
// Never call outside tests.
func (d *Descriptor) PerturbPipelineForTest() {
	d.perturb = true
}

// PerturbPlanForTest shifts one contiguous receive span of the schedule
// the plan's exchanges run by one element, simulating an off-by-one in
// the overlap math. It exists so the property-based harness can prove it
// detects plan-compilation bugs: a perturbed rank places one peer's
// payload one element away from where it belongs, which must surface as
// an invariant violation. It returns false when the plan has no
// schedule or no receive span that can be shifted while staying in
// bounds of the need buffer. Never call outside tests.
func (p *Plan) PerturbPlanForTest() bool {
	if p == nil || p.sched == nil {
		return false
	}
	total := p.need.Volume() * p.elemSize
	for i := range p.sched.steps {
		for _, m := range p.sched.steps[i].recvs {
			for j := range m.segs {
				sp := &m.segs[j].span
				if !sp.ok || sp.n == 0 || sp.n >= total {
					continue
				}
				if sp.off+sp.n+p.elemSize <= total {
					sp.off += p.elemSize
					return true
				}
				if sp.off >= p.elemSize {
					sp.off -= p.elemSize
					return true
				}
			}
		}
	}
	return false
}
